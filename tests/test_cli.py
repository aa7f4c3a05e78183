import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from steinberg_ext.cli import parse_and_dispatch, render_table
from steinberg_ext.extengine import ExtTable, ModulePiece

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ext_both_methods(capsys):
    code, out, _ = run_cli(capsys, "ext", "--type", "A2", "--I", "0", "--J", "1",
                           "--ring", "q=3,d=5", "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["table"] == {"2": {"rank": 1, "torsion": []}}
    assert data["query"]["ring"] == "q=3,d=5"
    assert data["query"]["I"] == [0] and data["query"]["J"] == [1]


def test_ext_center_rank(capsys):
    code, out, _ = run_cli(capsys, "ext", "--type", "A2", "--I", "0", "--J", "1",
                           "--ring", "Q", "--method", "both", "--center-rank", "1")
    assert code == 0
    assert json.loads(out)["table"] == {"2": {"rank": 1, "torsion": []},
                                        "3": {"rank": 1, "torsion": []}}


def test_check_ring_reports_failure_with_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check-ring", "--type", "A1", "--ring", "q=3,d=2")
    assert code == 0
    data = json.loads(out)
    assert data["bon"] is False
    assert data["witness"]["bon_failing_exponent"] == 1
    assert data["witness"]["bon_failing_factor"] == 0  # 1 - q is 0 mod 2


def test_check_ring_theta_acknowledgment(capsys):
    code, out, _ = run_cli(capsys, "check-ring", "--type", "A2", "--ring", "Q",
                           "--assume-theta")
    assert code == 0
    data = json.loads(out)
    assert data["theta_assumed"] is True
    assert "acknowledged" in data["notes"]


def test_verify_all_pairs_b2_rationals(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "B2", "--ring", "Q", "--all-pairs")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "0 failed" in lines[-1]
    # 16 pairs appear in the sweep
    assert sum("ext-methods" in line for line in lines) == 16


def test_verify_bad_ring_exits_three(capsys):
    code, out, err = run_cli(capsys, "verify", "--type", "A1", "--ring", "q=3,d=2",
                             "--all-pairs")
    assert code == 3
    assert "ring-assumption error" in err
    assert out == ""


def test_ext_induced_strata_bad_ring_exits_three(capsys):
    code, _, err = run_cli(capsys, "ext-induced", "--type", "A1", "--I", "", "--J", "",
                           "--ring", "q=3,d=2", "--method", "strata")
    assert code == 3
    assert "ring-assumption" in err


def test_verification_mismatch_exits_one(capsys, monkeypatch):
    import steinberg_ext.extengine as eng

    honest = eng.total_degree
    monkeypatch.setattr(eng, "total_degree",
                        lambda *args: honest(*args) + 1)
    code, out, err = run_cli(capsys, "ext", "--type", "A2", "--I", "0", "--J", "1",
                             "--ring", "Q", "--method", "both")
    assert code == 1
    assert out == ""
    assert "verification failure" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "ext", "--type", "A2", "--bogus")[0] == 2
    assert run_cli(capsys, "ext", "--type", "H9", "--ring", "Q")[0] == 2
    assert run_cli(capsys, "ext", "--type", "A2", "--I", "5", "--ring", "Q")[0] == 2
    assert run_cli(capsys, "ext", "--type", "A2", "--ring", "q=6,d=5")[0] == 2


def test_tsv_rendering():
    empty = render_table(ExtTable({}), "tsv", {}, "closed_form")
    assert empty == "degree\trank\ttorsion\n"
    two = render_table(ExtTable({2: ModulePiece(1), 1: ModulePiece(1)}), "tsv", {},
                       "closed_form")
    assert two == "degree\trank\ttorsion\n1\t1\t-\n2\t1\t-\n"


def test_deterministic_bytes(capsys):
    args = ("ext", "--type", "B2", "--I", "0", "--J", "0,1", "--ring", "q=3,d=23",
            "--method", "both")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_cohomology_objects(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--type", "A2", "--I", "0",
                           "--ring", "Q", "--method", "both")
    assert code == 0
    assert json.loads(out)["table"] == {"1": {"rank": 1, "torsion": []}}

    code, out, _ = run_cli(capsys, "cohomology", "--type", "A2", "--object", "trivial",
                           "--center-rank", "2", "--ring", "Q")
    assert code == 0
    assert json.loads(out)["table"] == {"0": {"rank": 1, "torsion": []},
                                        "1": {"rank": 2, "torsion": []},
                                        "2": {"rank": 1, "torsion": []}}

    code, out, _ = run_cli(capsys, "cohomology", "--type", "A3", "--object", "induced",
                           "--I", "0,1", "--ring", "Q")
    assert code == 0
    assert json.loads(out)["table"] == {"0": {"rank": 1, "torsion": []},
                                        "1": {"rank": 1, "torsion": []}}


def test_ext_vi_both_methods(capsys):
    code, out, _ = run_cli(capsys, "ext-vi", "--type", "A2", "--I", "0", "--J", "1",
                           "--ring", "Q", "--method", "both")
    assert code == 0
    assert json.loads(out)["table"] == {"1": {"rank": 1, "torsion": []},
                                        "2": {"rank": 1, "torsion": []}}


def test_ext_induced_strata_good_ring(capsys):
    code, out, _ = run_cli(capsys, "ext-induced", "--type", "A2", "--I", "0,1",
                           "--J", "0", "--ring", "q=3,d=23", "--method", "strata")
    assert code == 0
    assert json.loads(out)["table"] == {"0": {"rank": 1, "torsion": []},
                                        "1": {"rank": 1, "torsion": []}}


def test_dcosets_json_and_tsv(capsys):
    code, out, _ = run_cli(capsys, "dcosets", "--type", "A2", "--I", "0", "--J", "0",
                           "--ring", "q=3,d=5")
    assert code == 0
    data = json.loads(out)
    assert [r["length"] for r in data["reps"]] == [0, 1]
    assert data["reps"][0]["surviving"] is True
    assert data["reps"][0]["certificate"] is None
    assert data["reps"][1]["certificate"]["exponent"] == 1

    code, out, _ = run_cli(capsys, "dcosets", "--type", "A2", "--I", "0", "--J", "0",
                           "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length\tgamma_exp\tdelta_exp\tlevi\tsurviving"
    assert len(lines) == 3


def test_zelevinsky(capsys):
    code, out, _ = run_cli(capsys, "zelevinsky", "--k", "3", "--I", "0", "--J", "1")
    assert code == 0
    data = json.loads(out)
    assert data["theta_roundtrip_ok"] is True
    assert data["sk_orientations_surjective"] is True
    assert data["table"] == {"2": {"rank": 1, "torsion": []},
                             "3": {"rank": 1, "torsion": []}}
    assert data["orientation_I"] == [True, False]

    code, out, _ = run_cli(capsys, "zelevinsky", "--k", "8")
    assert code == 0
    data = json.loads(out)
    assert data["theta_roundtrip_ok"] is True
    assert data["sk_orientations_surjective"] is None


def test_dump_complex(capsys):
    code, out, _ = run_cli(capsys, "ext", "--type", "A1", "--I", "", "--J", "0",
                           "--ring", "Q", "--method", "complex_built", "--dump-complex")
    assert code == 0
    data = json.loads(out)
    assert "complexes" in data and data["complexes"]
    assert all(set(c) == {"ranks", "differentials", "labels"} for c in data["complexes"])


def test_cache_dir_used(tmp_path, capsys):
    code, first, _ = run_cli(capsys, "dcosets", "--type", "B2", "--I", "0", "--J", "1",
                             "--cache-dir", str(tmp_path))
    assert code == 0
    cache_files = list(tmp_path.glob("weyl_*.bin"))
    assert len(cache_files) == 1
    code, second, _ = run_cli(capsys, "dcosets", "--type", "B2", "--I", "0", "--J", "1",
                              "--cache-dir", str(tmp_path))
    assert code == 0 and first == second


def test_cache_env_var_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STEINBERG_EXT_CACHE_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "dcosets", "--type", "A2", "--I", "", "--J", "")
    assert code == 0
    assert list(tmp_path.glob("weyl_A2.bin"))


GOLDEN = Path(__file__).resolve().parent / "golden"
WEYL_GOLDEN = sorted(name for name in json.loads((GOLDEN / "cases.json").read_text())
                     if name.startswith(("dcosets_B3", "dcosets_F4",
                                         "extind_B3", "extind_F4")))


@pytest.mark.parametrize("name", WEYL_GOLDEN)
def test_golden_weyl_queries_through_the_cache(name, tmp_path, capsys, monkeypatch):
    # the recorded bytes, once writing the cache and once reading it back
    import steinberg_ext.weyl as weyl

    case = json.loads((GOLDEN / "cases.json").read_text())[name]
    expected = (GOLDEN / f"{name}.out").read_bytes()
    monkeypatch.delenv("STEINBERG_EXT_CACHE_DIR", raising=False)
    argv = (*case["argv"], "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(capsys, *argv)
    assert (code, cold.encode()) == (case["exit"], expected)
    assert len(list(tmp_path.glob("weyl_*.bin"))) == 1

    def no_generation(*a, **k):
        raise AssertionError("the Weyl group was generated, not read from the cache")

    monkeypatch.setattr(weyl, "generate_weyl", no_generation)
    code, warm, _ = run_cli(capsys, *argv)
    assert (code, warm.encode()) == (case["exit"], expected)


def test_closed_form_ext_induced_writes_the_cache(tmp_path, capsys, monkeypatch):
    # a closed-form query still leaves a readable cache file behind, so one
    # cold query can prepare the cache for later strata and dcosets queries
    from steinberg_ext.rootdata import build_root_system
    from steinberg_ext.weyl import generate_weyl, load_weyl_cache

    monkeypatch.delenv("STEINBERG_EXT_CACHE_DIR", raising=False)
    code, _, _ = run_cli(capsys, "ext-induced", "--type", "B3", "--I", "", "--J", "",
                         "--ring", "Q", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [p.name for p in tmp_path.glob("weyl_*.bin")] == ["weyl_B3.bin"]
    rs = build_root_system("B", 3)
    assert load_weyl_cache(rs, tmp_path) == generate_weyl(rs)


def test_cli_import_leaves_multiprocessing_out():
    # only verify --parallel N > 1 starts a pool; nothing else pays its import
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, steinberg_ext.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_strata_writes_then_reads_the_cache(tmp_path, capsys, monkeypatch):
    import steinberg_ext.cli as cli
    import steinberg_ext.weyl as weyl

    args = ("verify", "--type", "B2", "--ring", "q=3,d=1009", "--all-pairs",
            "--strata", "on", "--cache-dir", str(tmp_path))
    cli._strata_group.cache_clear()
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert [p.name for p in tmp_path.glob("weyl_*.bin")] == ["weyl_B2.bin"]

    def no_generation(*a, **k):
        raise AssertionError("the Weyl group was generated, not read from the cache")

    cli._strata_group.cache_clear()
    monkeypatch.setattr(weyl, "generate_weyl", no_generation)
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and second == first


def test_verify_strata_honours_the_cache_env_var(tmp_path, capsys, monkeypatch):
    import steinberg_ext.cli as cli

    monkeypatch.setenv("STEINBERG_EXT_CACHE_DIR", str(tmp_path))
    cli._strata_group.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--type", "A2", "--ring", "Q", "--strata", "on")
    assert code == 0
    assert list(tmp_path.glob("weyl_A2.bin"))


def test_verify_checks_the_ring_once_per_sweep(capsys, monkeypatch):
    import steinberg_ext.extengine as extengine
    import steinberg_ext.ringcond as ringcond

    calls = []
    original = ringcond.bon_check

    def counting(rs, spec):
        calls.append(spec)
        return original(rs, spec)

    monkeypatch.setattr(ringcond, "bon_check", counting)
    extengine._ring_passes.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--type", "B2", "--ring", "q=3,d=1009",
                           "--all-pairs", "--strata", "off")
    assert code == 0 and "36 passed, 0 failed" in out
    # one for verify's own ring report, one for every complex-built table
    assert len(calls) == 2


def test_parallel_same_bytes(capsys):
    args = ("verify", "--type", "A2", "--ring", "Q", "--all-pairs")
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--parallel", "2")
    assert serial == parallel


def test_module_entrypoint_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "steinberg_ext", "ext", "--type", "A1", "--I", "0",
         "--J", "0", "--ring", "Q"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["table"] == {"0": {"rank": 1, "torsion": []}}


def test_negative_center_rank_is_a_usage_error(capsys):
    base = ["--type", "A2", "--ring", "Q", "--center-rank", "-1"]
    for argv in (["ext", *base, "--method", "both"],
                 ["cohomology", *base, "--object", "trivial"],
                 ["cohomology", *base, "--object", "v", "--I", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "center rank must be non-negative" in err
        assert "internal contract violation" not in err


def test_parallel_below_one_is_a_usage_error(capsys):
    for n in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--type", "A1", "--ring", "Q",
                                 "--all-pairs", "--parallel", n)
        assert (code, out) == (2, "")
        assert "--parallel" in err


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_parallel_pool_size_is_clamped(capsys, monkeypatch):
    import steinberg_ext.cli as cli

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    _InlinePool.sizes = []
    args = ("verify", "--type", "A2", "--ring", "Q")
    _, serial, _ = run_cli(capsys, *args, "--all-pairs")
    _, pooled, _ = run_cli(capsys, *args, "--all-pairs", "--parallel", "1000000")
    assert pooled == serial
    assert _InlinePool.sizes == [3]  # min(N, cpu_count, 16 pairs)

    run_cli(capsys, *args, "--I", "0", "--J", "1", "--parallel", "8")
    assert _InlinePool.sizes == [3]  # one pair: no pool at all

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    run_cli(capsys, *args, "--all-pairs", "--parallel", "1000000")
    assert _InlinePool.sizes == [3, 16]


# ---------------------------------------------------------------------------
# per-process row cache

GOLDEN = Path(__file__).resolve().parent / "golden"
DUMP_CASES = ("coh_A3_dump", "coh_G2_dump", "ext_A3_dump", "ext_B3_dump", "extvi_A3_dump",
              "extvi_G2_dump")


def _golden(name):
    case = json.loads((GOLDEN / "cases.json").read_text())[name]
    return case["argv"], (GOLDEN / f"{name}.out").read_text()


def test_verify_builds_and_reduces_each_distinct_row_once(capsys, monkeypatch):
    import steinberg_ext.homology as homology

    built, reduced = [], []
    builder, divisors = homology.exterior_row_complex, homology.smith_divisors

    def counting_builder(rs, bottom, t, **kwargs):
        row = builder(rs, bottom, t, **kwargs)
        built.append(((rs.rank, bottom, t, *sorted(kwargs.items())), len(row.differentials)))
        return row

    def counting_divisors(m):
        reduced.append(m)
        return divisors(m)

    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    monkeypatch.setattr(homology, "exterior_row_complex", counting_builder)
    monkeypatch.setattr(homology, "smith_divisors", counting_divisors)
    argv, expected = _golden("verify_B3_all")
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    keys = [key for key, _ in built]
    # one exterior row per (B, t <= rank - |B|); constant and reversed rows are derived
    rows = sum(3 - bin(B).count("1") + 1 for B in range(1 << 3))
    assert rows == 20
    assert len(keys) == len(set(keys)) == len(homology._ROW_HOMOLOGY) == rows
    assert len(reduced) == sum(n for _, n in built)


def test_dumps_rebuild_rows_the_cache_already_holds(capsys, monkeypatch):
    import steinberg_ext.homology as homology

    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    for name in DUMP_CASES:
        argv, _ = _golden(name)
        code, out, _ = run_cli(capsys, *(a for a in argv if a != "--dump-complex"))
        assert code == 0 and "complexes" not in out
    cached = len(homology._ROW_HOMOLOGY)
    for name in DUMP_CASES:
        argv, expected = _golden(name)
        assert run_cli(capsys, *argv)[:2] == (0, expected), name
    assert len(homology._ROW_HOMOLOGY) == cached  # every dumped row was a hit


# ---------------------------------------------------------------------------
# input caps: exit 2 before any enumeration


def _refused_quickly(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "cap" in err and "internal contract violation" not in err


def test_all_pairs_over_the_cap_is_refused(capsys):
    import steinberg_ext.cli as cli

    _refused_quickly(capsys, "verify", "--type", "A9", "--ring", "Q", "--all-pairs")
    assert 4 ** 8 <= cli.MAX_PAIRS  # E8's 65,536 pairs stay under it


def test_zelevinsky_over_the_cap_is_refused(capsys):
    _refused_quickly(capsys, "zelevinsky", "--k", "30")
    code, out, _ = run_cli(capsys, "zelevinsky", "--k", "8")
    assert code == 0 and json.loads(out)["theta_roundtrip_ok"] is True


def test_rows_over_the_cap_are_refused(capsys):
    _refused_quickly(capsys, "cohomology", "--type", "A20", "--I", "", "--method",
                     "complex_built")
    # the t = 0 row over I u J = {} spans 2^16 subsets
    _refused_quickly(capsys, "ext-vi", "--type", "A16", "--I", "", "--J", "", "--method",
                     "complex_built")


def test_a_table_over_the_cap_is_refused_before_its_first_row(capsys, monkeypatch):
    """A11 over I = {}: the row t = 3 would hold C(11, 3) * 2^8 = 42,240 basis
    vectors, so not even the small rows t < 3 are built."""
    import concurrent.futures

    import steinberg_ext.extengine as extengine
    import steinberg_ext.homology as homology

    def refuse(*args, **kwargs):
        raise AssertionError("a row was built or a process started")

    monkeypatch.setattr(homology, "exterior_row_complex", refuse)
    monkeypatch.setattr(extengine, "exterior_row_complex", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    _refused_quickly(capsys, "cohomology", "--type", "A11", "--I", "", "--method",
                     "complex_built")


def _answered_quickly(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    return json.loads(out)


def test_rows_on_a_small_lattice_are_answered(capsys):
    """Rows stand on the lattice above B, not above the bottom the table is
    defined over: ext-vi rows over I u J = I (2 subsets, the constant rows of
    rank C(30, t) read off t = 0) and the one ext row over K = Delta."""
    A30_I = ",".join(map(str, range(1, 30)))
    out = _answered_quickly(capsys, "ext-vi", "--type", "A30", "--I", A30_I, "--J", "",
                            "--method", "both")
    assert out["table"] == {}  # I u J misses alpha_0: the closed form is zero
    for dump in ((), ("--dump-complex",)):
        out = _answered_quickly(capsys, "ext", "--type", "A20", "--I", "", "--J", "",
                                "--method", "both", *dump)
        assert out["table"] == {"0": {"rank": 1, "torsion": []}}
    # the printed row keeps the 20 zero degrees of the lattice above J = {}
    assert out["complexes"] == [{"ranks": [1] + [0] * 20, "differentials": [[]] * 20,
                                 "labels": [[f"L={{{','.join(map(str, range(20)))}}}#0"]]
                                 + [[]] * 20}]
    # a printed constant row of rank C(30, 4) is over the cap
    _refused_quickly(capsys, "ext-vi", "--type", "A30", "--I", A30_I, "--J", "",
                     "--method", "complex_built", "--dump-complex")
