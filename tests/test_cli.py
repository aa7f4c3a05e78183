import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
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


def test_verification_mismatch_exits_one(capsys, monkeypatch, fresh_caches):
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
    assert run_cli(capsys, "ext", "--type", "A2", "--ring", "q=3,d=5,d=7")[0] == 2
    for lone in (("--I", "0"), ("--J", "1")):  # a table needs both subsets
        assert run_cli(capsys, "zelevinsky", "--k", "4", *lone)[:2] == (2, "")


def test_verify_all_pairs_parses_the_subsets_it_is_given(capsys):
    """A sweep checks every pair, but a given --I or --J is parsed all the
    same: a malformed or out-of-range one exits 2, a valid one changes
    nothing."""
    sweep = ("verify", "--type", "A2", "--ring", "Q", "--all-pairs")
    for bad in (("--I", "7", "--J", "x"), ("--I", "x"), ("--J", "2"), ("--I", "0,5")):
        code, out, err = run_cli(capsys, *sweep, *bad)
        assert (code, out) == (2, "") and err.startswith("error: "), bad
    assert run_cli(capsys, *sweep, "--I", "0", "--J", "1") == run_cli(capsys, *sweep)


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
    # rows are encoded one at a time, into the bytes of one dump of the document
    assert out == json.dumps(data, sort_keys=True) + "\n"

    code, out, _ = run_cli(capsys, "dcosets", "--type", "A2", "--I", "0", "--J", "0",
                           "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length\tgamma_exp\tdelta_exp\tlevi\tsurviving"
    assert len(lines) == 3

    # B3 with I = J = {}: each of the 48 elements is a representative
    code, out, _ = run_cli(capsys, "dcosets", "--type", "B3", "--I", "", "--J", "")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest().startswith("5ac5951b")


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


def _tree(root):
    """Every path under ``root`` with its bytes, ``None`` for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


# the commands that take --cache-dir: a walk of X_J each, and a closed form
_CACHE_DIR_COMMANDS = {
    "dcosets": ("dcosets", "--type", "B3", "--I", "1", "--J", "0,2", "--ring", "q=3,d=1009"),
    "ext-induced-strata-zd": ("ext-induced", "--type", "B3", "--I", "", "--J", "0",
                              "--ring", "q=3,d=1009", "--method", "strata"),
    "ext-induced-closed-form": ("ext-induced", "--type", "B3", "--I", "", "--J", "",
                                "--ring", "Q"),
}


@pytest.mark.parametrize("given", ["empty-dir", "dir-holding-a-file", "file", "empty-string"])
@pytest.mark.parametrize("command", sorted(_CACHE_DIR_COMMANDS))
def test_cache_dir_is_accepted_and_opens_nothing(command, given, tmp_path, capsys,
                                                 monkeypatch):
    """``--cache-dir`` stays on ``dcosets`` and ``ext-induced`` because
    ``perfbench`` passes it (``test_the_benchmark_command_lines_parse``), and
    names nothing the command opens: given an empty directory, one holding a
    file, a regular file, or ``''`` from an empty working directory
    (``Path('')`` is ``.``), the command exits as it does without the option
    with the same bytes, and leaves what it was given byte for byte.  The
    closed form walks no group either way."""
    import steinberg_ext.weyl as weyl

    argv = _CACHE_DIR_COMMANDS[command]
    if command == "ext-induced-closed-form":
        monkeypatch.setattr(weyl, "_closure", _no_enumeration)
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.chdir(tmp_path)
    given_path = tmp_path / "weyl"
    if given == "file":
        given_path.write_bytes(bytes(range(256)))
    elif given != "empty-string":
        given_path.mkdir()
        if given == "dir-holding-a-file":
            (given_path / "weyl_B3.bin").write_bytes(bytes(range(256)))
    before = _tree(tmp_path)
    option = "" if given == "empty-string" else str(given_path)
    assert run_cli(capsys, *argv, "--cache-dir", option) == expected
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ("verify", "--type", "B3", "--all-pairs", "--strata", "on", "--ring", "q=3,d=1009"),
    ("verify", "--type", "A2", "--I", "0", "--J", "1", "--ring", "Q"),
])
def test_verify_takes_no_cache_dir(argv, tmp_path, capsys, fresh_caches):
    """``verify`` has no ``--cache-dir``: given one, over a directory that
    holds a file, it exits 2 with a usage error, prints nothing on stdout,
    and leaves the directory as it was."""
    path = tmp_path / "weyl_B3.bin"
    path.write_bytes(bytes(range(256)))
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "") and f"unrecognized arguments: --cache-dir {tmp_path}" in err
    assert _tree(tmp_path) == {"weyl_B3.bin": bytes(range(256))}


@pytest.mark.parametrize("argv", [
    ("dcosets", "--type", "B3", "--I", "0,1", "--J", "1,2", "--ring", "q=3,d=1009"),
    ("ext-induced", "--type", "B3", "--I", "0,1", "--J", "1,2", "--ring", "q=3,d=1009",
     "--method", "strata"),
])
def test_a_corrupted_group_is_refused_before_any_certificate(argv, capsys, monkeypatch):
    """The representatives stream to the certificates and rows, but the
    check that their cosets partition the group comes first: a walk of X_J
    with one representative dropped exits 1 with the contract violation,
    with no certificate computed and nothing on stdout."""
    import steinberg_ext.certificates as certificates
    import steinberg_ext.weyl as weyl
    from steinberg_ext.rootdata import build_root_system

    import oracles

    rs = build_root_system("B", 3)
    group = oracles.generate_weyl(rs)
    last = group.index(oracles.kostant_reps_by_filter(rs, 0b011, 0b110)[-1].w)
    corrupted = oracles.weyl_group(rs, group[:last] + group[last + 1:])
    certified = []
    certificate = certificates.vanishing_certificate

    def counting(*args):
        certified.append(args[1])
        return certificate(*args)

    monkeypatch.setattr(weyl, "_closure", oracles.walking(corrupted))
    monkeypatch.setattr(certificates, "vanishing_certificate", counting)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, certified) == (1, "", []) and "do not partition" in err


def test_cli_import_leaves_multiprocessing_out():
    # no command starts a process pool, so neither the import nor a verify
    # sweep pays the import of one
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, steinberg_ext.cli as cli; "
            "code = cli.parse_and_dispatch(['verify', '--type', 'A2', '--ring', 'Q', "
            "'--all-pairs']); print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout and proc.stdout.endswith("\n0 []\n")


# (argv, package modules the command must not load, modules it must load)
_TABLE_MODULES = {"certificates", "zelevinsky", "smith", "sweep"}  # none a table command runs
_COMMAND_MODULES = (
    (("check-ring", "--type", "A5"),
     {"homology", "extengine", "weyl", "strata", "tables", "zelevinsky", "sweep"}, set()),
    (("zelevinsky", "--k", "4", "--I", "0", "--J", "1,2"),
     {"homology", "extengine", "weyl", "strata", "sweep"}, {"tables", "zelevinsky"}),
    (("cohomology", "--type", "A3", "--I", "1", "--object", "induced"),
     {"homology", "extengine", "weyl", "strata", "zelevinsky", "sweep"}, {"tables"}),
    (("ext-induced", "--type", "A3", "--I", "1", "--J", "1"),
     {"homology", "extengine", "weyl", "strata", "zelevinsky", "sweep"}, {"tables"}),
    (("cohomology", "--type", "A3", "--I", "1", "--method", "both"),
     {"weyl", "strata"} | _TABLE_MODULES, {"homology"}),
    (("ext", "--type", "A3", "--I", "0", "--J", "1", "--method", "both"),
     {"weyl", "strata"} | _TABLE_MODULES, {"homology"}),
    (("ext-vi", "--type", "A3", "--I", "0", "--J", "1", "--method", "both"),
     {"weyl", "strata"} | _TABLE_MODULES, {"homology"}),
    (("verify", "--type", "A2", "--all-pairs", "--strata", "off"),
     {"weyl", "strata"} | _TABLE_MODULES - {"sweep"}, {"homology", "sweep"}),
    (("dcosets", "--type", "A2", "--I", "0", "--J", "1"), {"strata", "sweep"}, {"weyl"}),
    (("ext-induced", "--type", "A2", "--method", "strata"), {"strata", "sweep"}, {"weyl"}),
    (("verify", "--type", "A2", "--all-pairs"), {"zelevinsky", "smith"}, {"strata", "sweep"}),
    (("dcosets", "--type", "A2", "--I", "0", "--J", "1", "--ring", "q=3,d=1009"),
     {"homology", "extengine", "strata", "sweep"}, {"weyl", "certificates"}),
    (("ext-induced", "--type", "A2", "--method", "strata", "--ring", "q=3,d=1009"),
     {"homology", "extengine", "strata", "sweep"}, {"weyl", "certificates"}),
)


def _modules_loaded(argv) -> set[str]:
    """The package modules one ``python -m steinberg_ext`` process imports,
    read off ``-X importtime``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "steinberg_ext", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:"))
    return {name.split(".", 1)[1] for name in names if name.startswith("steinberg_ext.")}


def test_only_verify_compiles_the_class_checks():
    """Every command is one process that imports (and, without bytecode,
    compiles) only the modules it runs: the sweep loop and the per-class
    strata checks stay out of all but ``verify``, the Weyl group out of
    every command that reads no group, the complexes out of ``check-ring``
    and every command that prints only closed forms, and the certificates,
    the orientations and the dense Smith form out of every table command."""
    for argv, absent, present in _COMMAND_MODULES:
        loaded = _modules_loaded(argv)
        assert not loaded & absent and present <= loaded, (argv, sorted(loaded))


def test_a_single_pair_reads_its_representatives_not_the_classes(capsys, monkeypatch,
                                                                 fresh_caches):
    """A single pair goes through its representatives, which check the
    partition at t = 2^64, degree by degree; the descent classes count it at
    t = 1 only, so a sweep takes them for its speed and a single pair, whose
    check they would weaken, does not."""
    import steinberg_ext.strata as strata
    import steinberg_ext.weyl as weyl

    passes, asked = [], []
    classes_init, kostant = strata.DescentClasses.__init__, weyl.iter_kostant_reps

    def counting_init(self, rs, group, spec):
        passes.append(rs.rank)
        classes_init(self, rs, group, spec)

    def counting_kostant(rs, I, J, *rest):
        asked.append((I, J))
        return kostant(rs, I, J, *rest)

    monkeypatch.setattr(strata.DescentClasses, "__init__", counting_init)
    monkeypatch.setattr(weyl, "iter_kostant_reps", counting_kostant)
    base = ("verify", "--type", "B3", "--ring", "q=3,d=1009", "--strata", "on")
    code, out, _ = run_cli(capsys, *base, "--I", "0", "--J", "1,2")
    assert code == 0 and "PASS certificates I={0} J={1,2}" in out
    assert (passes, asked) == ([], [(0b001, 0b110)])
    assert run_cli(capsys, *base, "--all-pairs")[0] == 0
    assert (passes, asked) == ([3], [(0b001, 0b110)])


def test_verify_checks_the_ring_once_per_sweep(capsys, monkeypatch, fresh_caches):
    """The ring is parsed, so q factored, once per command, and checked once
    for the command's report and once for all its built tables, however many
    pairs it sweeps: at the largest q under the cap, an A4 sweep takes no
    longer than the pairs take."""
    import steinberg_ext.extengine as extengine
    import steinberg_ext.ringcond as ringcond

    checks, factorings = [], []
    bon_check, prime_power_base = ringcond.bon_check, ringcond._prime_power_base

    def counting_check(rs, spec):
        checks.append(spec)
        return bon_check(rs, spec)

    def counting_base(q):
        factorings.append(q)
        return prime_power_base(q)

    monkeypatch.setattr(ringcond, "bon_check", counting_check)
    monkeypatch.setattr(ringcond, "_prime_power_base", counting_base)
    for name, passed in (("B2", 36), ("B3", 136)):
        checks.clear()
        factorings.clear()
        extengine._ring_passes.cache_clear()
        code, out, _ = run_cli(capsys, "verify", "--type", name, "--ring", "q=3,d=1009",
                               "--all-pairs", "--strata", "off")
        assert code == 0 and f"{passed} passed, 0 failed" in out
        # one for verify's own ring report, one for every complex-built table
        assert (len(checks), factorings) == (2, [3]), name

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--type", "A4", "--all-pairs", "--strata", "off",
                           "--ring", "q=4294967291,d=1000003")
    assert time.perf_counter() - start < 1
    assert code == 0 and "528 passed, 0 failed" in out


def test_module_entrypoint_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "steinberg_ext", "ext", "--type", "A1", "--I", "0",
         "--J", "0", "--ring", "Q"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["table"] == {"0": {"rank": 1, "torsion": []}}


def _module_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_main_ends_through_system_exit_with_the_run_frozen():
    """``main`` freezes the objects the run made, so the collection at exit
    skips them, and still ends through ``SystemExit``: an atexit hook
    registered before it runs and sees them frozen, the exit codes are the
    dispatcher's, and a profiler around the module prints its stats."""
    hook = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
            "file=sys.stderr))\n"
            "from steinberg_ext.cli import main\n"
            "main()\n")
    proc = subprocess.run([sys.executable, "-c", hook, "check-ring", "--type", "A2"],
                          capture_output=True, text=True, env=_module_env())
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert json.loads(proc.stdout)["query"] == {"series": "A", "rank": 2, "ring": "Q"}
    for code, argv in ((0, ["check-ring", "--type", "A2"]),
                       (2, ["check-ring", "--type", "A2", "--format", "tsv"]),
                       (3, ["verify", "--type", "A1", "--ring", "q=3,d=2", "--all-pairs"])):
        proc = subprocess.run([sys.executable, "-m", "steinberg_ext", *argv],
                              capture_output=True, text=True, env=_module_env())
        assert proc.returncode == code, (argv, proc.stderr)
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "steinberg_ext",
                           "check-ring", "--type", "A2"],
                          capture_output=True, text=True, env=_module_env())
    assert proc.returncode == 0 and "function calls" in proc.stdout, proc.stderr


def test_a_closed_stdout_exits_141_and_prints_nothing_on_stderr():
    """A reader that takes one line and closes the pipe is no verification
    failure: the sweep exits 128 + SIGPIPE with no traceback.  The A6 sweep
    prints about 300 kB, more than a pipe holds, so a write meets the
    closed pipe."""
    proc = subprocess.Popen([sys.executable, "-m", "steinberg_ext", "verify", "--type", "A6",
                             "--ring", "Q", "--all-pairs", "--strata", "off"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    assert proc.stdout.readline() == b"PASS cohomology I={0,1,2,3,4,5}\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_negative_center_rank_is_a_usage_error(capsys):
    base = ["--type", "A2", "--ring", "Q", "--center-rank", "-1"]
    for argv in (["ext", *base, "--method", "both"],
                 ["cohomology", *base, "--object", "trivial"],
                 ["cohomology", *base, "--object", "v", "--I", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "center rank must be non-negative" in err
        assert "internal contract violation" not in err


def test_parallel_is_an_unknown_argument(capsys):
    # verify sweeps its pairs in one process; it has no worker count to take
    code, out, err = run_cli(capsys, "verify", "--type", "A1", "--ring", "Q",
                             "--all-pairs", "--parallel", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --parallel 2" in err


# The options of each subcommand, besides -h: each takes only what its
# handler reads.
CLI_OPTIONS = {
    "ext": {"--type", "--ring", "--I", "--J", "--format", "--dump-complex", "--method",
            "--center-rank"},
    "ext-induced": {"--type", "--ring", "--I", "--J", "--format", "--cache-dir", "--method"},
    "ext-vi": {"--type", "--ring", "--I", "--J", "--format", "--dump-complex", "--method"},
    "cohomology": {"--type", "--ring", "--I", "--format", "--dump-complex", "--object",
                   "--method", "--center-rank"},
    "dcosets": {"--type", "--ring", "--I", "--J", "--format", "--cache-dir"},
    "check-ring": {"--type", "--ring", "--assume-theta"},
    "verify": {"--type", "--ring", "--I", "--J", "--all-pairs", "--strata"},
    "zelevinsky": {"--k", "--I", "--J", "--ring", "--format"},
}
# the options every root-system subcommand used to take, read or not, with a value
_FORMERLY_COMMON = {"--format": ("json",), "--cache-dir": ("weyl",), "--assume-theta": (),
                "--dump-complex": ()}


def test_each_subcommand_takes_only_the_options_its_handler_reads():
    import argparse

    from steinberg_ext.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert {name: {option for action in parser._actions for option in action.option_strings}
            - {"-h", "--help"} for name, parser in sub.choices.items()} == CLI_OPTIONS


def test_an_option_a_handler_does_not_read_is_an_unknown_argument(capsys):
    removed = [(command, option) for command in CLI_OPTIONS if command != "zelevinsky"
               for option in _FORMERLY_COMMON if option not in CLI_OPTIONS[command]]
    assert len(removed) == 17
    for command, option in removed:
        given = (option, *_FORMERLY_COMMON[option])
        code, out, err = run_cli(capsys, command, "--type", "A1", *given)
        assert (code, out) == (2, ""), (command, option)
        assert f"unrecognized arguments: {' '.join(given)}" in err


def test_the_benchmark_command_lines_parse(monkeypatch):
    """Every command line of ``perfbench/workloads.py``, its setups and three
    seeds of each workload's ops, parses: a CLI change that turned one into
    a usage error (exit 2) would fail the benchmark's ops.  Its
    ``exceptional-queries`` passes ``--cache-dir`` to ``ext-induced`` and
    ``dcosets``, which is why they still take it."""
    from steinberg_ext.cli import build_parser

    path = SRC_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    parser, given_a_cache_dir = build_parser(), set()
    for name in workloads.WORKLOADS:
        ops = workloads.setup_ops(name, "weyl")
        for seed in range(3):
            ops += workloads.op_list(name, seed, "weyl")
        for op in ops:
            try:
                args = parser.parse_args(list(op.argv))
            except SystemExit:
                pytest.fail(f"{name}: {op.label()} is a usage error")
            if getattr(args, "cache_dir", None) is not None:
                given_a_cache_dir.add(args.command)
    assert given_a_cache_dir == {"ext-induced", "dcosets"}


# ---------------------------------------------------------------------------
# per-process row cache

DUMP_CASES = ("coh_A3_dump", "coh_G2_dump", "ext_A3_dump", "ext_B3_dump", "extvi_A3_dump",
              "extvi_G2_dump")


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name):
    case = json.loads((GOLDEN / "cases.json").read_text())[name]
    return case["argv"], (GOLDEN / f"{name}.out").read_text()


def test_verify_builds_and_reduces_each_distinct_row_once(capsys, monkeypatch, fresh_caches):
    import steinberg_ext.homology as homology

    built, reduced, multiplied = [], [], []
    builder, divisors = homology.exterior_row_complex, homology.smith_divisors
    product = homology.IntMatrix.mul

    def counting_builder(rs, bottom, t, **kwargs):
        row = builder(rs, bottom, t, **kwargs)
        built.append(((rs.rank, bottom, t, *sorted(kwargs.items())), len(row.differentials)))
        return row

    def counting_divisors(m):
        reduced.append(m)
        return divisors(m)

    def counting_product(a, b):
        multiplied.append((a, b))
        return product(a, b)

    monkeypatch.setattr(homology, "exterior_row_complex", counting_builder)
    monkeypatch.setattr(homology, "smith_divisors", counting_divisors)
    monkeypatch.setattr(homology.IntMatrix, "mul", counting_product)
    argv, expected = _golden("verify_B3_all")
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    keys = [key for key, _ in built]
    # one exterior row per shape (m = 3 - |B|, t <= m), built over the first
    # bottom that asks for it; constant and reversed rows are derived
    rows = sum(m + 1 for m in range(3 + 1))
    assert rows == 10
    assert len(keys) == len(set(keys)) == len(homology._ROW_HOMOLOGY) == rows
    shapes = {(3 - bottom.bit_count(), t) for _, bottom, t, *_ in keys}
    assert shapes == set(homology._ROW_HOMOLOGY)
    assert len(reduced) == sum(n for _, n in built)
    # and each built row passed its d d = 0 check, one product per pair of maps
    assert len(multiplied) == sum(max(n - 1, 0) for _, n in built)


def test_a_larger_sweep_builds_only_its_new_shapes(capsys, monkeypatch, fresh_caches):
    """Rows are kept by shape (m, t) across types and ranks: after an A3
    sweep in the process has built the 10 rows with m <= 3, an A4 sweep
    builds only the 5 rows with m = 4, over the bottom {}."""
    import steinberg_ext.homology as homology

    built = []
    builder = homology.exterior_row_complex

    def counting_builder(rs, bottom, t, **kwargs):
        built.append((rs.rank, bottom, t))
        return builder(rs, bottom, t, **kwargs)

    monkeypatch.setattr(homology, "exterior_row_complex", counting_builder)
    sweep = ("verify", "--ring", "Q", "--all-pairs", "--strata", "off")
    assert run_cli(capsys, *sweep, "--type", "A3")[0] == 0
    assert len(built) == len(homology._ROW_HOMOLOGY) == 10
    built.clear()
    code, out, _ = run_cli(capsys, *sweep, "--type", "A4")
    assert code == 0 and "528 passed, 0 failed" in out
    assert built == [(4, 0, t) for t in range(5)]
    assert len(homology._ROW_HOMOLOGY) == 15


def test_verify_sums_no_inversion_set_tries_each_unit_once_and_converts_each_row_once(
        capsys, monkeypatch, fresh_caches):
    """The B3 strata sweep sums no element's inversion set, since it reads
    no representative (``iter_kostant_reps`` is never called), and computes
    q^e - 1 and whether it is a unit once per e up to the largest
    coefficient of 2 rho, in the unit table of ``ringcond`` that the ring
    checks and the certificates share, per element and per pair never (bon
    alone certifies every stratum), and each distinct built table takes each
    of its rows over the ring once: 70 rows in all, 20 for the 10 ext tables
    (keyed by |K| and |J \\ I|) and 50 for the 20 ext-vi tables."""
    import steinberg_ext.extengine as eng
    import steinberg_ext.ringcond as ringcond
    import steinberg_ext.weyl as weyl
    from steinberg_ext.rootdata import build_root_system, max_rho_coefficient

    read, tried, over_ring = [], [], []
    reps = weyl.iter_kostant_reps
    coefficients = eng.homology_with_coefficients

    def counting_reps(rs, I, J, elements=None):
        read.append((I, J))
        return reps(rs, I, J, elements)

    class CountingTable(dict):
        def __setitem__(self, key, value):
            tried.append(key[2])  # the exponent of (d, q, e)
            super().__setitem__(key, value)

    def counting_coefficients(c, spec):
        over_ring.append(spec.d)
        return coefficients(c, spec)

    monkeypatch.setattr(weyl, "iter_kostant_reps", counting_reps)
    monkeypatch.setattr(ringcond, "_UNIT_VALUES", CountingTable())
    monkeypatch.setattr(eng, "homology_with_coefficients", counting_coefficients)
    argv, expected = _golden("verify_B3_all")  # over Q, strata on (auto, rank 3)
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    assert read == []
    assert tried == list(range(1, max_rho_coefficient(build_root_system("B", 3)) + 1))
    assert over_ring == [0] * 70


def test_dumps_rebuild_rows_the_cache_already_holds(capsys, fresh_caches):
    import steinberg_ext.homology as homology

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


def test_a_center_rank_over_the_cap_is_refused(capsys):
    """A center of rank c tensors a table with the binomials C(c, j): at 2000
    the ext table overflowed a tuple repeat, and at 20000 the trivial
    cohomology ran on for seconds.  Up to ``MAX_RANK`` = 32 it answers."""
    _refused_quickly(capsys, "ext", "--type", "A2", "--I", "0", "--J", "1",
                     "--center-rank", "2000", "--ring", "Q")
    _refused_quickly(capsys, "cohomology", "--type", "A2", "--object", "trivial",
                     "--center-rank", "20000", "--ring", "Q")
    for argv in (("ext", "--I", "0", "--J", "1"), ("cohomology", "--object", "trivial")):
        code, out, _ = run_cli(capsys, *argv, "--type", "A2", "--center-rank", "32",
                               "--ring", "Q", "--format", "tsv")
        assert code == 0 and "\t601080390\t-\n" in out  # C(32, 16)


def test_a_residue_order_over_the_cap_is_refused(capsys):
    """Every command parses its ring, and q is factored by trial division up
    to sqrt(q): q = 2^61 - 1 would take about 1.5e9 divisions.  The largest
    prime under 2^32 still parses."""
    from steinberg_ext.ringcond import RingSpec, parse_ring

    _refused_quickly(capsys, "check-ring", "--type", "A2", "--ring", "q=2305843009213693951,d=5")
    assert parse_ring("q=4294967291,d=5") == RingSpec(5, 4294967291)


def test_a_table_over_the_cap_is_refused_before_its_first_row(capsys, monkeypatch):
    """A11 over I = {}: the row t = 3 would hold C(11, 3) * 2^8 = 42,240 basis
    vectors, so not even the small rows t < 3 are built."""
    import steinberg_ext.extengine as extengine
    import steinberg_ext.homology as homology

    def refuse(*args, **kwargs):
        raise AssertionError("a row was built or a process started")

    monkeypatch.setattr(homology, "exterior_row_complex", refuse)
    monkeypatch.setattr(extengine, "exterior_row_complex", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
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


def test_a_dump_over_the_cap_is_refused_before_any_row(capsys, monkeypatch):
    """E7 ext-vi over I = J = {} would print 10,306,296 dense entries (31 MB);
    the cap is checked from the ranks alone, before any row is built."""
    import steinberg_ext.extengine as extengine
    import steinberg_ext.homology as homology

    def refuse(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(homology, "exterior_row_complex", refuse)
    monkeypatch.setattr(extengine, "exterior_row_complex", refuse)
    _refused_quickly(capsys, "ext-vi", "--type", "E7", "--I", "", "--J", "", "--method",
                     "complex_built", "--dump-complex")
    assert extengine._dense_entries(7, 7, 7) == 10306296 > extengine.DUMP_CAP


def test_a_tsv_table_asks_for_no_dump(capsys):
    """TSV prints no complexes, so ``--dump-complex`` asks for none under
    it: the E7 ext-vi table over I = J = {}, whose dump would be over the
    cap, prints its TSV rows with exit 0, the bytes it prints without the
    option."""
    argv = ("ext-vi", "--type", "E7", "--I", "", "--J", "", "--method", "complex_built",
            "--format", "tsv")
    dumped = run_cli(capsys, *argv, "--dump-complex")
    assert dumped[0] == 0 and dumped[1].startswith("degree\trank\ttorsion\n")
    assert dumped == run_cli(capsys, *argv)


def test_the_dump_bound_counts_the_printed_entries(capsys, monkeypatch):
    import steinberg_ext.extengine as extengine

    counted = []
    dense_entries = extengine._dense_entries

    def counting(*args):
        counted.append(dense_entries(*args))
        return counted[-1]

    monkeypatch.setattr(extengine, "_dense_entries", counting)
    for name in DUMP_CASES:
        argv, expected = _golden(name)
        counted.clear()
        assert run_cli(capsys, *argv)[:2] == (0, expected), name
        printed = sum(len(d) for c in json.loads(expected)["complexes"]
                      for d in c["differentials"])
        assert counted == [printed], name


def _no_enumeration(*args, **kwargs):
    raise AssertionError("a Weyl group was enumerated")


def test_groups_over_the_weyl_cap_are_refused_before_enumeration(tmp_path, capsys,
                                                                monkeypatch):
    import steinberg_ext.extengine as extengine
    import steinberg_ext.weyl as weyl

    def no_rows(*args, **kwargs):
        raise AssertionError("a cohomology row was taken")

    monkeypatch.setattr(weyl, "_walk", _no_enumeration)
    monkeypatch.setattr(extengine, "cohomology_v", no_rows)
    for t in ("E7", "E8"):
        # whatever J is, the walk of X_J is refused on the whole group's order
        _refused_quickly(capsys, "dcosets", "--type", t, "--I", "0", "--J", "1")
        _refused_quickly(capsys, "ext-induced", "--type", t, "--I", "0", "--J", "0,1,2,3",
                         "--ring", "Q", "--method", "strata", "--cache-dir", str(tmp_path))
        # a single pair is refused before any of its checks runs
        _refused_quickly(capsys, "verify", "--type", t, "--ring", "Q", "--I", "0", "--J", "1",
                         "--strata", "on")
        _refused_quickly(capsys, "verify", "--type", t, "--ring", "Q", "--all-pairs",
                         "--strata", "on")
    assert not list(tmp_path.iterdir())


def test_closed_form_ext_induced_builds_no_group(capsys, monkeypatch):
    import steinberg_ext.weyl as weyl

    monkeypatch.setattr(weyl, "_closure", _no_enumeration)
    for t, rank in (("E7", 7), ("E8", 8)):
        out = _answered_quickly(capsys, "ext-induced", "--type", t, "--I", "0", "--J", "0",
                                "--ring", "Q")
        assert out["method"] == "closed_form" and len(out["table"]) == rank


def test_a_rank_over_the_cap_is_refused_before_any_root(capsys, monkeypatch):
    import steinberg_ext.rootdata as rootdata

    def no_roots(*args, **kwargs):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(rootdata, "_positive_closure", no_roots)
    for t in ("A1000", "A33", "D120"):
        _refused_quickly(capsys, "ext", "--type", t, "--I", "0", "--J", "1", "--ring", "Q")
    assert rootdata.parse_type("A32") == ("A", 32)


# ---------------------------------------------------------------------------
# verify pays per class and per distinct table

# sha256 of the stdout of verify --all-pairs, pinned from the per-representative
# and per-pair implementation
PINNED_SWEEPS = {
    ("D4", "q=3,d=1009", "on"): "3929917d6680ed91b831bff5ab032e5d89174854df8f38863139ab72814e88aa",
    ("B4", "q=3,d=1009", "on"): "f78312b99bfed4a1ead59dfd41085383843bf821102b4d65c380d5ad096574a0",
    ("A5", "Q", "off"): "97fceb9ef26f3240b09190febad0ae9a395f6e7a81f70a2fee187a65b7ff897e",
    ("B5", "Q", "off"): "e7b1985209f1da6ef2f9ebf559e7db48185fbef49912c6096d4460b0f2c474d7",
    ("E6", "q=3,d=1000003", "on"):
        "ba46536f89c8fc40881efb5b05499562c1c7b28a95c1d8cbecbcdc2a8c42c088",
}


def test_each_pair_alone_prints_its_lines_of_the_sweep(capsys):
    """One loop serves a sweep and a single pair: each pair checked alone,
    through its representatives, prints the lines the sweep, which reads the
    descent classes, prints for it."""
    from steinberg_ext.rootdata import mask_indices

    base = ("verify", "--type", "B2", "--ring", "q=3,d=1009", "--strata", "on")
    code, out, _ = run_cli(capsys, *base, "--all-pairs")
    assert code == 0
    sweep = set(out.splitlines()[:-1])
    for I in range(4):
        for J in range(4):
            code, out, _ = run_cli(capsys, *base, "--I", ",".join(map(str, mask_indices(I))),
                                   "--J", ",".join(map(str, mask_indices(J))))
            lines = out.splitlines()[:-1]
            assert code == 0 and len(lines) == 4 + len({I, J}), (I, J)
            assert set(lines) <= sweep, (I, J)


def test_verify_sweep_bytes_are_pinned(capsys):
    for (name, ring, strata), digest in PINNED_SWEEPS.items():
        args = ("verify", "--type", name, "--ring", ring, "--all-pairs", "--strata", strata)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_a_sweep_holds_no_group_and_a_failing_pair_walks_its_own_x_j(capsys, monkeypatch,
                                                                    fresh_caches):
    """A D4 strata sweep reads its classes off one whole walk and asks for no
    representative: it prints its pinned bytes.  With every class check
    failing, every pair reruns through its representatives, each read off a
    walk of its own X_J, and prints the same bytes."""
    import steinberg_ext.weyl as weyl
    from steinberg_ext.strata import DescentClasses

    argv = ("verify", "--type", "D4", "--ring", "q=3,d=1009", "--all-pairs", "--strata", "on")
    digest = PINNED_SWEEPS[("D4", "q=3,d=1009", "on")]
    closure, walks = weyl._closure, []

    def counting(rs, J=0):
        walks.append(J)
        return closure(rs, J)

    monkeypatch.setattr(weyl, "_closure", counting)
    monkeypatch.setattr(weyl, "iter_kostant_reps", _no_enumeration)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    assert walks == [0]
    monkeypatch.undo()
    monkeypatch.setattr(weyl, "_closure", counting)
    monkeypatch.setattr(DescentClasses, "covers", lambda self, I, J: False)
    walks.clear()
    assert run_cli(capsys, *argv)[:2] == (0, out)
    assert walks == [0] + [J for J in range(16) for I in range(16)]


def test_a_contract_violation_in_verify_exits_one_and_prints_nothing(capsys, monkeypatch):
    import steinberg_ext.extengine as eng
    from steinberg_ext.errors import ContractError

    def broken(rs, I):
        raise ContractError("stand-in failure")

    monkeypatch.setattr(eng, "cohomology_rows_exact", broken)
    code, out, err = run_cli(capsys, "verify", "--type", "A2", "--ring", "Q", "--all-pairs")
    assert (code, out) == (1, "") and "stand-in failure" in err


B3_INJECTED = "f9a76fbe336cf5183ce0e6eeb49d12b53d3a1a3251d1bacbd69fa118348877d6"


def test_failures_injected_mid_sweep_print_in_sorted_order(capsys, monkeypatch, fresh_caches):
    """A B3 strata sweep over q=3,d=1009 with failures injected mid-sweep: a
    closed form that disagrees for two pairs (FAIL lines with the engine's
    text), a cohomology row that is not exact for one subset (a FAIL line with
    no detail), and one pair whose classes do not cover and whose
    representatives disagree with the closed form (its strata and
    certificates lines both FAIL with the representatives' text).  The FAIL
    lines come first, every line in sorted order, and the bytes are those of
    the sweep that held and sorted all its lines."""
    import steinberg_ext.certificates as certificates
    import steinberg_ext.extengine as eng
    from steinberg_ext.rootdata import build_root_system
    from steinberg_ext.strata import DescentClasses

    steinberg_closed, induced_closed = eng.ext_steinberg_closed, certificates.ext_induced_closed
    rows_exact, covers = eng.cohomology_rows_exact, DescentClasses.covers
    disagree, uncovered = {(0b011, 0b100), (0b101, 0b110)}, (0b011, 0b001)
    assert all(steinberg_closed(build_root_system("B", 3), I, J).entries for I, J in disagree)
    monkeypatch.setattr(eng, "ext_steinberg_closed", lambda rs, I, J, *rest: (
        ExtTable({}) if (I, J) in disagree else steinberg_closed(rs, I, J, *rest)))
    monkeypatch.setattr(eng, "cohomology_rows_exact",
                        lambda rs, I: I != 0b110 and rows_exact(rs, I))
    monkeypatch.setattr(DescentClasses, "covers",
                        lambda self, I, J: (I, J) != uncovered and covers(self, I, J))
    monkeypatch.setattr(certificates, "ext_induced_closed", lambda rs, I, J, spec: (
        ExtTable({}) if (I, J) == uncovered else induced_closed(rs, I, J, spec)))
    code, out, _ = run_cli(capsys, "verify", "--type", "B3", "--ring", "q=3,d=1009",
                           "--all-pairs", "--strata", "on")
    lines = out.splitlines()
    assert code == 1 and hashlib.sha256(out.encode()).hexdigest() == B3_INJECTED
    assert lines[-1] == "checked 264 assertions for B3 over q=3,d=1009: 259 passed, 5 failed"
    assert lines[:-1] == sorted(lines[:-1])
    assert [line[:4] for line in lines[:6]] == ["FAIL"] * 5 + ["PASS"]
    assert "FAIL cohomology I={1,2}" in lines and "FAIL strata I={0,1} J={0} (strata path" in out


def test_a_sweep_that_raises_after_half_its_pairs_prints_nothing(capsys, monkeypatch,
                                                                 fresh_caches):
    """A contract violation raised after half a sweep's pairs have been
    checked exits 1, with its message on stderr and nothing on stdout."""
    import steinberg_ext.extengine as eng
    from steinberg_ext.errors import ContractError

    ext_steinberg, calls = eng.ext_steinberg, []

    def half(rs, I, J, *rest):
        calls.append((I, J))
        if len(calls) > 32:
            raise ContractError("stand-in failure after half the pairs")
        return ext_steinberg(rs, I, J, *rest)

    monkeypatch.setattr(eng, "ext_steinberg", half)
    code, out, err = run_cli(capsys, "verify", "--type", "B3", "--ring", "q=3,d=1009",
                             "--all-pairs", "--strata", "on")
    assert (code, out, len(calls)) == (1, "", 33) and "stand-in failure" in err


def test_verify_builds_each_distinct_table_once(capsys, monkeypatch, fresh_caches):
    """A5 over Q: 1,024 pairs ask for 2,048 built tables and 32 cohomology
    tables, but an ext table depends only on (|K|, |J \\ I|), an ext-vi
    table on (|I u J|, |J|, |J \\ I|), and a cohomology table is the ext
    table of |K| = |I| with no shift.  The zeros a printed ext row ends with,
    |K \\ J|, change no entry, so they split no table.  The 77 tables read
    21 rows, one per shape (m, t), and take the ring's verdict once each;
    every one of the 2,080 checks still compares its table with its own
    closed form."""
    import steinberg_ext.extengine as eng
    import steinberg_ext.homology as homology
    from steinberg_ext.tables import ExtTable

    built, verdicts, compared = [], [], []
    build_rows, ring_passes = eng._build_rows, eng._ring_passes
    same_modules = ExtTable.same_modules

    def counting(rs, spec, B, span, shift, zeros, *rest):
        built.append(("ext", B.bit_count(), shift) if span is None
                     else ("ext-vi", B.bit_count(), span.bit_count(), shift))
        return build_rows(rs, spec, B, span, shift, zeros, *rest)

    def counting_verdict(*args):
        verdicts.append(args)
        return ring_passes(*args)

    def comparing(self, other):
        compared.append(other)
        return same_modules(self, other)

    closed_made = []
    for name in ("ext_steinberg_closed", "ext_v_to_induced_closed"):
        def closed(*args, closed_of=getattr(eng, name)):
            closed_made.append(closed_of(*args))
            return closed_made[-1]
        monkeypatch.setattr(eng, name, closed)
    monkeypatch.setattr(eng, "_build_rows", counting)
    monkeypatch.setattr(eng, "_ring_passes", counting_verdict)
    monkeypatch.setattr(ExtTable, "same_modules", comparing)
    code, _, _ = run_cli(capsys, "verify", "--type", "A5", "--ring", "Q", "--all-pairs",
                         "--strata", "off")
    assert code == 0
    full, size = 0b11111, int.bit_count
    ext = {("ext", size((full & ~I) | J), size(J & ~I)) for I in range(32) for J in range(32)}
    vi = {("ext-vi", size(I | J), size(J), size(J & ~I)) for I in range(32) for J in range(32)}
    cohomology = {("ext", size(I), 0) for I in range(32)}
    assert (len(ext), len(vi)) == (21, 56) and cohomology <= ext
    assert len(built) == len(set(built)) == len(ext | vi) == len(verdicts) == 77
    assert len(homology._ROW_HOMOLOGY) == sum(m + 1 for m in range(5 + 1)) == 21
    # each pair's two closed forms, each compared once; then one per cohomology table
    assert len(closed_made) == 2 * 1024 and len(compared) == 2048 + 32
    assert all(a is b for a, b in zip(closed_made, compared[32:]))


def test_verify_makes_each_closed_form_once_per_check(capsys, monkeypatch):
    """B3 over Q: each of the 64 pairs makes its ext and its ext-vi closed
    form once, for the built table's check, whose verdict the PASS line
    prints."""
    import steinberg_ext.extengine as eng
    import steinberg_ext.tables as tables

    made = Counter()

    def counting(name, closed_of):
        def closed(rs, I, J, *rest):
            made[name, I, J] += 1
            return closed_of(rs, I, J, *rest)
        return closed

    for name in ("ext_steinberg_closed", "ext_v_to_induced_closed"):
        stand_in = counting(name, getattr(tables, name))
        for module in (tables, eng):
            monkeypatch.setattr(module, name, stand_in)
    code, out, _ = run_cli(capsys, "verify", "--type", "B3", "--ring", "Q", "--all-pairs",
                           "--strata", "off")
    assert code == 0 and "136 passed, 0 failed" in out
    assert len(made) == 2 * 64 and set(made.values()) == {1}


def test_an_uncertified_element_fails_verify_as_the_representatives_do(capsys, monkeypatch,
                                                                       fresh_caches):
    """A stand-in unit table in which q^e - 1 is no unit for one exponent e
    that is the only one at the right descents of exactly one element of
    W(B3).  The table is shared, so the ring would now fail bon at e; the
    command's own ring report is stubbed with the real one, which passes, so
    that the sweep runs.  The classes, which read bon, do not answer, so the
    sweep reruns its pairs through the representatives, and exit code and
    stderr are those of the per-rep path."""
    import steinberg_ext.cli as cli
    import steinberg_ext.ringcond as ringcond
    from steinberg_ext.rootdata import build_root_system
    from steinberg_ext.strata import DescentClasses

    from oracles import _inversion_sum, generate_weyl

    rs = build_root_system("B", 3)
    only = Counter()
    for w in generate_weyl(rs)[1:]:
        gamma = _inversion_sum(rs, w.signed_images)
        exponents = {gamma[b] for b in range(rs.rank) if w.signed_images[b] < 0}
        if len(exponents) == 1:
            only[exponents.pop()] += 1
    e = min(e for e, count in only.items() if count == 1)
    report = ringcond.check_ring(rs, ringcond.RingSpec(1009, 3))
    assert report.ok
    monkeypatch.setattr(cli, "check_ring", lambda *args, **kwargs: report)
    monkeypatch.setattr(ringcond, "_UNIT_VALUES", {(1009, 3, e): ((3 ** e - 1) % 1009, False)})
    argv = ("verify", "--type", "B3", "--ring", "q=3,d=1009", "--all-pairs", "--strata", "on")
    by_class = run_cli(capsys, *argv)
    monkeypatch.setattr(DescentClasses, "covers", lambda self, I, J: False)
    by_rep = run_cli(capsys, *argv)
    assert by_class == by_rep
    assert by_class[:2] == (3, "") and "has no unit" in by_class[2]


def _b3_breaking(invariant):
    """W(B3) with one invariant of a Weyl group that
    ``DescentClasses.answers`` folds in broken, and every other one kept."""
    import oracles

    from steinberg_ext.rootdata import build_root_system, support_mask
    from steinberg_ext.weyl import WeylElement

    rs = build_root_system("B", 3)
    group = oracles.generate_weyl(rs)
    elements, masks = list(group), oracles.masks(group)
    p = 1  # a simple reflection s_b, with left and right mask {b}
    b = (masks[p] & 0xFF).bit_length() - 1
    images = list(elements[p].signed_images)
    if invariant == "size":  # w0 dropped
        del elements[-1], masks[-1]
    elif invariant == "identity alone at length 0":
        elements[p] = elements[p]._replace(length=0)
    elif invariant == "identity mask":  # a left descent the identity's images do not have
        masks[0] |= 1 << 8
    elif invariant == "a right descent":  # s_b fixes alpha_b, and its mask agrees
        images[b] = -images[b]
        elements[p] = WeylElement(tuple(images), 1)
        masks[p] &= ~(1 << b)
    else:  # "levi guard": some w(alpha_c) non-simple, its support cleared on the left
        p, c = next((p, c) for p, w in enumerate(elements) for c in range(rs.rank)
                    if w.signed_images[c] > rs.rank)
        masks[p] &= ~(support_mask(rs.positive_roots[elements[p].signed_images[c] - 1]) << 8)
    return rs, group, oracles.weyl_group(rs, elements, masks)


@pytest.mark.parametrize("invariant", ["size", "identity alone at length 0", "identity mask",
                                       "a right descent", "levi guard"])
def test_a_group_breaking_one_invariant_reruns_every_pair(invariant, capsys, monkeypatch,
                                                          fresh_caches):
    """The classes of a group that breaks any one invariant do not answer,
    and the sweep prints, exits and says on stderr what it does with every
    pair rerun through the representatives.  The group is the walk's, so the
    class pass reads it, and so does each rerun, through its X_J."""
    import oracles

    import steinberg_ext.weyl as weyl
    from steinberg_ext.ringcond import RingSpec
    from steinberg_ext.strata import DescentClasses

    rs, group, corrupted = _b3_breaking(invariant)
    spec = RingSpec(1009, 3)
    assert DescentClasses(rs, oracles.blocks(group), spec).answers
    assert not DescentClasses(rs, oracles.blocks(corrupted), spec).answers
    # in blocks of 5 elements, as a walk yields blocks, so the classes carry
    # each verdict from block to block
    monkeypatch.setattr(weyl, "_closure", oracles.walking(corrupted, 5))
    built, classes_init = [], DescentClasses.__init__

    def watching_init(self, *args):
        classes_init(self, *args)
        built.append(self)

    monkeypatch.setattr(DescentClasses, "__init__", watching_init)
    argv = ("verify", "--type", "B3", "--ring", "q=3,d=1009", "--all-pairs", "--strata", "on")
    by_class = run_cli(capsys, *argv)
    assert [classes.answers for classes in built] == [False]
    monkeypatch.setattr(DescentClasses, "covers", lambda self, I, J: False)
    assert by_class == run_cli(capsys, *argv)


def test_a_sweep_counts_one_j_at_a_time(capsys, monkeypatch, fresh_caches):
    """A D4 strata sweep takes J in the outer loop: it counts each J once,
    16 counts in all, and drops the last J's counts before it makes the
    next J's, so the classes never hold two."""
    import steinberg_ext.strata as strata

    made, owners = [], []
    classes_init = strata.DescentClasses.__init__

    class Watched(Counter):
        def __init__(self, keys):
            J, counts = owners[-1]._counts  # what the classes hold as a count starts
            made.append(J)
            assert counts == {}, J
            super().__init__(keys)

    def watching_init(self, rs, blocks, spec):
        classes_init(self, rs, blocks, spec)
        owners.append(self)

    monkeypatch.setattr(strata.DescentClasses, "__init__", watching_init)
    monkeypatch.setattr(strata, "Counter", Watched)
    code, out, _ = run_cli(capsys, "verify", "--type", "D4", "--ring", "q=3,d=1009",
                           "--all-pairs", "--strata", "on")
    assert code == 0 and "0 failed" in out
    assert len(owners) == 1 and made == list(range(16))


def test_verify_compares_each_check_once(capsys, monkeypatch):
    """The engine compares each built table and each strata table with its
    closed form, and verify prints that verdict without comparing again: a
    B3 sweep compares 8 cohomology tables and 2 tables a pair, and the strata
    one more a pair."""
    compared = []
    same_modules = ExtTable.same_modules

    def counting(self, other):
        compared.append(1)
        return same_modules(self, other)

    monkeypatch.setattr(ExtTable, "same_modules", counting)
    for ring, strata, passed in (("Q", "off", 136), ("q=3,d=1009", "on", 264)):
        compared.clear()
        code, out, _ = run_cli(capsys, "verify", "--type", "B3", "--ring", ring, "--all-pairs",
                               "--strata", strata)
        assert code == 0 and f"{passed} passed, 0 failed" in out
        assert len(compared) == 8 + 64 * (2 if strata == "off" else 3)


def test_a_strata_disagreement_fails_its_pair_and_the_sweep_goes_on(capsys, monkeypatch,
                                                                   fresh_caches):
    """A stand-in closed form that disagrees with the strata on one pair of
    B2: that pair prints both its strata lines as FAIL, with the engine's
    message, and every other line is printed as without the stand-in."""
    import steinberg_ext.certificates as certificates
    import steinberg_ext.strata as strata

    argv = ("verify", "--type", "B2", "--ring", "q=3,d=1009", "--strata", "on")
    code, honest, _ = run_cli(capsys, *argv, "--all-pairs")
    assert code == 0
    closed_form = strata.ext_induced_closed

    def disagreeing(rs, I, J, spec):
        table = closed_form(rs, I, J, spec)
        return ExtTable({9: ModulePiece(1)}) if (I, J) == (0b01, 0b10) else table

    for module in (strata, certificates):
        monkeypatch.setattr(module, "ext_induced_closed", disagreeing)
    code, out, err = run_cli(capsys, *argv, "--all-pairs")
    assert (code, err) == (1, "")
    lines, kept = out.splitlines(), honest.splitlines()
    failing = ["certificates I={0} J={1}", "strata I={0} J={1}"]
    failed = [line for line in lines if line.startswith("FAIL")]
    assert [line.split(" (")[0] for line in failed] == [f"FAIL {c}" for c in failing]
    assert all("strata path disagrees with the closed form" in line for line in failed)
    assert [line for line in lines if line not in failed] == [
        line for line in kept if line not in {f"PASS {c}" for c in failing}][:-1] + [
        kept[-1].replace("68 passed, 0 failed", "66 passed, 2 failed")]
    # a single pair, checked through its representatives, fails the same way
    code, out, _ = run_cli(capsys, *argv, "--I", "0", "--J", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == failed
