import importlib.util
import json
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sweep_digests.py"
_spec = importlib.util.spec_from_file_location("sweep_digests", _PATH)
sweep_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_digests)

A2_Q = "ed54a0a803d4471800ce55e00a610ce8d8d08f372621aabd133f93c224693174"
A2_STRATA = "be984913a320184f3fbe5a2e1d63c1e537ceeb48c28a593f3f13212f2175e981"


def test_the_driver_fails_a_changed_byte(capsys):
    """The recorded-sweep driver passes an A2 sweep over Q against its
    digest, and fails it against the digest with one character changed."""
    flipped = A2_Q[:-1] + ("0" if A2_Q[-1] != "0" else "1")
    start = time.perf_counter()
    for digest, code in ((A2_Q, 0), (flipped, 1)):
        runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", digest)}
        assert sweep_digests.main([], runs) == code
        out, err = capsys.readouterr()
        assert out.splitlines()[1].startswith("A2-Q\tok\t" if code == 0 else "A2-Q\tFAIL")
        assert (A2_Q in out) == bool(code) and (digest in err) == bool(code)
    assert time.perf_counter() - start < 2
    assert sweep_digests.main(["no-such-sweep"]) == 2
    assert list(sweep_digests.RUNS) == ["E7-Q", "E8-Q", "B4-Q", "F4-Q", "A5-Q", "B5-Q",
                                        "E6-Q", "E7-zd", "E8-zd", "D7-strata", "B7-strata",
                                        "A8-strata", "E6-strata", "F4-strata",
                                        "B4-strata-zd", "D4-strata-zd", "E6-dcosets",
                                        "E6-ext-induced", "D7-dcosets", "D7-ext-induced",
                                        "E6-dcosets-small", "E6-ext-induced-small",
                                        "A8-ext-induced", "E7-cohomology-dump",
                                        "E8-ext-center"]
    from test_cli import PINNED_SWEEPS  # the benchmark's strata sweeps, pinned in tier-1

    for name in ("B4", "D4"):
        key = (name, "q=3,d=1009", "on")
        assert sweep_digests.RUNS[f"{name}-strata-zd"] == sweep_digests.sweep(
            *key, PINNED_SWEEPS[key])


def test_every_round_must_match(capsys, monkeypatch):
    """With ``--rounds 2`` the driver runs the A2 sweep twice, one process at
    a time, and prints the median wall time and peak of the two; a run whose
    second round prints other bytes fails, though its first matched."""
    runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", A2_Q)}
    rounds, run = [], sweep_digests.run

    def counted(entry):
        rounds.append(run(entry))
        return rounds[-1]

    monkeypatch.setattr(sweep_digests, "run", counted)
    assert sweep_digests.main(["--rounds", "2"], runs) == 0
    out, err = capsys.readouterr()
    name, verdict, wall, peak, digest = out.splitlines()[1].split("\t")
    assert (name, verdict, digest, len(rounds)) == ("A2-Q", "ok", A2_Q[:16], 2)
    assert float(wall) == round((rounds[0].wall_s + rounds[1].wall_s) / 2, 2)
    assert float(peak) == round((rounds[0].peak_mb + rounds[1].peak_mb) / 2, 1)
    assert err.count("A2-Q\tround ") == 2

    changed = iter([rounds[0], rounds[1]._replace(digest="0" * 64)])
    monkeypatch.setattr(sweep_digests, "run", lambda entry: next(changed))
    assert sweep_digests.main(["--rounds", "2", "A2-Q"], runs) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].startswith("A2-Q\tFAIL (exit 0)\t") and "0" * 64 in out
    assert A2_Q in err


def test_against_a_checkout_writes_each_side_to_json(tmp_path, capsys):
    """``--against`` this checkout, with ``--rounds 1`` and ``--json``: an A2
    sweep over Q and an A2 strata sweep run once from each side.  The JSON
    holds each side's median and quartiles of wall time and peak, and says
    that only the sides of one run are paired; a changed digest fails its
    run, which is then not timed."""
    checkout = _PATH.parent.parent
    runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", A2_Q),
            "A2-strata": sweep_digests.sweep("A2", "q=3,d=1009", "on", A2_STRATA)}
    path = tmp_path / "bench.json"
    argv = ["--rounds", "1", "--against", str(checkout), "--json", str(path)]
    assert sweep_digests.main(argv, runs) == 0
    out, _ = capsys.readouterr()
    assert [line.split("\t")[:2] for line in out.splitlines()] == [
        ["run", "verdict"], ["A2-Q", "ok"], ["A2-strata", "ok"]]
    assert all(len(line.split("\t")) == 7 for line in out.splitlines())
    report = json.loads(path.read_text())
    assert set(report) == {"python", "cpu_count", "bytecode", "pycache", "against", "paired",
                           "runs"}
    assert report["pycache"] == sweep_digests.PYCACHE_POLICY
    assert report["paired"].startswith("only the two sides of one run")
    assert report["against"] == checkout.name and list(report["runs"]) == list(runs)
    for name, record in report["runs"].items():
        assert set(record) == {"argv", "rounds", "ok", "this", "against", "wins"}, name
        assert record["argv"] == list(runs[name].args)
        assert record["rounds"] == 1 and record["ok"] and record["wins"] in (0, 1)
        for side in ("this", "against"):
            assert set(record[side]) == {"wall_s", "peak_mb"}
            for metric in ("wall_s", "peak_mb"):
                spread = record[side][metric]
                assert list(spread) == ["q1", "median", "q3"]
                assert spread["q1"] == spread["median"] == spread["q3"] > 0

    flipped = A2_STRATA[:-1] + ("0" if A2_STRATA[-1] != "0" else "1")
    runs["A2-strata"] = runs["A2-strata"]._replace(digest=flipped)
    assert sweep_digests.main([*argv, "A2-strata"], runs) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split("\t") == ["A2-strata", "FAIL (exit 0)", "-", "-",
                                                A2_STRATA, "-", "-"]
    assert flipped in err
    assert json.loads(path.read_text())["runs"] == {"A2-strata": {
        "argv": list(runs["A2-strata"].args), "rounds": 1, "ok": False}}


def test_each_side_reads_bytecode_from_a_prefix_of_its_own(capsys, monkeypatch):
    """``--against`` this checkout, with ``PYTHONDONTWRITEBYTECODE`` set: the
    children of the two sides run with two distinct ``PYTHONPYCACHEPREFIX``
    directories, neither under either side's ``src``, each holding the
    package's bytecode before the side's first round; both are gone when
    ``main`` returns."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkout = _PATH.parent.parent
    compiled, run = {}, sweep_digests.run

    def recorded(entry):
        compiled.setdefault(entry.pycache, {p.name.split(".")[0]
                                            for p in entry.pycache.rglob("*.pyc")})
        return run(entry)

    monkeypatch.setattr(sweep_digests, "run", recorded)
    runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", A2_Q)}
    assert sweep_digests.main(["--rounds", "2", "--against", str(checkout)], runs) == 0
    capsys.readouterr()
    assert len(compiled) == 2
    for prefix, modules in compiled.items():
        assert not any(prefix.is_relative_to(src) for src in (sweep_digests.SRC,
                                                               checkout / "src")), prefix
        assert {"cli", "weyl", "argparse", "locale"} <= modules
        assert not prefix.exists()


def test_against_a_checkout_without_the_package_exits_2_before_any_round(tmp_path, capsys,
                                                                         monkeypatch):
    """With this checkout's ``src`` on the caller's ``PYTHONPATH``, a DIR
    whose ``src`` is missing, or holds no package, would have this checkout
    imported on both sides; the driver exits 2 naming the side, before any
    round and before it writes the JSON."""
    monkeypatch.setenv("PYTHONPATH", str(sweep_digests.SRC))
    monkeypatch.setattr(sweep_digests, "run",
                        lambda entry: pytest.fail("a round ran"))
    runs = {"A2-Q": sweep_digests.sweep("A2", "Q", "off", A2_Q)}
    path = tmp_path / "bench.json"
    for against in (tmp_path / "no-such-checkout", tmp_path):
        if against == tmp_path:
            (tmp_path / "src").mkdir()
        argv = ["--rounds", "2", "--against", str(against), "--json", str(path)]
        assert sweep_digests.main(argv, runs) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"against: {against / 'src'} does not provide")
        assert str(sweep_digests.SRC / "steinberg_ext") in err
    assert not path.exists()
