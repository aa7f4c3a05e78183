"""Replay the frozen CLI corpus: stdout bytes and exit codes must not change.

``golden/cases.json`` maps each case name to its argv and exit code, and
``golden/<name>.out`` holds the stdout bytes recorded for it.  A case that
differs is a behaviour change and has to be made on purpose.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinberg_ext.weyl as weyl
from steinberg_ext.cli import parse_and_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
SRC = Path(__file__).resolve().parent.parent / "src"

# one case per subcommand in the corpus, replayed as its own process
ENTRY_POINT_CASES = {
    "cohomology": "coh_G2_dump",
    "dcosets": "dcosets_B3_json_zd",
    "ext": "ext_B3_center",
    "ext-induced": "extind_F4_strata_zd",
    "ext-vi": "extvi_B3_zd_tsv",
    "verify": "verify_G2_strata",
}


# the cases that read a pair's representatives off a walk of X_J of their J
GROUP_CASES = sorted(name for name, case in CASES.items()
                     if case["argv"][0] == "dcosets"
                     or "strata" in case["argv"] and case["argv"][0] == "ext-induced")


def _replay(name, monkeypatch, capsys, *extra):
    """Run case ``name`` with ``extra`` appended to its argv: its exit code
    and stdout bytes must be the golden ones, and a case in ``GROUP_CASES``
    must walk X_J of its own J, once."""
    case, walks, closure = CASES[name], [], weyl._closure

    def counting(rs, J=0):
        walks.append(J)
        return closure(rs, J)

    monkeypatch.setattr(weyl, "_closure", counting)
    code = parse_and_dispatch([*case["argv"], *extra])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    if name in GROUP_CASES:
        J = case["argv"][case["argv"].index("--J") + 1]
        assert walks == [sum(1 << int(j) for j in J.split(",") if j)], walks


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name, capsys, monkeypatch):
    _replay(name, monkeypatch, capsys)


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("weyl")


@pytest.mark.parametrize("name", GROUP_CASES)
def test_golden_replay_through_a_cold_then_a_warm_cache(name, shared_cache_dir, capsys,
                                                        monkeypatch):
    """Each case that walks a group, once more with one ``--cache-dir``
    shared by all of them (the name is from when the option read a cache).
    The option is accepted and opens nothing, so every run is cold: the
    golden bytes, one walk of X_J, and the directory stays empty."""
    _replay(name, monkeypatch, capsys, "--cache-dir", str(shared_cache_dir))
    assert not list(shared_cache_dir.iterdir())


def test_every_subcommand_is_replayed_through_the_entry_point():
    assert {case["argv"][0] for case in CASES.values()} == set(ENTRY_POINT_CASES)
    assert all(CASES[name]["argv"][0] == command
               for command, name in ENTRY_POINT_CASES.items())


# the program and each subcommand, in the order the parser lists them
HELP_COMMANDS = ("", "ext", "ext-induced", "ext-vi", "cohomology", "dcosets", "check-ring",
                 "verify", "zelevinsky")


def test_help_text_is_pinned(monkeypatch, capsys):
    """``--help`` of the program and of each subcommand, as printed at 80
    columns (argparse wraps to ``COLUMNS``), each after a ``$`` line naming
    it: ``golden/help.txt``.  The layout is that of argparse on Python 3.11."""
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for command in HELP_COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        assert parse_and_dispatch(argv) == 0
        pages.append(f"$ steinberg-ext {' '.join(argv)}\n{capsys.readouterr().out}")
    assert "".join(pages).encode() == (GOLDEN / "help.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(ENTRY_POINT_CASES.values()))
def test_golden_replay_through_the_entry_point(name):
    """In a process of its own, as a user runs it, and without bytecode, so
    that each module a command imports only when it runs is compiled and
    imported there: in this process every module is imported already."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("STEINBERG_EXT")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "steinberg_ext", *CASES[name]["argv"]],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == CASES[name]["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
