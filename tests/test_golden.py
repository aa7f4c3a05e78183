"""Replay the frozen CLI corpus: stdout bytes and exit codes must not change.

``golden/cases.json`` maps each case name to its argv and exit code, and
``golden/<name>.out`` holds the stdout bytes recorded for it.  A case that
differs is a behaviour change and has to be made on purpose.
"""

import json
from pathlib import Path

import pytest

from steinberg_ext.cli import parse_and_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name, capsys):
    case = CASES[name]
    code = parse_and_dispatch(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
