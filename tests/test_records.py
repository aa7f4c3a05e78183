"""The public record types: construction, equality, hashing, immutability,
repr and pickling, and the start-up cost of importing them."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from steinberg_ext import (
    ChainComplex,
    ConditionReport,
    DoubleCosetRep,
    ExtTable,
    HomologyResult,
    IntMatrix,
    ModulePiece,
    Orientation,
    RingSpec,
    RootSystem,
    SmithForm,
    VanishingCertificate,
    WeylElement,
)
from steinberg_ext.ringcond import BanalReport, BonReport

_W = WeylElement((-1,), 1)
_REP = DoubleCosetRep(_W, 0, 0, 1, (1,), (0,), 0)

# class, its fields in order with one value each, and whether it is frozen
RECORDS = [
    (RootSystem, {"series": "A", "rank": 1, "cartan": ((2,),), "positive_roots": ((1,),)}, True),
    (WeylElement, {"signed_images": (-1,), "length": 1}, True),
    (DoubleCosetRep, {"w": _W, "I": 0, "J": 1, "length": 1, "gamma_exp": (1,),
                      "delta_exp": (0,), "levi": 0}, True),
    (ModulePiece, {"rank": 1, "torsion": (2,)}, True),
    (VanishingCertificate, {"rep": _REP, "beta_index": 0, "exponent": 1, "unit_value": 2,
                            "branch": "gamma"}, True),
    (HomologyResult, {"free_ranks": (1, 0), "torsion": ((), (2,))}, True),
    (SmithForm, {"divisors": (2,), "u": IntMatrix.identity(1), "v": IntMatrix.identity(1)},
     True),
    (BonReport, {"ok": False, "failing_exponent": 1, "failing_factor": 0}, True),
    (BanalReport, {"ok": False, "char_divides": True, "failing_degree": None,
                   "failing_factor": None}, True),
    (ConditionReport, {"bon": BonReport(True), "banal_proxy": BanalReport(True),
                       "assumption3": True, "notes": "n"}, True),
    (IntMatrix, {"rows": 2, "cols": 1, "columns": (((0, 1), (1, -1)),)}, True),
    (ChainComplex, {"ranks": (1, 1), "differentials": (IntMatrix.from_rows([[2]]),)}, True),
    (RingSpec, {"d": 5, "q": 3}, True),
    (Orientation, {"k": 3, "forward": 0b01}, True),
    (ExtTable, {"entries": {0: ModulePiece(1)}, "outside_hypotheses": True}, False),
]


@pytest.mark.parametrize("cls, fields, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, frozen):
    positional, keyword = cls(*fields.values()), cls(**fields)
    assert positional == keyword
    # a named tuple equals the tuple of its fields; a hand-written record does not
    assert (positional == tuple(fields.values())) is issubclass(cls, tuple)
    unpickled = pickle.loads(pickle.dumps(positional))
    assert unpickled == positional
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(positional) == f"{cls.__name__}({shown})"
    name = next(iter(fields))
    if frozen:
        assert hash(positional) == hash(keyword) == hash(unpickled)
        for record in (positional, unpickled):
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
    else:  # a mutable record compares by value and so has no hash
        assert cls.__hash__ is None
        setattr(positional, name, {})
        assert positional != keyword


def test_a_field_outside_the_key_takes_no_part():
    """``label_source`` is a field of ``ChainComplex`` but not of its key:
    complexes that differ only there are equal, hash and print alike."""
    d = (IntMatrix.from_rows([[2]]),)
    plain = ChainComplex((1, 1), d)
    labelled = ChainComplex((1, 1), d, label_source=lambda: (("a",), ("b",)))
    assert plain == labelled and hash(plain) == hash(labelled)
    assert repr(plain) == repr(labelled) == f"ChainComplex(ranks=(1, 1), differentials={d!r})"
    assert (plain.labels, labelled.labels) == ((), (("a",), ("b",)))


def test_importing_the_cli_does_not_import_dataclasses():
    """The record types cost no import: `dataclasses` (and the `inspect`
    it pulls in) is a large share of a CLI process's start-up.  ``-S``
    keeps a site hook from importing it on the package's behalf."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import steinberg_ext.cli; "
         "print('dataclasses' in sys.modules)", str(src)],
        capture_output=True, text=True, timeout=30, check=True)
    assert out.stdout == "False\n"
