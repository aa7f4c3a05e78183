"""Coefficient-ring checks: unit tests in Q or Z/d and the two ring
conditions the vanishing arguments need (the "bon" product of 1 - q^r and a
split-case proxy for invertibility of the pro-order)."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import ConfigurationError, ResourceLimitError, _Frozen
from .rootdata import (RootSystem, build_root_system, full_mask, max_rho_coefficient,
                       parabolic_exponents)


# Every residue order is under this cap: q is factored by trial division up
# to sqrt(q), so at most 2^16 divisions.
MAX_RESIDUE_ORDER = 1 << 32


def _prime_power_base(q: int) -> int:
    if q < 2:
        raise ConfigurationError(f"residue order q={q} must be a prime power >= 2")
    if q >= MAX_RESIDUE_ORDER:
        raise ResourceLimitError(f"residue order q={q} is over the cap of 2^32 - 1")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = q
    while m % p == 0:
        m //= p
    if m != 1:
        raise ConfigurationError(f"residue order q={q} is not a prime power")
    return p


class RingSpec(_Frozen):
    """Coefficient ring: Q (``d == 0``) or Z/d, plus the residue order q of
    the underlying local field and its prime ``residue_char``, factored once
    here."""

    _fields = ("d", "q")

    def __init__(self, d: int, q: int) -> None:
        if d < 0 or d == 1:
            raise ConfigurationError(f"modulus d={d} is degenerate (need 0 or >= 2)")
        object.__setattr__(self, "residue_char", _prime_power_base(q))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "q", q)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @classmethod
    def rationals(cls, q: int = 2) -> "RingSpec":
        return cls(0, q)


def parse_ring(text: str) -> RingSpec:
    """Parse ``"Q"``, ``"Q,q=3"`` or ``"q=3,d=5"``; each component at most
    once."""
    text = text.strip()
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError("empty ring string")
    fields: dict[str, int] = {}
    rational = False
    for part in parts:
        if part.upper() == "Q":
            if rational:
                raise ConfigurationError(f"ring {text!r} repeats its component 'Q'")
            rational = True
            continue
        if "=" not in part:
            raise ConfigurationError(f"cannot parse ring component {part!r}")
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in ("q", "d"):
            raise ConfigurationError(f"unknown ring field {key!r}")
        if key in fields:
            raise ConfigurationError(f"ring {text!r} repeats its component {key!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ConfigurationError(f"ring field {part!r} is not an integer") from None
    if rational:
        if "d" in fields and fields["d"] != 0:
            raise ConfigurationError("rational ring cannot carry a nonzero modulus")
        return RingSpec.rationals(fields.get("q", 2))
    if "q" not in fields or "d" not in fields:
        raise ConfigurationError(f"ring {text!r} needs both q=... and d=...")
    return RingSpec(fields["d"], fields["q"])


def format_ring(spec: RingSpec) -> str:
    if spec.is_rational:
        return "Q" if spec.q == 2 else f"Q,q={spec.q}"
    return f"q={spec.q},d={spec.d}"


def is_unit(x: int, spec: RingSpec) -> bool:
    if spec.is_rational:
        return x != 0
    return gcd(x % spec.d, spec.d) == 1


# ---------------------------------------------------------------------------
# fundamental degrees of the reflection group

def weyl_degrees(series: str, rank: int) -> tuple[int, ...]:
    """Fundamental degrees d_1 <= ... <= d_n: the exponents of the group
    plus one.  Their product is then |W| and the sum of the d_i - 1 the
    positive-root count, as the exponents are read off the root heights."""
    rs = build_root_system(series, rank)
    return tuple(sorted(m + 1 for m in parabolic_exponents(rs, full_mask(rank))))


# ---------------------------------------------------------------------------
# the ring conditions


class BonReport(NamedTuple):
    ok: bool
    failing_exponent: int | None = None
    failing_factor: int | None = None


class BanalReport(NamedTuple):
    ok: bool
    char_divides: bool = False
    failing_degree: int | None = None
    failing_factor: int | None = None


class ConditionReport(NamedTuple):
    bon: BonReport
    banal_proxy: BanalReport
    assumption3: bool
    notes: str

    @property
    def ok(self) -> bool:
        return self.bon.ok and self.banal_proxy.ok

    def to_json_dict(self) -> dict:
        witness: dict = {}
        if not self.bon.ok:
            witness["bon_failing_exponent"] = self.bon.failing_exponent
            witness["bon_failing_factor"] = self.bon.failing_factor
        if not self.banal_proxy.ok:
            witness["banal_char_divides"] = self.banal_proxy.char_divides
            witness["banal_failing_degree"] = self.banal_proxy.failing_degree
            witness["banal_failing_factor"] = self.banal_proxy.failing_factor
        return {
            "bon": self.bon.ok,
            "banal_proxy": self.banal_proxy.ok,
            "assumption3": self.assumption3,
            "witness": witness,
            "notes": self.notes,
        }


# q^e - 1 (mod d unless d = 0) and whether it is a unit, by (d, q, e): every
# power of q a ring check or a stratum certificate reads
_UNIT_VALUES: dict[tuple[int, int, int], tuple[int, bool]] = {}


def _unit_value(spec: RingSpec, exponent: int) -> tuple[int, bool]:
    """``q^exponent - 1`` over ``spec`` and whether it is a unit."""
    key = (spec.d, spec.q, exponent)
    if key not in _UNIT_VALUES:
        value = spec.q ** exponent - 1
        if not spec.is_rational:
            value %= spec.d
        _UNIT_VALUES[key] = (value, is_unit(value, spec))
    return _UNIT_VALUES[key]


def bon_check(rs: RootSystem, spec: RingSpec) -> BonReport:
    """Every ``1 - q^r`` for r up to the largest coefficient of the
    sum-of-positive-roots character must be a unit."""
    for r in range(1, max_rho_coefficient(rs) + 1):
        value, unit = _unit_value(spec, r)
        if not unit:  # reported as 1 - q^r, reduced mod d
            return BonReport(False, r, -value if spec.is_rational else -value % spec.d)
    return BonReport(True)


def banal_proxy_check(rs: RootSystem, spec: RingSpec) -> BanalReport:
    """Split-case proxy for invertibility of the pro-order: the residue
    characteristic and every ``q^{d_i} - 1`` over the fundamental degrees must
    be units."""
    if spec.is_rational:
        return BanalReport(True)
    if gcd(spec.d, spec.residue_char) != 1:
        return BanalReport(False, char_divides=True)
    for deg in weyl_degrees(rs.series, rs.rank):
        value, unit = _unit_value(spec, deg)
        if not unit:
            return BanalReport(False, failing_degree=deg, failing_factor=value)
    return BanalReport(True)


def check_ring(rs: RootSystem, spec: RingSpec, theta_assumed: bool = False) -> ConditionReport:
    notes = "banal check is a split-case proxy; assumption on the character-lattice "\
            "comparison map is user-asserted" + (" (acknowledged)" if theta_assumed else "")
    return ConditionReport(
        bon=bon_check(rs, spec),
        banal_proxy=banal_proxy_check(rs, spec),
        assumption3=True,  # split data: trivial Galois action
        notes=notes,
    )
