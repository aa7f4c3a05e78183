"""Coefficient-ring checks: unit tests in Q or Z/d and the two ring
conditions the vanishing arguments need (the "bon" product of 1 - q^r and a
split-case proxy for invertibility of the pro-order)."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .errors import ConfigurationError, ContractError
from .rootdata import RootSystem, build_root_system, full_mask, max_rho_coefficient
from .weyl import parabolic_order


def _prime_power_base(q: int) -> int:
    if q < 2:
        raise ConfigurationError(f"residue order q={q} must be a prime power >= 2")
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


@dataclass(frozen=True)
class RingSpec:
    """Coefficient ring: Q (``d == 0``) or Z/d, plus the residue order q of
    the underlying local field."""

    d: int
    q: int

    def __post_init__(self):
        if self.d < 0 or self.d == 1:
            raise ConfigurationError(f"modulus d={self.d} is degenerate (need 0 or >= 2)")
        _prime_power_base(self.q)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @property
    def residue_char(self) -> int:
        return _prime_power_base(self.q)

    @classmethod
    def rationals(cls, q: int = 2) -> "RingSpec":
        return cls(0, q)


def parse_ring(text: str) -> RingSpec:
    """Parse ``"Q"``, ``"Q,q=3"`` or ``"q=3,d=5"``."""
    text = text.strip()
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError("empty ring string")
    fields: dict[str, int] = {}
    rational = False
    for part in parts:
        if part.upper() == "Q":
            rational = True
            continue
        if "=" not in part:
            raise ConfigurationError(f"cannot parse ring component {part!r}")
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in ("q", "d"):
            raise ConfigurationError(f"unknown ring field {key!r}")
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

_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def weyl_degrees(series: str, rank: int) -> tuple[int, ...]:
    """Fundamental degrees d_1 <= ... <= d_n, validated against the group
    order and the positive-root count."""
    if (series, rank) in _EXCEPTIONAL_DEGREES:
        degrees = _EXCEPTIONAL_DEGREES[(series, rank)]
    elif series == "A":
        degrees = tuple(range(2, rank + 2))
    elif series in ("B", "C"):
        degrees = tuple(2 * i for i in range(1, rank + 1))
    elif series == "D":
        degrees = tuple(sorted([2 * i for i in range(1, rank)] + [rank]))
    else:
        # delegate the invalid-type diagnostics to the root-system builder
        build_root_system(series, rank)
        raise ConfigurationError(f"no degree table for {series}{rank}")
    rs = build_root_system(series, rank)
    if prod(degrees) != parabolic_order(rs, full_mask(rank)):
        raise ContractError(f"degree table for {series}{rank} fails the group-order validation")
    if sum(d - 1 for d in degrees) != rs.num_positive:
        raise ContractError(f"degree table for {series}{rank} fails the root-count validation")
    return degrees


# ---------------------------------------------------------------------------
# the ring conditions


@dataclass(frozen=True)
class BonReport:
    ok: bool
    failing_exponent: int | None = None
    failing_factor: int | None = None


@dataclass(frozen=True)
class BanalReport:
    ok: bool
    char_divides: bool = False
    failing_degree: int | None = None
    failing_factor: int | None = None


@dataclass(frozen=True)
class ConditionReport:
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


def bon_check(rs: RootSystem, spec: RingSpec) -> BonReport:
    """Every ``1 - q^r`` for r up to the largest coefficient of the
    sum-of-positive-roots character must be a unit."""
    n_max = max_rho_coefficient(rs)
    for r in range(1, n_max + 1):
        factor = 1 - spec.q ** r
        if not is_unit(factor, spec):
            return BonReport(False, r, factor if spec.is_rational else factor % spec.d)
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
        factor = spec.q ** deg - 1
        if not is_unit(factor, spec):
            return BanalReport(False, failing_degree=deg, failing_factor=factor % spec.d)
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
