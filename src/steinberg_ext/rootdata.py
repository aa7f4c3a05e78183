"""Split reduced root systems in simple-root coordinates.

Every character in this package (roots, exponent vectors, the sum-of-positive-
roots vector) is an integer vector over the simple-root basis, so pairings and
exponent arithmetic stay exact.  Subsets of the simple roots are plain int
bitmasks; bit ``i`` stands for the ``i``-th simple root in the fixed total
order ``alpha_0 < ... < alpha_{n-1}``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .errors import ConfigurationError, ResourceLimitError

Coords = tuple[int, ...]

SERIES = ("A", "B", "C", "D", "E", "F", "G")

# The largest rank a type name may ask for.  The positive-root closure costs
# about roots x rank^2, which is seconds by rank 120; every test stays within
# rank 30.
MAX_RANK = 32

# The ways a table is computed: the CLI's --method choices.  Defined here,
# in a module every command imports, so that the parser needs none of the
# modules that compute the tables.
CLOSED_FORM = "closed_form"
COMPLEX_BUILT = "complex_built"
STRATA = "strata"


# ---------------------------------------------------------------------------
# subset masks


def full_mask(rank: int) -> int:
    return (1 << rank) - 1


def mask_from_indices(indices, rank: int) -> int:
    mask = 0
    for i in indices:
        if not 0 <= i < rank:
            raise ConfigurationError(f"simple-root index {i} out of range for rank {rank}")
        mask |= 1 << i
    return mask


def mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_size(mask: int) -> int:
    return mask.bit_count()


def validate_mask(mask: int, rank: int) -> int:
    if mask < 0 or mask >= 1 << rank:
        raise ConfigurationError(f"subset mask {mask:#x} has bits beyond rank {rank}")
    return mask


def mask_str(mask: int) -> str:
    """Human-readable form used in labels and verify output, e.g. ``{0,2}``."""
    return "{" + ",".join(str(i) for i in mask_indices(mask)) + "}"


# ---------------------------------------------------------------------------
# Cartan matrices

_CHAIN_RANGE = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _validate_type(series: str, rank: int) -> None:
    if series not in SERIES:
        raise ConfigurationError(f"unknown series {series!r} (expected one of {''.join(SERIES)})")
    lo, hi = _CHAIN_RANGE[series]
    if rank < lo or (hi is not None and rank > hi):
        raise ConfigurationError(f"invalid type {series}{rank}")


def cartan_matrix(series: str, rank: int) -> tuple[Coords, ...]:
    """Cartan matrix with the convention ``cartan[i][j] = <alpha_j, alpha_i^vee>``,
    so the simple reflection acts by ``s_i(alpha_j) = alpha_j - cartan[i][j] alpha_i``.
    """
    _validate_type(series, rank)
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if series == "B" and rank >= 2:
            c[rank - 1][rank - 2] = -2  # last simple root short
        if series == "C" and rank >= 2:
            c[rank - 2][rank - 1] = -2  # last simple root long
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif series == "E":
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, rank - 1)]
        for i, j in edges:
            bond(i, j)
    elif series == "F":
        bond(0, 1), bond(1, 2), bond(2, 3)
        c[2][1] = -2
    elif series == "G":
        c[0][1] = -3
        c[1][0] = -1
    return tuple(tuple(row) for row in c)


# ---------------------------------------------------------------------------
# the root system


class RootSystem(NamedTuple):
    """A split reduced root system.

    ``positive_roots`` holds integer coordinate vectors in the simple-root
    basis; the first ``rank`` entries are the simple roots themselves (unit
    vectors, in delta order), the rest are sorted by height then
    lexicographically.
    """

    series: str
    rank: int
    cartan: tuple[Coords, ...]
    positive_roots: tuple[Coords, ...]

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def type_name(self) -> str:
        return f"{self.series}{self.rank}"

    def reflect(self, coords: Coords, i: int) -> Coords:
        """Apply the simple reflection s_i to a character vector."""
        return _reflect(self.cartan, coords, i)


def _reflect(cartan: tuple[Coords, ...], coords: Coords, i: int) -> Coords:
    """The simple reflection s_i of the Cartan matrix ``cartan`` applied to
    a vector in the basis of simple roots."""
    out = list(coords)
    out[i] -= sum(c * a for c, a in zip(coords, cartan[i]))
    return tuple(out)


def _positive_closure(cartan: tuple[Coords, ...]) -> tuple[Coords, ...]:
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for coords in frontier:
            for i in range(rank):
                image = _reflect(cartan, coords, i)
                if min(image) >= 0 and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    rest = sorted(seen - set(simple), key=lambda v: (sum(v), v))
    return tuple(simple + rest)


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    cartan = cartan_matrix(series, rank)
    return RootSystem(series, rank, cartan, _positive_closure(cartan))


def support_mask(coords: Coords) -> int:
    mask = 0
    for i, c in enumerate(coords):
        if c:
            mask |= 1 << i
    return mask


@lru_cache(maxsize=None)
def levi_root_indices(rs: RootSystem, levi: int) -> frozenset[int]:
    validate_mask(levi, rs.rank)
    return frozenset(k for k, b in enumerate(rs.positive_roots)
                     if support_mask(b) & ~levi == 0)


@lru_cache(maxsize=None)
def parabolic_exponents(rs: RootSystem, levi: int) -> tuple[int, ...]:
    """The exponents m of W_levi, without the group: the numbers of roots of
    each height in the Levi's positive roots form a partition whose
    conjugate lists them (Kostant)."""
    heights = Counter(sum(rs.positive_roots[k]) for k in levi_root_indices(rs, levi))
    return tuple(sum(1 for count in heights.values() if count >= j)
                 for j in range(1, heights[1] + 1))


@lru_cache(maxsize=None)
def parabolic_order(rs: RootSystem, levi: int) -> int:
    """|W_levi| without the group: the product of the m + 1 over its
    exponents m."""
    return prod(m + 1 for m in parabolic_exponents(rs, levi))


def rho_coefficients(rs: RootSystem) -> Coords:
    """Sum of all positive roots in simple-root coordinates.

    Entry ``i`` is the multiplicity of alpha_i in the determinant character of
    the full unipotent radical (split reduced case: all root multiplicities 1).
    """
    total = [0] * rs.rank
    for b in rs.positive_roots:
        for i, c in enumerate(b):
            total[i] += c
    return tuple(total)


def max_rho_coefficient(rs: RootSystem) -> int:
    return max(rho_coefficients(rs))


def zero_coords(rank: int) -> Coords:
    return (0,) * rank


def parse_type(text: str) -> tuple[str, int]:
    """Parse a type name like ``A2`` or ``F4`` into (series, rank)."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in SERIES:
        raise ConfigurationError(f"cannot parse type {text!r}")
    try:
        rank = int(text[1:])
    except ValueError:
        raise ConfigurationError(f"cannot parse type {text!r}") from None
    series = text[0].upper()
    _validate_type(series, rank)
    if rank > MAX_RANK:
        raise ResourceLimitError(f"type {series}{rank} is over the rank cap of {MAX_RANK}")
    return series, rank
