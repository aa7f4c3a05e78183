"""Ext tables and their closed forms.

An Ext table maps each degree to the module there.  Every closed form
below reads only root data and subset masks: nothing here builds a complex
or a Weyl group, so a command that prints only closed forms (``zelevinsky``;
``cohomology`` of the trivial or induced module; ``ext-induced`` without
strata or a cache directory) compiles neither :mod:`~steinberg_ext.homology`
nor :mod:`~steinberg_ext.weyl`.  The complex-built and stratum paths of
:mod:`~steinberg_ext.extengine` check themselves against these.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, ContractError, ResourceLimitError, VerificationError
from .rootdata import (
    MAX_RANK,
    RootSystem,
    build_root_system,
    full_mask,
    mask_size,
    mask_str,
    validate_mask,
)

if TYPE_CHECKING:
    from .ringcond import RingSpec


# ---------------------------------------------------------------------------
# tables


class ModulePiece(NamedTuple):
    rank: int
    torsion: tuple[int, ...] = ()

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion


class ExtTable:
    """Degree-indexed module descriptions; an absent degree is the zero
    module.  Only ``entries`` takes part in equality of answers
    (:meth:`same_modules`); ``==`` compares both fields."""

    def __init__(self, entries: dict[int, ModulePiece], outside_hypotheses: bool = False) -> None:
        self.entries = entries
        self.outside_hypotheses = outside_hypotheses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.entries, self.outside_hypotheses)
                == (other.entries, other.outside_hypotheses))

    def __repr__(self) -> str:
        return (f"ExtTable(entries={self.entries!r}, "
                f"outside_hypotheses={self.outside_hypotheses!r})")

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def same_modules(self, other: "ExtTable") -> bool:
        return self.entries == other.entries or self._normal() == other._normal()

    def _normal(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {d: (p.rank, tuple(sorted(p.torsion)))
                for d, p in self.entries.items() if not p.is_zero()}

    def has_torsion(self) -> bool:
        return any(p.torsion for p in self.entries.values())

    def to_json_dict(self) -> dict:
        return {str(d): {"rank": p.rank, "torsion": sorted(p.torsion)}
                for d, p in sorted(self.entries.items()) if not p.is_zero()}


def _merge(target: dict[int, ModulePiece], degree: int, rank: int,
           torsion: tuple[int, ...] = ()) -> None:
    old = target.get(degree, ModulePiece(0))
    target[degree] = ModulePiece(old.rank + rank, tuple(sorted(old.torsion + torsion)))


def exterior_table(n: int, shift: int = 0) -> ExtTable:
    """Binomial table of an n-dimensional exterior algebra, shifted upward."""
    return ExtTable({shift + j: ModulePiece(comb(n, j)) for j in range(n + 1)})


def tensor_with_exterior(table: ExtTable, c: int) -> ExtTable:
    """Tensor a table with the binomial exterior algebra of a rank-c center;
    free or cyclic, every summand is replicated with binomial multiplicity."""
    if c == 0:
        return table
    out: dict[int, ModulePiece] = {}
    for degree, piece in table.entries.items():
        for j in range(c + 1):
            mult = comb(c, j)
            _merge(out, degree + j, piece.rank * mult, piece.torsion * mult)
    return ExtTable(out, table.outside_hypotheses)


def steinberg_degree(rs: RootSystem, I: int, J: int) -> tuple[int, int]:
    """The nonvanishing degree ``|I u J| - |I n J|`` and the reduction subset
    ``K = (Delta \\ I) u J``; the degree chain through K is asserted to close.
    """
    delta = full_mask(rs.rank)
    K = (delta & ~I) | J
    i0 = mask_size(I | J) - mask_size(I & J)
    chain = (mask_size(delta & ~K) + mask_size(delta & ~I)
             + mask_size(J) - mask_size(K))
    if chain != i0:
        raise ContractError(
            f"degree chain {chain} != |IuJ| - |InJ| = {i0} for I={mask_str(I)} J={mask_str(J)}")
    return i0, K


# ---------------------------------------------------------------------------
# closed forms


def check_center_rank(center_rank: int) -> None:
    """Refuse a negative center rank, and one over ``MAX_RANK``: at 32 every
    binomial C(c, j) of the center's table fits a machine word."""
    if center_rank < 0:
        raise ConfigurationError("center rank must be non-negative")
    if center_rank > MAX_RANK:
        raise ResourceLimitError(f"center rank {center_rank} is over the cap of {MAX_RANK}")


def trivial_cohomology(rs: RootSystem, spec: RingSpec, center_rank: int) -> ExtTable:
    """Cohomology of the trivial representation: the exterior algebra of the
    rank of the center (one degree-0 line in the semisimple case)."""
    check_center_rank(center_rank)
    return exterior_table(center_rank)


def induced_cohomology(rs: RootSystem, I: int, spec: RingSpec) -> ExtTable:
    """Cohomology of the induced module of the standard parabolic P_I."""
    validate_mask(I, rs.rank)
    return exterior_table(rs.rank - mask_size(I))


def ext_induced_closed(rs: RootSystem, I: int, J: int, spec: RingSpec) -> ExtTable:
    """Ext between induced modules: the exterior algebra of the J-complement
    when J is contained in I, zero otherwise."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    if J & ~I:
        return ExtTable({})
    return exterior_table(rs.rank - mask_size(J))


def ext_steinberg_closed(rs: RootSystem, I: int, J: int, center_rank: int = 0) -> ExtTable:
    """Ext between the generalized Steinberg modules of I and J: one line in
    degree ``|I u J| - |I n J|``, tensored with the binomial table of the
    center."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    check_center_rank(center_rank)
    i0, _ = steinberg_degree(rs, I, J)
    return tensor_with_exterior(ExtTable({i0: ModulePiece(1)}), center_rank)


def ext_v_to_induced_closed(rs: RootSystem, I: int, J: int) -> ExtTable:
    """Ext from the generalized Steinberg module of I into the induced module
    of J: the exterior algebra of the J-complement shifted by ``|Delta \\ I|``
    when I and J cover Delta, zero otherwise."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    if I | J != full_mask(rs.rank):
        return ExtTable({})
    return exterior_table(rs.rank - mask_size(J), rs.rank - mask_size(I))


# ---------------------------------------------------------------------------
# segment-graph orientations (general-linear cuspidal lines)


class Orientation:
    """Orientation of the path graph on k segment vertices: bit i set means
    edge i points forward.  Immutable, compared and hashed by (k, forward)."""

    def __init__(self, k: int, forward: int) -> None:
        if k < 1 or forward < 0 or forward >> max(k - 1, 0):
            raise ContractError(f"orientation bits out of range for k={k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "forward", forward)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.forward) == (other.k, other.forward)

    def __hash__(self) -> int:
        return hash((self.k, self.forward))

    def __repr__(self) -> str:
        return f"Orientation(k={self.k!r}, forward={self.forward!r})"

    def bits(self) -> tuple[bool, ...]:
        return tuple(bool(self.forward >> i & 1) for i in range(self.k - 1))


def orientation_from_subset(k: int, I: int) -> Orientation:
    """Edge i points forward exactly when alpha_i lies in the subset; this is
    a bijection from subsets onto orientations and round-trips by
    construction."""
    if k < 1:
        raise ContractError("need at least one segment")
    validate_mask(I, k - 1)
    orientation = Orientation(k, I)
    if subset_from_orientation(orientation) != I:
        raise ContractError("orientation/subset round trip failed")
    return orientation


def subset_from_orientation(orientation: Orientation) -> int:
    return orientation.forward


def orientation_from_permutation(k: int, w) -> Orientation:
    """Edge i points forward exactly when the permutation increases from
    position i to i+1."""
    w = tuple(w)
    if sorted(w) != list(range(k)):
        raise ContractError(f"{w!r} is not a permutation of 0..{k - 1}")
    bits = 0
    for i in range(k - 1):
        if w[i] < w[i + 1]:
            bits |= 1 << i
    return Orientation(k, bits)


def ext_cuspidal_line(k: int, I: int, J: int, spec: RingSpec) -> ExtTable:
    """Ext between the segment-quotient modules on a cuspidal line of the
    general linear group: two adjacent lines starting at ``|IuJ| - |InJ|``
    (a rank-one center on top of the type A answer)."""
    if k < 2:
        raise ContractError("cuspidal line needs k >= 2 segments")
    validate_mask(I, k - 1)
    validate_mask(J, k - 1)
    i0 = mask_size(I | J) - mask_size(I & J)
    reference = ext_steinberg_closed(build_root_system("A", k - 1), I, J, center_rank=1)
    table = ExtTable({i0: ModulePiece(1), i0 + 1: ModulePiece(1)})
    if not table.same_modules(reference):
        raise VerificationError(
            "cuspidal-line table disagrees with the rank-one-center answer",
            {"cuspidal": table.to_json_dict(), "reference": reference.to_json_dict()})
    return table
