"""Ext tables and their closed forms.

An Ext table maps each degree to the module there.  Every closed form
below reads only root data and subset masks: nothing here builds a complex
or a Weyl group, so a command that prints only closed forms (``zelevinsky``,
whose segment-graph orientations are in :mod:`~steinberg_ext.zelevinsky`;
``cohomology`` of the trivial or induced module; ``ext-induced`` without
strata) compiles neither :mod:`~steinberg_ext.homology`
nor :mod:`~steinberg_ext.weyl`.  The complex-built and stratum paths of
:mod:`~steinberg_ext.extengine` check themselves against these.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, ResourceLimitError, _Record
from .rootdata import MAX_RANK, RootSystem, full_mask, mask_size, validate_mask

if TYPE_CHECKING:
    from .ringcond import RingSpec


# ---------------------------------------------------------------------------
# tables


class ModulePiece(NamedTuple):
    rank: int
    torsion: tuple[int, ...] = ()

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion


class ExtTable(_Record):
    """Degree-indexed module descriptions; an absent degree is the zero
    module.  Only ``entries`` takes part in equality of answers
    (:meth:`same_modules`); ``==`` compares both fields."""

    _fields = ("entries", "outside_hypotheses")

    def __init__(self, entries: dict[int, ModulePiece], outside_hypotheses: bool = False) -> None:
        self.entries = entries
        self.outside_hypotheses = outside_hypotheses

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
    ``K = (Delta \\ I) u J`` of two masks inside the rank.  K is the disjoint
    union of Delta \\ I and I n J, so the degree chain through K,
    ``|Delta \\ K| + |Delta \\ I| + |J| - |K|``, is |I \\ J| + |J \\ I|: it
    closes for every such pair, and a mask past the rank is refused."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    return mask_size(I | J) - mask_size(I & J), (full_mask(rs.rank) & ~I) | J


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
    i0, _ = steinberg_degree(rs, I, J)  # refuses a mask past the rank first
    check_center_rank(center_rank)
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
