"""Segment-graph orientations and the cuspidal-line Ext table of the
general linear group.

Only ``zelevinsky`` prints these, so no other command compiles this module;
the table is checked against the closed form of
:mod:`~steinberg_ext.tables` with a rank-one center.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ContractError, VerificationError, _Frozen
from .rootdata import build_root_system, mask_size, validate_mask
from .tables import ExtTable, ModulePiece, ext_steinberg_closed

if TYPE_CHECKING:
    from .ringcond import RingSpec


class Orientation(_Frozen):
    """Orientation of the path graph on k segment vertices: bit i set means
    edge i points forward."""

    _fields = ("k", "forward")

    def __init__(self, k: int, forward: int) -> None:
        if k < 1 or forward < 0 or forward >> max(k - 1, 0):
            raise ContractError(f"orientation bits out of range for k={k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "forward", forward)

    def bits(self) -> tuple[bool, ...]:
        return tuple(bool(self.forward >> i & 1) for i in range(self.k - 1))


def orientation_from_subset(k: int, I: int) -> Orientation:
    """Edge i points forward exactly when alpha_i lies in the subset; this is
    a bijection from subsets onto orientations and round-trips by
    construction."""
    if k < 1:
        raise ContractError("need at least one segment")
    validate_mask(I, k - 1)
    return Orientation(k, I)


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
    reference = ext_steinberg_closed(build_root_system("A", k - 1), I, J, center_rank=1)
    i0 = mask_size(I | J) - mask_size(I & J)
    table = ExtTable({i0: ModulePiece(1), i0 + 1: ModulePiece(1)})
    if not table.same_modules(reference):
        raise VerificationError(
            "cuspidal-line table disagrees with the rank-one-center answer",
            {"cuspidal": table.to_json_dict(), "reference": reference.to_json_dict()})
    return table
