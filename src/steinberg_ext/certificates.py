"""Stratum certificates: the vanishing argument of the double-coset
strata, made effective, and the Ext table between induced modules it
assembles.

Each double coset W_I w W_J carries a stratum; every stratum but the
identity's with J inside I gets a central element certifying that it
contributes nothing (:func:`vanishing_certificate`), and the one left
contributes the closed-form exterior algebra
(:func:`ext_induced_via_strata`).  No complex is read here, so this module
imports neither :mod:`~steinberg_ext.homology` nor
:mod:`~steinberg_ext.extengine` (which re-exports its names): ``dcosets
--ring`` and ``ext-induced --method strata`` compile only what they run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractError, RingAssumptionError, VerificationError
from .ringcond import RingSpec, _unit_value, format_ring
from .rootdata import RootSystem, mask_size, mask_str
from .tables import ExtTable, ModulePiece, _merge, ext_induced_closed, exterior_table

if TYPE_CHECKING:
    from .weyl import DoubleCosetRep


class VanishingCertificate(NamedTuple):
    rep: DoubleCosetRep
    beta_index: int
    exponent: int
    unit_value: int
    branch: str  # "gamma" or "delta"


def _delta_candidates(rs: RootSystem, I: int, J: int, delta) -> list[tuple[int, int]]:
    """(b, delta_b) for the coweights outside the intersection Levi."""
    meet = J & I
    return [(b, delta[b]) for b in range(rs.rank) if not meet >> b & 1 and delta[b]]


def vanishing_certificate(rs: RootSystem, rep: DoubleCosetRep,
                          spec: RingSpec) -> VanishingCertificate | None:
    """Produce a central element certifying that the stratum of ``rep``
    contributes nothing, or ``None`` for the unique surviving stratum
    (identity representative with J contained in I).

    For a non-identity representative the certificate pairs the gamma
    exponent vector with a co-fundamental coweight at a right descent of w,
    which lies outside J; for the identity with J not inside I it pairs the
    delta exponent vector with a coweight outside the intersection Levi.  In
    both branches the certified value is ``q^exponent - 1``, which must be a
    unit.
    """
    w, I, J = rep.w, rep.I, rep.J
    # the coweight dual to alpha_b pairs with an exponent vector as its entry b
    gamma, delta = rep.gamma_exp, rep.delta_exp
    identity = w.is_identity

    if identity and not J & ~I:
        return None

    if not identity:
        branch = "gamma"
        images = w.signed_images
        candidates = []
        for b in range(rs.rank):
            if images[b] > 0:
                continue
            if J >> b & 1:
                raise ContractError(
                    f"w(alpha_{b}) is negative for alpha_{b} in J; "
                    "not a minimal double-coset representative")
            if delta[b]:
                raise ContractError(
                    "delta exponent is supported on J; it cannot pair with a "
                    f"coweight at alpha_{b} outside J")
            candidates.append((b, gamma[b]))
        if not candidates:
            raise ContractError(
                f"no gamma certificate direction for a length-{rep.length} representative; "
                "the representative is not minimal or the exponent formula is wrong")
    else:
        branch = "delta"
        candidates = _delta_candidates(rs, I, J, delta)
        if not candidates:
            raise ContractError(
                "identity stratum with J not inside I has a trivial delta character; "
                "exponent formula is wrong")

    for b, exponent in candidates:
        value, unit = _unit_value(spec, exponent)
        if unit:
            return VanishingCertificate(rep, b, exponent, value, branch)
    raise RingAssumptionError(
        f"stratum of length {rep.length} for I={mask_str(I)} J={mask_str(J)} has no unit "
        f"q^r - 1 over {format_ring(spec)} (tried exponents "
        f"{sorted(set(e for _, e in candidates))}); the ring fails the bon/banal requirements")


def ext_induced_via_strata(rs: RootSystem, I: int, J: int, spec: RingSpec) -> ExtTable:
    """Ext between induced modules computed stratum by stratum along the
    double-coset filtration: every certified stratum contributes zero, the
    lone uncertified one contributes the closed-form exterior algebra.  The
    representatives stream, so none is kept once certified."""
    from .weyl import iter_kostant_reps  # a certificate alone needs no walk

    out: dict[int, ModulePiece] = {}
    for rep in iter_kostant_reps(rs, I, J):
        if vanishing_certificate(rs, rep, spec) is None:
            for degree, piece in exterior_table(rs.rank - mask_size(J)).entries.items():
                _merge(out, degree, piece.rank, piece.torsion)
    table = ExtTable(out)
    closed = ext_induced_closed(rs, I, J, spec)
    if not table.same_modules(closed):
        raise VerificationError(
            f"strata path disagrees with the closed form for I={mask_str(I)} J={mask_str(J)}",
            {"closed": closed.to_json_dict(), "strata": table.to_json_dict()})
    return table
