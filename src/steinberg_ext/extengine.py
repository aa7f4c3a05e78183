"""Ext tables for generalized Steinberg representations, two ways.

Every answer is exposed both as the closed form and as the homology of an
independently constructed subset-lattice complex; the complex-built path
asserts agreement with the closed form whenever the coefficient ring passes
the bon / banal checks, and labels its output "outside hypotheses" otherwise.

Every complex-built table stacks rows t of one builder over one subset B,
:func:`~steinberg_ext.homology.exterior_row_complex` over ``B <= L <= Delta``:
cohomology over I (B = I), Ext between Steinberg modules (B = K, shift
``|J \\ I|``) and Ext into an induced module (B = I u J, span J, reversed,
shift ``|J \\ I|``).  Each row's integer homology is looked up under
``(rank, B, t)``; a row is built as a complex again only to be printed.

Degree bookkeeping is centralized in :func:`total_degree`.  A lattice complex
over ``bottom <= L <= Delta`` is graded by ``s = |Delta \\ L|`` with top
``m = |Delta \\ bottom|``; a class of inner degree ``t`` at lattice degree
``s`` lands in total degree ``t + s - m`` when the resolution sits in the
covariant argument and ``t + (m - s)`` when it sits in the contravariant one.
The two anchor identities pinning this down are the self-Ext of any object in
degree 0 and the top-degree cohomology of the quotient representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import (ConfigurationError, ContractError, ResourceLimitError, RingAssumptionError,
                     VerificationError)
from .homology import (
    LATTICE_CAP,
    complex_to_json_dict,
    exterior_row_complex,
    homology_with_coefficients,
    reverse_transpose,
    row_homology,
)
from .ringcond import RingSpec, check_ring, format_ring, is_unit
from .rootdata import (
    RootSystem,
    build_root_system,
    cofundamental_pairing,
    full_mask,
    levi_root_indices,
    mask_size,
    mask_str,
    validate_mask,
)
from .weyl import DoubleCosetRep, kostant_reps

CLOSED_FORM = "closed_form"
COMPLEX_BUILT = "complex_built"
STRATA = "strata"


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class ModulePiece:
    rank: int
    torsion: tuple[int, ...] = ()

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion


@dataclass
class ExtTable:
    """Degree-indexed module descriptions; an absent degree is the zero
    module.  Only ``entries`` takes part in equality of answers."""

    entries: dict[int, ModulePiece]
    provenance: str = CLOSED_FORM
    outside_hypotheses: bool = False

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def same_modules(self, other: "ExtTable") -> bool:
        return self._normal() == other._normal()

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


def exterior_table(n: int, shift: int = 0, provenance: str = CLOSED_FORM) -> ExtTable:
    """Binomial table of an n-dimensional exterior algebra, shifted upward."""
    return ExtTable({shift + j: ModulePiece(comb(n, j)) for j in range(n + 1)}, provenance)


def empty_table(provenance: str = CLOSED_FORM) -> ExtTable:
    return ExtTable({}, provenance)


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
    return ExtTable(out, table.provenance, table.outside_hypotheses)


# ---------------------------------------------------------------------------
# degree bookkeeping

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


def total_degree(inner: int, lattice_s: int, lattice_top: int, slot: str) -> int:
    if slot == COVARIANT:
        return inner + lattice_s - lattice_top
    if slot == CONTRAVARIANT:
        return inner + lattice_top - lattice_s
    raise ContractError(f"unknown resolution slot {slot!r}")


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


def trivial_cohomology(rs: RootSystem, spec: RingSpec, center_rank: int) -> ExtTable:
    """Cohomology of the trivial representation: the exterior algebra of the
    rank of the center (one degree-0 line in the semisimple case)."""
    if center_rank < 0:
        raise ConfigurationError("center rank must be non-negative")
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
        return empty_table()
    return exterior_table(rs.rank - mask_size(J))


# ---------------------------------------------------------------------------
# stratum certificates (the vanishing argument, made effective)


@dataclass(frozen=True)
class VanishingCertificate:
    rep: DoubleCosetRep
    beta_index: int
    exponent: int
    unit_value: int
    branch: str  # "gamma" or "delta"


def vanishing_certificate(rs: RootSystem, rep: DoubleCosetRep,
                          spec: RingSpec) -> VanishingCertificate | None:
    """Produce a central element certifying that the stratum of ``rep``
    contributes nothing, or ``None`` for the unique surviving stratum
    (identity representative with J contained in I).

    For a non-identity representative the certificate pairs the gamma
    exponent vector with a co-fundamental coweight outside J; for the
    identity with J not inside I it pairs the delta exponent vector with a
    coweight outside the intersection Levi.  In both branches the certified
    value is ``q^exponent - 1``, which must be a unit.
    """
    w, I, J = rep.w, rep.I, rep.J

    if w.is_identity and not J & ~I:
        return None

    if not w.is_identity:
        branch = "gamma"
        candidates = []
        phi_i_neg = levi_root_indices(rs, I)
        for b in range(rs.rank):
            if J >> b & 1:
                continue
            j, sign = w.image_of_root(b)
            if sign < 0 and j not in phi_i_neg:
                exponent = cofundamental_pairing(rep.gamma_exp, b)
                if cofundamental_pairing(rep.delta_exp, b) != 0:
                    raise ContractError(
                        "delta exponent is supported on J; it cannot pair with a "
                        f"coweight at alpha_{b} outside J")
                candidates.append((b, exponent))
        if not candidates:
            raise ContractError(
                f"no gamma certificate direction for a length-{rep.length} representative; "
                "the representative is not minimal or the exponent formula is wrong")
    else:
        branch = "delta"
        meet = J & I
        candidates = [(b, cofundamental_pairing(rep.delta_exp, b))
                      for b in range(rs.rank)
                      if not meet >> b & 1 and cofundamental_pairing(rep.delta_exp, b) != 0]
        if not candidates:
            raise ContractError(
                "identity stratum with J not inside I has a trivial delta character; "
                "exponent formula is wrong")

    tried = []
    for b, exponent in candidates:
        value = spec.q ** exponent - 1
        if not spec.is_rational:
            value %= spec.d
        if is_unit(value, spec):
            return VanishingCertificate(rep, b, exponent, value, branch)
        tried.append((b, exponent))
    raise RingAssumptionError(
        f"stratum of length {rep.length} for I={mask_str(I)} J={mask_str(J)} has no unit "
        f"q^r - 1 over {format_ring(spec)} (tried exponents "
        f"{sorted(set(e for _, e in tried))}); the ring fails the bon/banal requirements")


def ext_induced_via_strata(rs: RootSystem, I: int, J: int, spec: RingSpec,
                           elements=None, certificates_out: list | None = None) -> ExtTable:
    """Ext between induced modules computed stratum by stratum along the
    double-coset filtration: every certified stratum contributes zero, the
    lone uncertified one contributes the closed-form exterior algebra.
    ``certificates_out`` receives a (representative, certificate) pair per
    stratum."""
    out: dict[int, ModulePiece] = {}
    for rep in kostant_reps(rs, I, J, elements):
        cert = vanishing_certificate(rs, rep, spec)
        if certificates_out is not None:
            certificates_out.append((rep, cert))
        if cert is None:
            if not rep.w.is_identity or rep.J & ~rep.I:
                raise ContractError("a non-surviving stratum returned no certificate")
            for degree, piece in exterior_table(rs.rank - mask_size(J)).entries.items():
                _merge(out, degree, piece.rank, piece.torsion)
    table = ExtTable(out, STRATA)
    closed = ext_induced_closed(rs, I, J, spec)
    if not table.same_modules(closed):
        raise VerificationError(
            f"strata path disagrees with the closed form for I={mask_str(I)} J={mask_str(J)}",
            {"closed": closed.to_json_dict(), "strata": table.to_json_dict()})
    return table


# ---------------------------------------------------------------------------
# complex-built paths


@lru_cache(maxsize=None)
def _ring_passes(rs: RootSystem, spec: RingSpec) -> bool:
    return check_ring(rs, spec).ok


def _built_table(rs: RootSystem, spec: RingSpec, closed: ExtTable, what: str, B: int, *,
                 span: int | None = None, shift: int = 0, zeros: int = 0,
                 numbered: bool = True, center_rank: int = 0,
                 complexes_out: list | None = None) -> ExtTable:
    """The complex-built table, checked against ``closed``, refused first if
    a row it builds would be over the cap: rows t up to
    ``|Delta \\ (B n span)|`` with no vertical maps between them, each row's
    cached integer homology taken over ``spec``, a class at lattice degree s
    of row t placed in degree ``shift + t + s - |Delta \\ B|``, or at index u
    of a (constant) row with a span, read reversed, in ``shift + t + u``.  A
    row is printed with ``zeros`` zero degrees after its last, or before its
    first if read reversed."""
    m = rs.rank - mask_size(B)
    if span is None:
        last, top, largest = m, m, max(comb(m, t) << m - t for t in range(m + 1))
    else:  # printed or read off the t = 0 row
        last, top = rs.rank - mask_size(span), 0
        largest = (comb(last, last // 2) if complexes_out is not None else 1) << m
    if largest > LATTICE_CAP:
        raise ResourceLimitError(f"a row over {mask_str(B)} in rank {rs.rank} would hold "
                                 f"{largest} basis vectors, over the cap of {LATTICE_CAP}")
    entries: dict[int, ModulePiece] = {}
    dumps = []
    for t in range(last + 1):
        def row(t=t) -> dict:
            c = exterior_row_complex(rs, B, t, span=span, numbered=numbered)
            data = complex_to_json_dict(c if span is None else reverse_transpose(c))
            for key, fill in (("ranks", 0), ("differentials", []), ("labels", [])):
                pad = [fill] * zeros
                data[key] = data[key] + pad if span is None else pad + data[key]
            return data

        hom = row_homology(rs, B, t, span)
        hom = homology_with_coefficients(hom if span is None else hom.dual(), spec)
        inner = shift + t
        row_dump = None
        for s in hom.nonzero_degrees():
            rank, torsion = hom.free_ranks[s], hom.torsion[s]
            n = total_degree(inner, s, top, COVARIANT)
            if n < 0:
                raise VerificationError(
                    f"nonzero homology at negative total degree {n}",
                    {"row": inner, "lattice_degree": s, "complex": row()})
            _merge(entries, n, rank, torsion)
            row_dump = row_dump or {"row": inner, "homology": {}}
            row_dump["homology"][str(s)] = {"rank": rank, "torsion": list(torsion)}
        if complexes_out is not None:
            complexes_out.append(row())
        if row_dump:
            dumps.append(row_dump)
    built = tensor_with_exterior(ExtTable(entries, COMPLEX_BUILT), center_rank)
    if not _ring_passes(rs, spec):
        built.outside_hypotheses = True
    elif not built.same_modules(closed):
        raise VerificationError(
            f"{what}: complex-built table disagrees with the closed form",
            {"closed": closed.to_json_dict(), "built": built.to_json_dict(), "rows": dumps})
    return built


def cohomology_v(rs: RootSystem, I: int, spec: RingSpec, method: str = CLOSED_FORM,
                 complexes_out: list | None = None) -> ExtTable:
    """Cohomology of the generalized Steinberg module attached to I: one line
    in degree ``|Delta \\ I|``.  The built path stacks the exterior-power row
    complexes over the subset lattice above I."""
    validate_mask(I, rs.rank)
    m = rs.rank - mask_size(I)
    closed = ExtTable({m: ModulePiece(1)})
    if method == CLOSED_FORM:
        return closed
    if method != COMPLEX_BUILT:
        raise ContractError(f"unknown method {method!r}")
    return _built_table(rs, spec, closed, f"cohomology_v(I={mask_str(I)})", I,
                        numbered=False, complexes_out=complexes_out)


def cohomology_rows_exact(rs: RootSystem, I: int) -> bool:
    """Whether the rows t < ``|Delta \\ I|`` of the built ``cohomology_v``
    are exact over Z (a row-cache lookup after that call)."""
    return all(row_homology(rs, I, t).is_trivial()
               for t in range(rs.rank - mask_size(I)))


def ext_v_to_induced(rs: RootSystem, I: int, J: int, spec: RingSpec,
                     method: str = CLOSED_FORM,
                     complexes_out: list | None = None) -> ExtTable:
    """Ext from the generalized Steinberg module of I into the induced module
    of J: the exterior algebra of the J-complement shifted by ``|Delta \\ I|``
    when I and J cover Delta, zero otherwise.

    The built path resolves in the contravariant argument, so each row is the
    reverse-transposed constant row of rank ``C(|Delta \\ J|, t)`` over I u J.
    """
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    delta = full_mask(rs.rank)
    shift = rs.rank - mask_size(I)
    closed = (exterior_table(rs.rank - mask_size(J), shift)
              if I | J == delta else empty_table())
    if method == CLOSED_FORM:
        return closed
    if method != COMPLEX_BUILT:
        raise ContractError(f"unknown method {method!r}")
    return _built_table(rs, spec, closed,
                        f"ext_v_to_induced(I={mask_str(I)}, J={mask_str(J)})", I | J, span=J,
                        shift=mask_size(J & ~I), zeros=mask_size(J & ~I),
                        complexes_out=complexes_out)


def ext_steinberg(rs: RootSystem, I: int, J: int, spec: RingSpec,
                  method: str = CLOSED_FORM, center_rank: int = 0,
                  complexes_out: list | None = None) -> ExtTable:
    """Ext between the generalized Steinberg modules of I and J: one line in
    degree ``|I u J| - |I n J|``, tensored with the binomial table of the
    center.  The built path resolves the second argument: exterior-power rows
    over J whose summands outside the reduction subset K are zero, which are
    the rows over K shifted by ``|J \\ I|``."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    if center_rank < 0:
        raise ConfigurationError("center rank must be non-negative")
    i0, K = steinberg_degree(rs, I, J)
    closed = tensor_with_exterior(ExtTable({i0: ModulePiece(1)}), center_rank)
    if method == CLOSED_FORM:
        return closed
    if method != COMPLEX_BUILT:
        raise ContractError(f"unknown method {method!r}")
    return _built_table(rs, spec, closed, f"ext_steinberg(I={mask_str(I)}, J={mask_str(J)})",
                        K, shift=mask_size(J & ~I), zeros=mask_size(K & ~J),
                        center_rank=center_rank, complexes_out=complexes_out)


# ---------------------------------------------------------------------------
# segment-graph orientations (general-linear cuspidal lines)


@dataclass(frozen=True)
class Orientation:
    """Orientation of the path graph on k segment vertices: bit i set means
    edge i points forward."""

    k: int
    forward: int

    def __post_init__(self):
        if self.k < 1 or self.forward < 0 or self.forward >> max(self.k - 1, 0):
            raise ContractError(f"orientation bits out of range for k={self.k}")

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
    rs = build_root_system("A", k - 1)
    reference = ext_steinberg(rs, I, J, spec, CLOSED_FORM, center_rank=1)
    table = ExtTable({i0: ModulePiece(1), i0 + 1: ModulePiece(1)})
    if not table.same_modules(reference):
        raise VerificationError(
            "cuspidal-line table disagrees with the rank-one-center answer",
            {"cuspidal": table.to_json_dict(), "reference": reference.to_json_dict()})
    return table
