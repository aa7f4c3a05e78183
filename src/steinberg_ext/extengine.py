"""Ext tables for generalized Steinberg representations, two ways.

Every answer is exposed both as the closed form of
:mod:`~steinberg_ext.tables` and as the homology of an independently
constructed subset-lattice complex; the complex-built path asserts agreement
with the closed form whenever the coefficient ring passes the bon / banal
checks, and labels its output "outside hypotheses" otherwise.  The strata
path, the one that reads a Weyl group and no complex, is defined in
:mod:`~steinberg_ext.certificates` and re-exported here on first access,
so the commands that run it never compile :mod:`~steinberg_ext.homology`,
and the commands that build a table never compile the strata path.

Every complex-built table stacks rows t of one builder over one subset B,
:func:`~steinberg_ext.homology.exterior_row_complex` over ``B <= L <= Delta``:
cohomology over I (B = I), Ext between Steinberg modules (B = K, shift
``|J \\ I|``) and Ext into an induced module (B = I u J, span J, reversed,
shift ``|J \\ I|``).  A row depends only on its shape, ``m = |Delta \\ B|``
and t, so each row's integer homology is looked up under ``(m, t)``, and a
row is built as a complex again only to be printed.  Each built table is
kept for the process, with the ring's verdict, under everything the two
depend on (:func:`_built_table`).

Degree bookkeeping is centralized in :func:`total_degree`.  A lattice complex
over ``bottom <= L <= Delta`` is graded by ``s = |Delta \\ L|`` with top
``m = |Delta \\ bottom|``; a class of inner degree ``t`` at lattice degree
``s`` lands in total degree ``t + s - m`` (the resolution sits in the
covariant argument; a contravariant one is read reversed, see
:func:`ext_v_to_induced`).  The two anchor identities pinning this down are
the self-Ext of any object in degree 0 and the top-degree cohomology of the
quotient representation.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from math import comb
from operator import mul

from .errors import ContractError, ResourceLimitError, VerificationError
from .homology import (
    LATTICE_CAP,
    complex_to_json_dict,
    exterior_row_complex,
    homology_with_coefficients,
    reverse_transpose,
    row_homology,
)
from .ringcond import RingSpec, check_ring
from .rootdata import (
    CLOSED_FORM,
    COMPLEX_BUILT,
    RootSystem,
    full_mask,
    mask_size,
    mask_str,
    validate_mask,
)
# the closed forms are imported from here too, as callers always have
from .tables import (
    ExtTable,
    ModulePiece,
    _merge,
    ext_induced_closed,
    ext_steinberg_closed,
    ext_v_to_induced_closed,
    exterior_table,
    induced_cohomology,
    steinberg_degree,
    tensor_with_exterior,
    trivial_cohomology,
)

# and, on first access, the names of two modules no table command compiles:
# the strata path, which reads no complex, and the orientations of zelevinsky
_ELSEWHERE = {
    "certificates": ("VanishingCertificate", "ext_induced_via_strata", "vanishing_certificate"),
    "zelevinsky": ("Orientation", "ext_cuspidal_line", "orientation_from_permutation",
                   "orientation_from_subset", "subset_from_orientation"),
}


def __getattr__(name: str):
    for module, names in _ELSEWHERE.items():
        if name in names:
            return getattr(import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# degree bookkeeping

def total_degree(inner: int, lattice_s: int, lattice_top: int) -> int:
    """Total degree of a class of inner degree ``inner`` at lattice degree
    ``lattice_s`` of a lattice complex with top ``lattice_top``, resolved in
    the covariant slot, the one every built table uses."""
    return inner + lattice_s - lattice_top


# ---------------------------------------------------------------------------
# complex-built paths


@lru_cache(maxsize=None)
def _ring_passes(rs: RootSystem, spec: RingSpec) -> bool:
    """Whether the ring passes its checks for the type, asked once per
    distinct built table."""
    return check_ring(rs, spec).ok


# The most dense matrix entries a dumped table may print, summed over the
# differentials of its rows (about 6 MB of JSON): every cohomology dump of
# rank <= 8 is under it, the E7 ext-vi dump over I = J = {} (10.3 M) is not.
DUMP_CAP = 1 << 21

# Every table built in this process, before any comparison, by what it and
# the ring's verdict depend on, with the homology of its rows and that verdict.
_BUILT_TABLES: dict[tuple, tuple[dict[int, ModulePiece], list, bool]] = {}


def _dense_entries(m: int, last: int, constant: int | None) -> int:
    """Dense entries of the differentials of rows t <= ``last`` over a
    lattice of ``m`` free simple roots: a summand at codimension s has
    C(s, t) basis vectors, or C(constant, t) in a constant row."""
    total = 0
    for t in range(last + 1):
        ranks = [comb(m, s) * comb(s if constant is None else constant, t) for s in range(m + 1)]
        total += sum(map(mul, ranks, ranks[1:]))
    return total


def _built_table(rs: RootSystem, spec: RingSpec, closed: ExtTable, what: str, B: int, *,
                 masks: tuple[int, ...] = (), span: int | None = None, shift: int = 0,
                 zeros: int = 0, numbered: bool = True, center_rank: int = 0,
                 complexes_out: list | None = None, method: str = COMPLEX_BUILT) -> ExtTable:
    """The table ``method`` gives: ``closed`` itself for the closed form, or
    the complex-built table, checked against ``closed``, refused first if
    a row it builds, or a dump of its rows, would be over its cap: rows t up
    to ``|Delta \\ (B n span)|`` with no vertical maps between them, each
    row's homology over ``spec``, a class at lattice degree s of row t placed
    in degree ``shift + t + s - |Delta \\ B|``, or at index u of a (constant)
    row with a span, read reversed, in ``shift + t + u``.  A row is printed
    with ``zeros`` zero degrees after its last, or before its first if read
    reversed.  A disagreement names the table as ``what``, formatted with the
    subsets ``masks``.

    The rows read B through ``|Delta \\ B|`` alone, so a sweep asks for one
    table under many pairs.  Each table is kept for the process, before its
    comparison, with the ring's verdict: under the type, ``|B|``, ``|span|``,
    the shift, the center rank, d and q, all that the two depend on.  The
    zeros are not in the key: only a printed row reads them, and a dump
    builds its rows and reads no kept table.  Each caller still compares the
    table with its own closed form."""
    if method == CLOSED_FORM:
        return closed
    if method != COMPLEX_BUILT:
        raise ContractError(f"unknown method {method!r}")
    key = (rs.series, rs.rank, mask_size(B), None if span is None else mask_size(span), shift,
           center_rank, spec.d, spec.q)
    if complexes_out is None and key in _BUILT_TABLES:
        entries, dumps, passes = _BUILT_TABLES[key]
    else:
        entries, dumps = _build_rows(rs, spec, B, span, shift, zeros, numbered, center_rank,
                                     complexes_out)
        passes = _ring_passes(rs, spec)
        _BUILT_TABLES[key] = entries, dumps, passes
    built = ExtTable(dict(entries))  # the caller's to change, not the kept table
    if not passes:
        built.outside_hypotheses = True
    elif not built.same_modules(closed):
        raise VerificationError(
            f"{what.format(*map(mask_str, masks))}: complex-built table disagrees with the "
            "closed form",
            {"closed": closed.to_json_dict(), "built": built.to_json_dict(), "rows": dumps})
    return built


def _build_rows(rs: RootSystem, spec: RingSpec, B: int, span: int | None, shift: int,
                zeros: int, numbered: bool, center_rank: int,
                complexes_out: list | None) -> tuple[dict[int, ModulePiece], list]:
    """The entries of a built table and the homology of its rows, after the
    caps; see :func:`_built_table`."""
    m = rs.rank - mask_size(B)
    if span is None:
        last, top, largest = m, m, max(comb(m, t) << m - t for t in range(m + 1))
    else:  # printed or read off the t = 0 row
        last, top = rs.rank - mask_size(span), 0
        largest = (comb(last, last // 2) if complexes_out is not None else 1) << m
    if largest > LATTICE_CAP:
        raise ResourceLimitError(f"a row over {mask_str(B)} in rank {rs.rank} would hold "
                                 f"{largest} basis vectors, over the cap of {LATTICE_CAP}")
    if complexes_out is not None:
        dense = _dense_entries(m, last, None if span is None else last)
        if dense > DUMP_CAP:
            raise ResourceLimitError(f"a dump of the rows over {mask_str(B)} in rank {rs.rank} "
                                     f"would print {dense} matrix entries, over the cap of "
                                     f"{DUMP_CAP}")
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
            n = total_degree(inner, s, top)
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
    return tensor_with_exterior(ExtTable(entries), center_rank).entries, dumps


def cohomology_v(rs: RootSystem, I: int, spec: RingSpec, method: str = CLOSED_FORM,
                 complexes_out: list | None = None) -> ExtTable:
    """Cohomology of the generalized Steinberg module attached to I: one line
    in degree ``|Delta \\ I|``.  The built path stacks the exterior-power row
    complexes over the subset lattice above I."""
    validate_mask(I, rs.rank)
    m = rs.rank - mask_size(I)
    closed = ExtTable({m: ModulePiece(1)})
    return _built_table(rs, spec, closed, "cohomology_v(I={})", I, masks=(I,),
                        numbered=False, complexes_out=complexes_out, method=method)


def cohomology_rows_exact(rs: RootSystem, I: int) -> bool:
    """Whether the rows t < ``|Delta \\ I|`` of the built ``cohomology_v``
    are exact over Z (a row-cache lookup after that call)."""
    return all(row_homology(rs, I, t).is_trivial()
               for t in range(rs.rank - mask_size(I)))


def ext_v_to_induced(rs: RootSystem, I: int, J: int, spec: RingSpec,
                     method: str = CLOSED_FORM, complexes_out: list | None = None) -> ExtTable:
    """Ext from the generalized Steinberg module of I into the induced module
    of J (:func:`~steinberg_ext.tables.ext_v_to_induced_closed`).

    The built path resolves in the contravariant argument, so each row is the
    reverse-transposed constant row of rank ``C(|Delta \\ J|, t)`` over I u J.
    """
    return _built_table(rs, spec, ext_v_to_induced_closed(rs, I, J),
                        "ext_v_to_induced(I={}, J={})", I | J, masks=(I, J), span=J,
                        shift=mask_size(J & ~I), zeros=mask_size(J & ~I),
                        complexes_out=complexes_out, method=method)


def ext_steinberg(rs: RootSystem, I: int, J: int, spec: RingSpec,
                  method: str = CLOSED_FORM, center_rank: int = 0,
                  complexes_out: list | None = None) -> ExtTable:
    """Ext between the generalized Steinberg modules of I and J
    (:func:`~steinberg_ext.tables.ext_steinberg_closed`).  The built path
    resolves the second argument: exterior-power rows over J whose summands
    outside the reduction subset K are zero, which are the rows over K
    shifted by ``|J \\ I|``."""
    K = (full_mask(rs.rank) & ~I) | J
    return _built_table(rs, spec, ext_steinberg_closed(rs, I, J, center_rank),
                        "ext_steinberg(I={}, J={})", K, masks=(I, J), shift=mask_size(J & ~I),
                        zeros=mask_size(K & ~J), center_rank=center_rank,
                        complexes_out=complexes_out, method=method)
