"""The checks of ``verify``, of one pair or all pairs, in one loop over the
root system, ring and descent classes built once, keeping only the
failures; the strata as :mod:`~steinberg_ext.strata` says.  Only
``verify``, which parses, refuses and prints, imports this module."""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .errors import VerificationError
from .ringcond import RingSpec
from .rootdata import COMPLEX_BUILT, RootSystem, full_mask, mask_str


def verify_lines(rs: RootSystem, spec: RingSpec, I: int, J: int, *, all_pairs: bool,
                 strata: bool) -> tuple[list[str], Iterator[str]]:
    """The sorted FAIL lines of the checks of the pair (I, J), or of every
    pair with ``all_pairs``, and a generator of the PASS lines, which sort
    after them; the strata checks only with ``strata``.  Every check has run
    on return.  The ring has passed its conditions."""
    from .extengine import cohomology_rows_exact, cohomology_v, ext_steinberg, ext_v_to_induced

    subsets = range(full_mask(rs.rank) + 1) if all_pairs else sorted({I, J})
    label = lru_cache(maxsize=None)(mask_str)  # a subset as printed, once per mask
    if strata:
        # the walk is asked for first, so a group over the cap is refused before
        # any check runs
        from . import weyl
        from .certificates import ext_induced_via_strata
        from .strata import DescentClasses  # only verify compiles it

        walk = weyl._closure(rs)
        classes = DescentClasses(rs, walk, spec) if all_pairs else None

    failed: dict[tuple[str, int, int], str] = {}  # (check, I, J or -1): its detail

    def try_check(check: str, A: int, B: int, run, *args) -> None:
        # the ring passed, so a check passes unless the engine's comparison with the
        # closed form raises; RingAssumptionError propagates, and exits 3
        try:
            run(rs, A, *args)
        except VerificationError as e:
            failed[check, A, B] = str(e)

    for K in subsets:
        try_check("cohomology", K, -1, cohomology_v, spec, COMPLEX_BUILT)
        if ("cohomology", K, -1) not in failed and not cohomology_rows_exact(rs, K):
            failed["cohomology", K, -1] = ""
    for A, B in ((A, B) for B in subsets for A in subsets) if all_pairs else [(I, J)]:
        try_check("ext-methods", A, B, ext_steinberg, B, spec, COMPLEX_BUILT)
        try_check("vi-methods", A, B, ext_v_to_induced, B, spec, COMPLEX_BUILT)
        if strata and not (all_pairs and classes.settles(A, B)):
            try_check("strata", A, B, ext_induced_via_strata, B, spec)

    def subject(A: int, B: int) -> str:
        return f"I={label(A)}" + (f" J={label(B)}" if B >= 0 else "")

    # a strata pair's one verdict prints as its certificates and its strata line
    fails = sorted(f"FAIL {check} {subject(A, B)}" + (f" ({detail})" if detail else "")
                   for (verdict, A, B), detail in failed.items()
                   for check in (("certificates", verdict) if verdict == "strata" else (verdict,)))
    # each label ends in its only "}", so lines in (label(I), label(J)) order are sorted
    ordered = sorted(subsets, key=label)

    def passed() -> Iterator[str]:
        for check in ("certificates", "cohomology", "ext-methods", "strata", "vi-methods"):
            verdict = "strata" if check == "certificates" else check
            if verdict == "strata" and not strata:
                continue
            for A, B in (((A, -1) for A in ordered) if check == "cohomology" else
                         ((A, B) for A in ordered for B in ordered) if all_pairs else [(I, J)]):
                if (verdict, A, B) not in failed:
                    yield f"PASS {check} {subject(A, B)}"

    return fails, passed()
