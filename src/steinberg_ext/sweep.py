"""The checks of ``verify``, of one pair or all pairs, in one loop over the
root system, ring and descent classes built once; the strata per descent
class in a sweep, per representative, from a walk of X_J, for a single pair
and for a sweep pair that fails.  Only ``verify``, which parses, refuses and
prints, imports this module.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import VerificationError
from .ringcond import RingSpec
from .rootdata import COMPLEX_BUILT, RootSystem, full_mask, mask_str


def verify_lines(rs: RootSystem, spec: RingSpec, I: int, J: int, *, all_pairs: bool,
                 strata: bool) -> list[str]:
    """One PASS or FAIL line per check of the pair (I, J), or of every pair
    with ``all_pairs``, in the order the checks ran; the strata checks only
    with ``strata``.  The ring has passed its conditions."""
    from .extengine import cohomology_rows_exact, cohomology_v, ext_steinberg, ext_v_to_induced

    full = full_mask(rs.rank)
    if all_pairs:
        pairs = [(I, J) for J in range(full + 1) for I in range(full + 1)]
        subsets = list(range(full + 1))
    else:
        pairs = [(I, J)]
        subsets = sorted({I, J})
    classes = None
    if strata:
        # the walk is asked for first, so a group over the cap is refused before
        # any check runs.  A sweep cuts its descent classes from the walk's
        # blocks and holds no group; a single pair, and each sweep pair that
        # fails, reads its representatives off its own walk of X_J, and they
        # check the partition at t = 2^64
        from . import weyl
        from .strata import DescentClasses, verify_strata  # only verify compiles it

        walk = weyl._closure(rs)
        if all_pairs:
            classes = DescentClasses(rs, walk, spec)

    methods = (("ext-methods", ext_steinberg), ("vi-methods", ext_v_to_induced))
    label = lru_cache(maxsize=None)(mask_str)  # a subset as printed, once per mask
    lines: list[str] = []

    def record(check: str, subject: str, ok: bool, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'PASS' if ok else 'FAIL'} {check} {subject}{suffix}")

    for I in subsets:
        try:
            cohomology_v(rs, I, spec, COMPLEX_BUILT)
            record("cohomology", f"I={label(I)}", cohomology_rows_exact(rs, I))
        except VerificationError as e:
            record("cohomology", f"I={label(I)}", False, str(e))

    for I, J in pairs:
        pair = f"I={label(I)} J={label(J)}"
        for check, table_of in methods:
            # the ring passed, so a check passes unless the engine's
            # comparison with the closed form raises
            try:
                table_of(rs, I, J, spec, COMPLEX_BUILT)
                record(check, pair, True)
            except VerificationError as e:
                record(check, pair, False, str(e))
        if strata:
            # RingAssumptionError propagates: the dispatcher turns it into exit 3
            try:
                verify_strata(rs, I, J, spec, classes)
                ok, detail = True, ""
            except VerificationError as e:
                ok, detail = False, str(e)
            record("strata", pair, ok, detail)
            record("certificates", pair, ok, detail)
    return lines
