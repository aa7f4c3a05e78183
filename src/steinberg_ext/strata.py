"""The double-coset strata of every pair, checked per descent class, for
``verify``.

``verify --strata on`` prints two lines per pair and needs no
representative to print them.  So each pair of an ``--all-pairs`` sweep is
checked against data taken in one pass over the group's records and masks
(:class:`DescentClasses`), and from it per J, instead of through the
representatives of :func:`~steinberg_ext.weyl.iter_kostant_reps`; the ring
is one verdict, bon, which implies every certificate.  A pair that fails a
check, or any pair over a ring without bon, is rerun through them, so that
it raises what the per-representative path raises.  A single pair, which
would pay the whole pass over the group for its few representatives,
``dcosets`` and ``ext-induced --method strata``, which print or return each
representative, keep that path.  Only ``verify`` imports this module, so no
other command compiles it.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import compress
from operator import or_

from .certificates import _delta_candidates, _unit_value, ext_induced_via_strata
from .ringcond import RingSpec
from .rootdata import (RootSystem, full_mask, mask_indices, mask_size, max_rho_coefficient,
                       support_mask)
from .tables import ExtTable, ext_induced_closed, exterior_table
from .weyl import (
    WeylGroup,
    _identity_images,
    _is_negative,
    _kilmoyer_sum,
    _reader,
    levi_difference_sum,
    parabolic_order,
)


class DescentClasses:
    """A group's elements sorted into the classes that decide its double
    cosets, in one pass over the group, for checks that pay per class and
    not per representative.

    - ``certifies``: whether q^e - 1 is a unit over ``spec`` for 1 <= e <= m,
      the largest coefficient of 2 rho (bon); then every certificate holds.
    - ``classes``: elements counted by descent mask and simple-image map
      (entry b is 1 << i when w(alpha_b) = alpha_i, else 0).
    - ``uncertified``: the masks holding an element of nonzero length with
      no negative simple image, so no gamma certificate (none if genuine).
    - ``suspects``: (mask, b, support) for each element and b where
      w(alpha_b) is negative outside the right mask (support 0), or a
      non-simple positive root whose support misses the left mask.  In a
      genuine group there are none: a representative w of (I, J) with
      w(alpha_j) in Phi_I has w(alpha_j) simple (Kilmoyer), so such a root's
      support meets a left descent of w.
    - ``identity_alone``: the identity is the one element of length 0, with
      mask 0.
    """

    def __init__(self, rs: RootSystem, group: WeylGroup, spec: RingSpec) -> None:
        rank, n = rs.rank, rs.num_positive
        self.order = parabolic_order(rs, full_mask(rank))
        self.size = len(group)
        self.orders = tuple(parabolic_order(rs, levi) for levi in range(1 << rank))
        # tables read at a signed image, a negative one from the end
        simple_bit = [0] * (2 * n + 1)
        simple_bit[1:rank + 1] = (1 << i for i in range(rank))
        support_of = [0] * (2 * n + 1)
        support_of[rank + 1:n + 1] = map(support_mask, rs.positive_roots[rank:])
        misses_left = [[bool(support) and not support & left for support in support_of]
                       for left in range(1 << rank)]
        right_bits = tuple(1 << b for b in range(rank))
        # At a right descent b, 1 <= gamma_b <= (2 rho)_b <= m: alpha_b lies in
        # N(w), and N(w) in Phi+.  Every nonzero delta_b lies in 1..m too.  So
        # under bon any right descent and any delta candidate certifies, and
        # no element's gamma is summed.
        self.certifies = all(_unit_value(spec, e + 1)[1] for e in range(max_rho_coefficient(rs)))
        classes: Counter = Counter()
        uncertified = set()
        suspects = []
        identities = []
        for mask, (images, length) in zip(group.masks, group.records()):
            simple = images[:rank]
            classes[mask, tuple(map(simple_bit.__getitem__, simple))] += 1
            descents = list(map(_is_negative, simple))
            if length == 0:
                identities.append((images, mask))
            elif not any(descents):
                uncertified.add(mask)
            stray = sum(compress(right_bits, descents)) & ~mask
            if stray or any(map(misses_left[mask >> 8].__getitem__, simple)):
                suspects.extend((mask, b, 0) for b in mask_indices(stray))
                suspects.extend((mask, b, support_of[s]) for b, s in enumerate(simple)
                                if misses_left[mask >> 8][s])
        self.classes = classes
        self.uncertified = frozenset(uncertified)
        self.suspects = tuple(suspects)
        self.identity_alone = identities == [(_identity_images(n), 0)]
        self._counts: dict[int, dict[tuple[int, int], int]] = {}

    def counts(self, J: int) -> dict[tuple[int, int], int]:
        """The elements whose right mask misses J, counted by (left mask,
        S_J(w)), where S_J(w) is the set of simple roots w carries some
        alpha_j (j in J) onto; kept per J."""
        counts = self._counts.get(J)
        if counts is None:
            counts = self._counts[J] = {}
            read = _reader(mask_indices(J)) if J else lambda bits: ()
            for (mask, bits), count in self.classes.items():
                if not mask & J:
                    key = (mask >> 8, reduce(or_, read(bits), 0))
                    counts[key] = counts.get(key, 0) + count
        return counts

    def covers(self, I: int, J: int) -> bool:
        """Whether the (W_I, W_J) double cosets partition the group, as
        ``iter_kostant_reps`` checks it, but at t = 1: the group has |W|
        elements, no representative fails the Levi guard of
        ``_intersect_levi``, and Kilmoyer's sizes |W_I||W_J|/|W_{I n S_J(w)}|
        add up to |W| (:func:`~steinberg_ext.weyl._kilmoyer_sum`)."""
        forbidden = I << 8 | J
        if self.size != self.order or any(
                J >> b & 1 and not mask & forbidden and not support & ~I
                for mask, b, support in self.suspects):
            return False
        return self.order == _kilmoyer_sum(self.orders, I, J, (
            (levi & I, count) for (left, levi), count in self.counts(J).items() if not left & I))


def verify_strata(rs: RootSystem, I: int, J: int, spec: RingSpec, group: WeylGroup,
                  classes: DescentClasses | None = None) -> None:
    """Check that every stratum's certificate is where the theorem puts it
    (none on the identity with J inside I alone), per descent class when
    ``classes``, taken from ``group`` over ``spec``, are given and certify
    (:attr:`DescentClasses.certifies`):

    - the double cosets partition the group (:meth:`DescentClasses.covers`);
    - no mask the pair reads is ``uncertified``;
    - the identity has a delta candidate when J is not inside I;
    - the table (the identity's exterior algebra when J is inside I, zero
      otherwise) equals the closed form.

    A pair failing any of them, or given no certifying classes, goes through
    its representatives, which raise what :func:`ext_induced_via_strata`
    raises: a table that disagrees with the closed form raises
    ``VerificationError``."""
    survives = not J & ~I
    if classes is not None and classes.certifies:
        forbidden = I << 8 | J
        table = exterior_table(rs.rank - mask_size(J)) if survives else ExtTable({})
        if (classes.identity_alone and classes.covers(I, J)
                and not any(not mask & forbidden for mask in classes.uncertified)
                and (survives or _delta_candidates(rs, I, J,
                                                   levi_difference_sum(rs, J, J & I)))
                and table.same_modules(ext_induced_closed(rs, I, J, spec))):
            return
    ext_induced_via_strata(rs, I, J, spec, group)
