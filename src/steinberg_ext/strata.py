"""The double-coset strata of every pair, checked per descent class, for
``verify``.

``verify --strata on`` prints two lines per pair and needs no
representative to print them.  So each pair of an ``--all-pairs`` sweep is
checked against data taken in one pass over the group's records and masks
(:class:`DescentClasses`), and from it one J at a time, instead of through
the representatives of :func:`~steinberg_ext.weyl.iter_kostant_reps`.  The
pass gives one verdict, whether the classes answer: the ring passes bon,
which implies every certificate, and the group keeps what a Weyl group
keeps.  A pair that fails a check, and every pair where the classes do not
answer, is rerun through the representatives, so that it raises what the
per-representative path raises.  A single pair, which would pay the whole
pass over the group for its few representatives, ``dcosets`` and
``ext-induced --method strata``, which print or return each representative,
keep that path.  Only ``verify`` imports this module, so no other command
compiles it.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import getitem, or_

from .certificates import _delta_candidates, _unit_value, ext_induced_via_strata
from .ringcond import RingSpec
from .rootdata import RootSystem, mask_indices, mask_size, max_rho_coefficient, support_mask
from .tables import ExtTable, ext_induced_closed, exterior_table
from .weyl import (WeylGroup, _identity_images, _kilmoyer_sum, _reader, levi_difference_sum,
                   parabolic_order)

_STRAY = 1 << 16  # the code of a non-simple root whose support misses the left mask


class DescentClasses:
    """A group's elements sorted into the classes that decide its double
    cosets, in one pass over the group, for checks that pay per class and
    not per representative.

    - ``classes``: elements counted by descent mask and simple-image codes:
      code b is 1 << i when w(alpha_b) = alpha_i, 1 << (8 + b) when it is
      negative, ``_STRAY`` when it is a non-simple root whose support misses
      the left mask, else 0.
    - ``answers``: whether the classes decide every pair.  The ring passes
      bon (q^e - 1 is a unit for 1 <= e <= m, the largest coefficient of
      2 rho), so every certificate holds, and the group keeps what a Weyl
      group keeps: it has |W| elements; the identity is alone at length 0,
      with mask 0; every other element has a right descent, the direction of
      its gamma certificate; the right mask is where the simple images are
      negative; and no w(alpha_b) is a non-simple root of Phi_K while w
      misses K on the left (Kilmoyer with I = K and J = {b}: no such w
      exists), which is the Levi guard of ``_intersect_levi``.
    """

    def __init__(self, rs: RootSystem, group: WeylGroup, spec: RingSpec) -> None:
        rank, n = rs.rank, rs.num_positive
        self.orders = tuple(parabolic_order(rs, levi) for levi in range(1 << rank))
        self.order = self.orders[-1]
        # per left mask and b, the codes read at a signed image, a negative
        # one from the end
        supports = tuple(map(support_mask, rs.positive_roots[rank:]))
        tables = []
        for left in range(1 << rank):
            positive = [0, *(1 << i for i in range(rank))]
            positive += (0 if support & left else _STRAY for support in supports)
            tables.append(tuple(positive + [1 << 8 + b] * n for b in range(rank)))
        classes: Counter = Counter()
        zero = []  # the elements of length 0, with their masks
        for mask, (images, length) in zip(group.masks, group.records()):
            classes[mask, tuple(map(getitem, tables[mask >> 8], images[:rank]))] += 1
            if not length:
                zero.append((images, mask))
        self.classes = classes
        identity = (0, tuple(1 << i for i in range(rank)))
        # At a right descent b, 1 <= gamma_b <= (2 rho)_b <= m: alpha_b lies in
        # N(w), and N(w) in Phi+.  Every nonzero delta_b lies in 1..m too.  So
        # under bon any right descent and any delta candidate certifies.  The
        # codes' bits from 8 up are the right mask exactly when the signs
        # match it and no image is stray; a right mask of 0 is the identity's.
        self.answers = (all(_unit_value(spec, e + 1)[1] for e in range(max_rho_coefficient(rs)))
                        and len(group) == self.order and zero == [(_identity_images(n), 0)]
                        and all(reduce(or_, codes, 0) >> 8 == mask & 0xFF
                                and (mask & 0xFF or (mask, codes) == identity and count == 1)
                                for (mask, codes), count in classes.items()))
        self._counts: tuple[int, dict[int, dict[int, int]]] = (-1, {})

    def counts(self, J: int) -> dict[int, dict[int, int]]:
        """The elements whose right mask misses J, counted by left mask, then
        by S_J(w), the set of simple roots w carries some alpha_j (j in J)
        onto; kept for the last J asked only."""
        if self._counts[0] != J:
            self._counts = J, {}  # the last J's counts go before these are made
            counts = self._counts[1]
            read = _reader(mask_indices(J)) if J else lambda codes: ()
            for (mask, codes), count in self.classes.items():
                if not mask & J:
                    by = counts.setdefault(mask >> 8, {})
                    levi = reduce(or_, read(codes), 0)
                    by[levi] = by.get(levi, 0) + count
        return self._counts[1]

    def covers(self, I: int, J: int) -> bool:
        """Whether Kilmoyer's sizes |W_I||W_J|/|W_{I n S_J(w)}| add up to |W|
        (:func:`~steinberg_ext.weyl._kilmoyer_sum` at t = 1), as
        ``iter_kostant_reps`` checks at t = 2^64: with ``answers``, the
        (W_I, W_J) double cosets then partition the group."""
        return self.order == _kilmoyer_sum(self.orders, I, J, (
            (levi & I, count) for left, by in self.counts(J).items() if not left & I
            for levi, count in by.items()))


def verify_strata(rs: RootSystem, I: int, J: int, spec: RingSpec, group: WeylGroup,
                  classes: DescentClasses | None = None) -> None:
    """Check that every stratum's certificate is where the theorem puts it
    (none on the identity with J inside I alone), per descent class when
    ``classes``, taken from ``group`` over ``spec``, are given and answer
    (:attr:`DescentClasses.answers`):

    - the double cosets partition the group (:meth:`DescentClasses.covers`);
    - the identity has a delta candidate when J is not inside I;
    - the table (the identity's exterior algebra when J is inside I, zero
      otherwise) equals the closed form.

    A pair failing any of them, or given no classes that answer, goes
    through its representatives, which raise what
    :func:`ext_induced_via_strata` raises: a table that disagrees with the
    closed form raises ``VerificationError``."""
    survives = not J & ~I
    if classes is not None and classes.answers:
        table = exterior_table(rs.rank - mask_size(J)) if survives else ExtTable({})
        if (classes.covers(I, J)
                and (survives or _delta_candidates(rs, I, J,
                                                   levi_difference_sum(rs, J, J & I)))
                and table.same_modules(ext_induced_closed(rs, I, J, spec))):
            return
    ext_induced_via_strata(rs, I, J, spec, group)
