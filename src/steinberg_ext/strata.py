"""The double-coset strata of every pair, checked per descent class, for
``verify``.

``verify --strata on`` prints two lines per pair and needs no
representative to print them.  So each pair of an ``--all-pairs`` sweep is
checked against columns cut from the blocks of the whole walk, a byte per
element each (:class:`DescentClasses`), with no group held, and counted
from them one J at a time, not through the representatives of
:func:`~steinberg_ext.weyl.iter_kostant_reps`.  The columns give one
verdict, whether the classes answer: the ring passes bon, which implies
every certificate, and the group keeps what a Weyl group keeps.  A pair
that fails a check, and every pair where the classes do not answer, is
rerun through the representatives, read off its own walk of X_J, so that
it raises what the per-representative path raises.  A single pair keeps
that path, though the classes would cost it less, because it checks more:
the representatives check the partition at t = 2^64, degree by degree, and
:meth:`DescentClasses.covers` counts at t = 1 only.  ``dcosets`` and
``ext-induced --method strata``, which print or return each representative,
keep it too.  Only ``verify`` imports this module, so no other command
compiles it.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable
from functools import reduce
from itertools import compress
from operator import or_

from .certificates import _delta_candidates, ext_induced_via_strata
from .ringcond import RingSpec, bon_check
from .rootdata import RootSystem, mask_indices, mask_size, parabolic_order, support_mask
from .tables import ExtTable, ext_induced_closed, exterior_table
from .weyl import _NEGATIVE, _NONZERO, _kilmoyer_sum, _misses, levi_difference_sum


class DescentClasses:
    """A group read by columns, a byte per element each, for checks that
    pay per descent class and not per representative: its lengths, its left
    and right masks, and per simple root alpha_b the signed images w(alpha_b).
    Cut from ``blocks`` as each comes, the (records, left) pairs of the whole
    walk (:func:`~steinberg_ext.weyl._closure` with J = 0); the right mask
    is where the simple images are negative.

    - ``answers``: whether the columns decide every pair.  The ring passes
      bon (q^e - 1 is a unit for 1 <= e <= m, the largest coefficient of
      2 rho), so every certificate holds, and the group keeps what a Weyl
      group keeps: it has |W| elements; one element has length 0, wherever
      it sits, the identity, with left mask 0; every other element has a
      right descent, the direction of its gamma certificate; and no
      w(alpha_b) is a non-simple root of Phi_K while w misses K on the left
      (Kilmoyer with I = K and J = {b}: no such w exists), as
      ``iter_kostant_reps`` guards.
    """

    def __init__(self, rs: RootSystem, blocks: Iterable[tuple[bytes, bytes]],
                 spec: RingSpec) -> None:
        rank, width = rs.rank, rs.num_positive + 1
        self.orders = tuple(parabolic_order(rs, levi) for levi in range(1 << rank))
        self.order = self.orders[-1]
        # a signed image -> 1 << i where it is alpha_i, its support where it is non-simple
        simple = bytes(1 << s - 1 if 0 < s <= rank else 0 for s in range(256))
        supports = bytes(support_mask(rs.positive_roots[s - 1]) if rank < s < width else 0
                         for s in range(256))
        self._left, self._right = left, right = bytearray(), bytearray()
        columns = [bytearray() for _ in range(rank)]
        zeros, kept = 0, True  # the elements of length 0; whether every block keeps the rest
        for records, block_left in blocks:
            view, size = memoryview(records).cast("B"), len(block_left)
            lengths, held = view[::width].tobytes(), int.from_bytes(block_left, "little")
            at = lengths.find(0)
            if at >= 0:  # the identity, if it is the one element of length 0
                zeros += lengths.count(0)
                kept &= (view[at * width:(at + 1) * width] == bytes(range(width))
                         and block_left[at] == 0)
            # At a right descent b, 1 <= gamma_b <= (2 rho)_b <= m: alpha_b lies in N(w),
            # and N(w) in Phi+.  Every nonzero delta_b lies in 1..m too, so under bon any
            # right descent and any delta candidate certifies.  A stray root's support
            # misses the left mask: its column and its AND with the left one differ in 0s.
            signs = 0
            for b, column in enumerate(columns):  # one image column held at a time
                image = view[1 + b::width].tobytes()
                column += image.translate(simple)
                signs |= int.from_bytes(image.translate(_NEGATIVE), "little") << b
                support = image.translate(supports)
                kept &= ((int.from_bytes(support, "little") & held).to_bytes(size, "little")
                         .translate(_NONZERO) == support.translate(_NONZERO))
            left += block_left
            right += signs.to_bytes(size, "little")
        # each column is dropped once it is read
        self._simple = [int.from_bytes(columns.pop(0), "little") for _ in range(rank)]
        self.answers = (bon_check(rs, spec).ok and kept and zeros == 1
                        and len(left) == self.order and right.count(0) == 1)
        self._counts: tuple[int, dict[int, dict[int, int]]] = (-1, {})

    def counts(self, J: int) -> dict[int, dict[int, int]]:
        """The elements whose right mask misses J, counted by left mask, then
        by S_J(w), the set of simple roots w carries some alpha_j (j in J)
        onto: one ``Counter`` over 2-byte keys, the left mask then S_J(w), as
        native uint16s, split back once per distinct key; kept for the last J."""
        if self._counts[0] != J:
            self._counts = J, {}  # the last J's counts go before these are made
            counts, size = self._counts[1], len(self._left)
            keys = bytearray(2 * size)
            keys[::2] = self._left
            keys[1::2] = reduce(or_, (self._simple[j] for j in mask_indices(J)),
                                0).to_bytes(size, "little")
            keep = self._right.translate(_misses(J))
            for key, count in Counter(compress(memoryview(keys).cast("H"), keep)).items():
                left, s_j = key.to_bytes(2, sys.byteorder)
                counts.setdefault(left, {})[s_j] = count
        return self._counts[1]

    def covers(self, I: int, J: int) -> bool:
        """Whether Kilmoyer's sizes |W_I||W_J|/|W_{I n S_J(w)}| add up to |W|
        (:func:`~steinberg_ext.weyl._kilmoyer_sum` at t = 1), as
        ``iter_kostant_reps`` checks at t = 2^64: with ``answers``, the
        (W_I, W_J) double cosets then partition the group."""
        return self.order == _kilmoyer_sum(self.orders, I, J, (
            (levi & I, count) for left, by in self.counts(J).items() if not left & I
            for levi, count in by.items()))


def verify_strata(rs: RootSystem, I: int, J: int, spec: RingSpec,
                  classes: DescentClasses | None = None) -> None:
    """Check that every stratum's certificate is where the theorem puts it
    (none on the identity with J inside I alone), per descent class when
    ``classes``, taken from the group over ``spec``, are given and answer
    (:attr:`DescentClasses.answers`):

    - the double cosets partition the group (:meth:`DescentClasses.covers`);
    - the identity has a delta candidate when J is not inside I;
    - the table (the identity's exterior algebra when J is inside I, zero
      otherwise) equals the closed form.

    A pair failing any of them, or given no classes that answer, goes
    through its representatives, read off a walk of X_J, which raise what
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
    ext_induced_via_strata(rs, I, J, spec)
