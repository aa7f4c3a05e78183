"""The double-coset strata of every pair, checked per descent class, for
``verify``.

``verify --strata on`` prints two lines per pair and needs no
representative to print them.  So an ``--all-pairs`` sweep checks each
pair against the columns that the one reader of a walk
(:func:`~steinberg_ext.weyl._columns`) cuts from the whole walk, a byte per
element each (:class:`DescentClasses`), with no group held, counted one J
at a time; a pair they do not settle (:meth:`DescentClasses.settles`) is
rerun through its representatives
(:func:`~steinberg_ext.certificates.ext_induced_via_strata`).  A single
pair takes its representatives alone, though the classes would cost it
less, because the representatives check more: the partition at t = 2^64,
degree by degree, where :meth:`DescentClasses.covers` counts at t = 1 only.
``dcosets`` and ``ext-induced --method strata``, which print or return each
representative, take them too.  Only ``verify`` imports this module, so no
other command compiles it.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable
from functools import reduce
from itertools import compress
from operator import or_

from .certificates import _delta_candidates
from .ringcond import RingSpec, bon_check
from .rootdata import RootSystem, full_mask, mask_indices, mask_size, parabolic_order
from .tables import ExtTable, ext_induced_closed, exterior_table
from .weyl import _columns, _kilmoyer_sum, _misses, levi_difference_sum


class DescentClasses:
    """A group read by columns, a byte per element each, for checks that
    pay per descent class and not per representative: the one reader over
    the whole walk's ``blocks`` (J = 0) with B = Delta, whose signs are then
    the right masks.

    - ``answers``: whether the columns decide every pair.  The ring passes
      bon (q^e - 1 is a unit for 1 <= e <= m, the largest coefficient of
      2 rho), so every certificate holds: at a right descent b,
      1 <= gamma_b <= (2 rho)_b <= m, as alpha_b lies in N(w) and N(w) in
      Phi+, and every nonzero delta_b lies in 1..m too.  And the group keeps
      what a Weyl group keeps: it has |W| elements; one element has length
      0, wherever it sits, the identity, with left mask 0; every other
      element has a right descent, the direction of its gamma certificate;
      and the reader's Levi guard passes, as ``iter_kostant_reps``'s does.
    """

    def __init__(self, rs: RootSystem, blocks: Iterable[tuple[bytes, bytes]],
                 spec: RingSpec) -> None:
        self._rs, self._spec = rs, spec
        self.orders = tuple(parabolic_order(rs, levi) for levi in range(1 << rs.rank))
        self.order = self.orders[-1]
        self._left, simple, self._right, stray, identity = _columns(rs, blocks, full_mask(rs.rank))
        # each column is dropped once it is read
        self._simple = [int.from_bytes(simple.pop(0), "little") for _ in range(rs.rank)]
        self.answers = (bon_check(rs, spec).ok and identity and not stray
                        and len(self._left) == self.order and self._right.count(0) == 1)
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

    def settles(self, I: int, J: int) -> bool:
        """Whether the classes answer (``answers``) and every stratum of
        (I, J) has its certificate where the theorem puts it (none on the
        identity with J inside I alone):

        - the double cosets partition the group (:meth:`covers`);
        - the identity has a delta candidate when J is not inside I;
        - the table (the identity's exterior algebra when J is inside I,
          zero otherwise) equals the closed form."""
        rs, survives = self._rs, not J & ~I
        table = exterior_table(rs.rank - mask_size(J)) if survives else ExtTable({})
        return (self.answers and self.covers(I, J)
                and (survives or bool(_delta_candidates(rs, I, J,
                                                        levi_difference_sum(rs, J, J & I))))
                and table.same_modules(ext_induced_closed(rs, I, J, self._spec)))
