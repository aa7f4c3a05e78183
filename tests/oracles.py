"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the package's own code paths: roots are
closed over the full orbit (negatives included), Weyl groups are integer
matrices acting on simple-root coordinates, determinants come from Bareiss
elimination and ranks from Fraction-based Gaussian elimination.  The
exceptions work in the package's signed-image encoding or on its own
builders:

- the definitions the package once held and no command runs, kept as they
  were written: the general gamma and delta formulas and the Levi wrapper
  (``gamma_exponents``, ``delta_exponents``, ``intersect_levi``) that
  ``kostant_reps`` specialises to minimal representatives, the readings
  of one representative that ``kostant_reps`` makes by columns instead
  (``_intersect_levi``, ``_is_negative``, ``_inversion_sum``), the element
  helpers ``simple_reflection``, ``compose_images`` and ``permutes_roots``,
  the Poincaré polynomials as coefficient lists (``poincare_times``,
  ``poincare_over``, ``layer_sizes``) that pin the package's values at
  t = 2^64, the descent-mask scan ``descent_masks`` that pins the
  enumerator's left masks and the class pass's right ones, and
  ``integer_rank``;
- the held group the package once had, ``WeylGroup`` (its flat records and
  two mask columns, an element decoded on each read), filled from the whole
  walk's blocks by ``generate_weyl``; ``weyl_group``, which builds one (a
  corrupted one, say) from an element list; ``blocks``, which gives a held
  group's X_J as the walk yields blocks, and ``walking``, a stand-in walk
  over them;
- ``kostant_reps_by_filter``, the representatives as the package read them
  before it walked X_J: one filter over the whole group's mask columns,
  which pins the walk of X_J; ``kostant_reps_by_enumeration``, which
  enumerates double cosets to pin the descent-set version; and the former
  seen-set Weyl closure, which pins the descent-guarded enumerator;
- the three former row builders at the end, kept as written (on the
  package's ``subset_lattice_complex``) to pin the one gated row builder
  that replaced them.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, islice, product
from math import comb
from operator import attrgetter, eq, itemgetter

from steinberg_ext import weyl
from steinberg_ext.errors import ConfigurationError, ContractError
from steinberg_ext.homology import ChainComplex, IntMatrix, smith_divisors, subset_lattice_complex
from steinberg_ext.rootdata import (
    Coords,
    RootSystem,
    full_mask,
    levi_root_indices,
    mask_indices,
    mask_size,
    mask_str,
    parabolic_exponents,
    parabolic_order,
    validate_mask,
    zero_coords,
)
from steinberg_ext.weyl import (
    DoubleCosetRep,
    SignedImages,
    WeylElement,
    _action_table,
    _root_sum,
    _simple_reflection_images,
)


def full_root_orbit(cartan) -> set[tuple[int, ...]]:
    """Orbit of the simple roots under all simple reflections (both signs)."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    def reflect(v, i):
        pairing = sum(v[j] * cartan[i][j] for j in range(rank))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    orbit = set(simple) | {tuple(-x for x in v) for v in simple}
    changed = True
    while changed:
        changed = False
        for v in list(orbit):
            for i in range(rank):
                w = reflect(v, i)
                if w not in orbit:
                    orbit.add(w)
                    changed = True
    return orbit


def positive_roots_oracle(cartan) -> set[tuple[int, ...]]:
    return {v for v in full_root_orbit(cartan) if all(x >= 0 for x in v)}


def reflection_matrix(cartan, i) -> tuple[tuple[int, ...], ...]:
    """Matrix of the simple reflection on simple-root coordinates (columns
    are images of the simple roots)."""
    rank = len(cartan)
    cols = []
    for j in range(rank):
        e = [1 if k == j else 0 for k in range(rank)]
        e[i] -= cartan[i][j]
        cols.append(e)
    return tuple(tuple(cols[j][k] for j in range(rank)) for k in range(rank))


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def mat_apply(a, v):
    n = len(a)
    return tuple(sum(a[i][k] * v[k] for k in range(n)) for i in range(n))


def weyl_matrix_group(cartan) -> set[tuple[tuple[int, ...], ...]]:
    """Closure of the simple-reflection matrices under multiplication."""
    rank = len(cartan)
    gens = [reflection_matrix(cartan, i) for i in range(rank)]
    identity = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                gm = mat_mul(g, m)
                if gm not in group:
                    group.add(gm)
                    nxt.append(gm)
        frontier = nxt
    return group


def matrix_length(m, positive_roots) -> int:
    """Number of positive roots sent to negative vectors."""
    count = 0
    for v in positive_roots:
        image = mat_apply(m, v)
        if all(x <= 0 for x in image) and any(image):
            count += 1
    return count


def double_coset_partition(cartan, gens_i, gens_j):
    """Partition of the matrix Weyl group into (W_I, W_J) double cosets.
    ``gens_i`` / ``gens_j`` are simple-root index lists."""
    group = weyl_matrix_group(cartan)
    rank = len(cartan)
    identity = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))

    def subgroup(idxs):
        gens = [reflection_matrix(cartan, i) for i in idxs]
        sub = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for m in frontier:
                for g in gens:
                    gm = mat_mul(g, m)
                    if gm not in sub:
                        sub.add(gm)
                        nxt.append(gm)
            frontier = nxt
        return sub

    wi, wj = subgroup(gens_i), subgroup(gens_j)
    remaining = set(group)
    cosets = []
    while remaining:
        w = next(iter(remaining))
        coset = {mat_mul(x, mat_mul(w, y)) for x, y in product(wi, wj)}
        cosets.append(coset)
        remaining -= coset
    return cosets


def bareiss_determinant(rows) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_rank(rows, ncols=None) -> int:
    """Rank via Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(nrows):
            if i != row and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def dense_product(a_rows, b_rows, inner: int, ncols: int) -> list[list[int]]:
    """Schoolbook product of two dense integer matrices given by rows, with
    the shared dimension and the column count spelled out (a factor may have
    no rows)."""
    return [[sum(a[k] * b_rows[k][j] for k in range(inner)) for j in range(ncols)]
            for a in a_rows]


def _prime_powers(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            power = 1
            while n % p == 0:
                n //= p
                power *= p
            out.append(power)
        p += 1
    if n > 1:
        out.append(n)
    return out


def _prime_of(power: int) -> int:
    p = 2
    while p * p <= power:
        if power % p == 0:
            return p
        p += 1
    return power


def invariant_factors_by_factoring(moduli) -> list[int]:
    """Invariant factors (largest first) of a direct sum of cyclic groups,
    by splitting every modulus into prime powers and multiplying the largest
    remaining power of each prime together, round after round."""
    per_prime: dict[int, list[int]] = {}
    for m in moduli:
        for power in _prime_powers(m):
            per_prime.setdefault(_prime_of(power), []).append(power)
    for powers in per_prime.values():
        powers.sort(reverse=True)
    factors = []
    while any(per_prime.values()):
        factor = 1
        for powers in per_prime.values():
            if powers:
                factor *= powers.pop(0)
        factors.append(factor)
    return factors


# ---------------------------------------------------------------------------
# definitions the package once held, as they were written


def integer_rank(m: IntMatrix) -> int:
    return len(smith_divisors(m))


def poincare_times(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poincare_over(a: list[int], b: list[int]) -> list[int]:
    """The quotient of a polynomial by one that divides it with constant
    term 1 (a Poincaré polynomial), as coefficient lists."""
    rest, out = list(a), []
    for k in range(len(a) - len(b) + 1):
        out.append(rest[k])
        for j, y in enumerate(b):
            rest[k + j] -= out[k] * y
    return out


def layer_sizes(rs: RootSystem, levi: int) -> list[int]:
    """The number of elements of each length in W_levi: the coefficients of
    the Poincaré polynomial, the product of 1 + q + ... + q^m over the
    exponents m."""
    sizes = [1]
    for m in parabolic_exponents(rs, levi):
        sizes = poincare_times(sizes, [1] * (m + 1))
    return sizes


def _identity_images(n: int) -> SignedImages:
    return tuple(range(1, n + 1))


def _reader(positions: SignedImages) -> Callable[[SignedImages], SignedImages]:
    """The entries of a tuple at ``positions``, read in C as one tuple."""
    if len(positions) == 1:  # itemgetter would return the bare entry
        (k,) = positions
        return lambda table: (table[k],)
    return itemgetter(*positions)


def _length_of(images: SignedImages) -> int:
    return sum(1 for s in images if s < 0)


def compose_images(u: SignedImages, v: SignedImages) -> SignedImages:
    """Signed images of u∘v (apply v first, then u)."""
    return _reader(v)(_action_table(u))


def _element(images: SignedImages) -> WeylElement:
    return WeylElement(images, _length_of(images))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _element(_simple_reflection_images(rs, i))


def permutes_roots(rs: RootSystem, w: WeylElement) -> bool:
    """Check that the stored signed images really permute the root set and
    that the stored length matches the root action."""
    images = [abs(s) - 1 for s in w.signed_images]
    return sorted(images) == list(range(rs.num_positive)) and \
        w.length == _length_of(w.signed_images)


def _intersect_levi(rs: RootSystem, images: SignedImages, simple_j: tuple[int, ...],
                    phi_i: frozenset[int]) -> tuple[int, int]:
    """The Levi subset w carries into I, and the subset of J it comes from."""
    levi = source = 0
    for b in simple_j:
        j = images[b] - 1
        if j < 0:
            raise ContractError(
                f"w(alpha_{b}) is negative; not a minimal double-coset representative")
        if j in phi_i:
            if j >= rs.rank:
                raise ContractError(
                    f"w(alpha_{b}) lies in the I-Levi but is not simple; "
                    "not a minimal double-coset representative")
            levi |= 1 << j
            source |= 1 << b
    return levi, source


_is_negative = (0).__gt__


def _inversion_sum(rs: RootSystem, images: SignedImages) -> Coords:
    """Sum of the inversion set N(w) = {alpha > 0 : w(alpha) < 0}."""
    return tuple(map(sum, zip(zero_coords(rs.rank),
                              *compress(rs.positive_roots, map(_is_negative, images)))))


def _gamma(rs: RootSystem, images: SignedImages, phi_i: frozenset[int],
           phi_j: frozenset[int]) -> Coords:
    return _root_sum(rs, [k for k, s in enumerate(images)
                          if s < 0 and k not in phi_j and -1 - s not in phi_i])


def _delta(rs: RootSystem, images: SignedImages, phi_i: frozenset[int],
           phi_j: frozenset[int]) -> Coords:
    return _root_sum(rs, [k for k in phi_j if images[k] > 0 and images[k] - 1 not in phi_i])


def gamma_exponents(rs: RootSystem, w: WeylElement, I: int, J: int) -> Coords:
    """Sum of the positive roots outside the J-Levi that w sends to negative
    roots outside the (negated) I-Levi."""
    phi_j = levi_root_indices(rs, J)
    return _gamma(rs, w.signed_images, levi_root_indices(rs, I), phi_j)


def delta_exponents(rs: RootSystem, w: WeylElement, I: int, J: int) -> Coords:
    """Sum of the J-Levi positive roots that w keeps positive outside the
    I-Levi."""
    phi_j = levi_root_indices(rs, J)
    return _delta(rs, w.signed_images, levi_root_indices(rs, I), phi_j)


def intersect_levi(rs: RootSystem, w: WeylElement, I: int, J: int) -> int:
    """The subset of J whose simple roots w carries into I (as simple roots).

    Defined for minimal-length double-coset representatives only; for those,
    any beta in J landing inside the I-Levi must land on a simple root.
    """
    return _intersect_levi(rs, w.signed_images, mask_indices(J),
                           levi_root_indices(rs, I))[0]


def _descent_scan(rs: RootSystem, images_of: Iterable[Sequence[int]]) -> Iterator[int]:
    """``left << 8 | right`` for each sequence of signed images, one at a
    time.  Bit j of the right mask is set when w(alpha_j) < 0, bit i of the
    left mask when w^-1(alpha_i) < 0, that is when -alpha_i is an image."""
    left_of = {frozenset(-1 - i for i in mask_indices(m)): m << 8
               for m in range(1 << rs.rank)}
    negated_simple = frozenset(range(-rs.rank, 0))
    right_bits = tuple(1 << j for j in range(rs.rank))
    for images in images_of:  # compress reads only the first rank images
        yield (left_of[negated_simple.intersection(images)]
               + sum(compress(right_bits, map(_is_negative, images))))


def descent_masks(rs: RootSystem, group: Sequence[WeylElement]) -> array:
    """The :func:`_descent_scan` of every element, in group order, as uint16."""
    return array("H", _descent_scan(rs, map(attrgetter("signed_images"), group)))


class WeylGroup(Sequence):
    """A Weyl group in group order, as :func:`~steinberg_ext.weyl._closure`
    yields it: the flat records (per element its length, then its signed
    images, one signed byte each) and the left masks, a byte per element,
    with no element built: each read decodes its element from the records
    (through ``weyl.WeylElement``, so a test can count the decodes).  Beside
    them the group keeps the right masks, a byte per element, which the walk
    does not yield: given, or the right half of the oracle's descent scan.
    Slices are tuples; a group equals any sequence of its elements."""

    def __init__(self, rs: RootSystem, records: array, left: bytearray,
                 right: bytearray | None = None) -> None:
        self._width = rs.num_positive + 1
        self._records = records
        self.left = left
        if right is None:  # scanned from the records, with no element built
            width = self._width
            right = bytearray(m & 0xFF for m in _descent_scan(
                rs, (records[start + 1:start + width] for start in range(0, len(records), width))))
        self.right = right

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        start = range(len(self))[index] * self._width
        return weyl.WeylElement(tuple(self._records[start + 1:start + self._width]),
                                self._records[start])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def filled(rs: RootSystem, blocks: Iterable[tuple[bytes, bytes]]) -> WeylGroup:
    """The group of ``rs`` from its ``blocks`` (as the whole walk yields
    them): each fills its part of the arrays the group keeps, preallocated,
    as it comes; blocks that fall short of |W| are refused, not padded."""
    count, width = parabolic_order(rs, full_mask(rs.rank)), rs.num_positive + 1
    records, left = array("b", [0]) * (count * width), bytearray(count)
    view, start = memoryview(records).cast("B"), 0
    for block in blocks:
        end = start + len(block[1])
        view[start * width:end * width] = memoryview(block[0]).cast("B")
        left[start:end], start = block[1], end
        del block  # dropped before the next is read
    if start != count:
        raise ContractError(f"{start} elements in W({rs.type_name()}), of order {count}")
    return WeylGroup(rs, records, left)


@lru_cache(maxsize=None)
def generate_weyl(rs: RootSystem) -> WeylGroup:
    """The full Weyl group, identity first, sorted by length: the whole
    walk, held."""
    return filled(rs, weyl._closure(rs))


def weyl_group(rs: RootSystem, elements: Sequence[WeylElement],
               masks: Sequence[int] | None = None) -> WeylGroup:
    """A group of ``elements`` in their order, right or corrupted: their
    records packed, and their descent masks (``left << 8 | right``) scanned
    unless given, split into the group's left and right columns."""
    records = array("b", chain.from_iterable((w.length, *w.signed_images) for w in elements))
    masks = descent_masks(rs, elements) if masks is None else masks
    return WeylGroup(rs, records, bytearray(m >> 8 for m in masks),
                     bytearray(m & 0xFF for m in masks))


def masks(group: WeylGroup) -> array:
    """The descent masks of ``group`` as :func:`descent_masks` gives them,
    ``left << 8 | right`` per element in uint16, from its two columns."""
    return array("H", (left << 8 | right for left, right in zip(group.left, group.right)))


def blocks(group: WeylGroup, size: int | None = None,
           J: int = 0) -> list[tuple[array, bytearray]]:
    """A held group's X_J, its elements whose right mask misses J, as blocks
    of records and left masks, as :func:`~steinberg_ext.weyl._closure`
    yields them: one block, or blocks of at most ``size`` elements in group
    order."""
    width = group._width
    kept = [p for p, right in enumerate(group.right) if not right & J]
    records = array("b", chain.from_iterable(group._records[p * width:(p + 1) * width]
                                             for p in kept))
    left = bytearray(group.left[p] for p in kept)
    if size is None:
        return [(records, left)]
    return [(records[p * width:(p + size) * width], left[p:p + size])
            for p in range(0, len(kept), size)]


def walking(group: WeylGroup, size: int | None = None):
    """A stand-in for :func:`~steinberg_ext.weyl._closure` that yields the
    :func:`blocks` of ``group``'s X_J, a corrupted group's say."""
    return lambda rs, J=0: iter(blocks(group, size, J))


def _filter_rep_blocks(rs: RootSystem, I: int, J: int, group: WeylGroup, keep: bytes):
    """The representatives ``keep`` marks, at most 64 at a time: their
    records joined, and levi(w) and L', a byte each, from the image columns
    of the alpha_j, j in J.  ``ContractError`` at the first with a negative
    image, a non-simple root of the I-Levi as an image, or a negative
    length."""
    width, rank = group._width, rs.rank
    simple_j, phi_i = mask_indices(J), levi_root_indices(rs, I)
    into_i = bytes(1 << s - 1 if 0 < s <= rank and s - 1 in phi_i else 0 for s in range(256))
    stray = bytes(not 0 < s < 128 or s > rank and s - 1 in phi_i for s in range(256))
    records, positions = memoryview(group._records).cast("B"), compress(range(len(group)), keep)
    while True:
        buffer = bytearray()
        for p in islice(positions, 64):
            buffer += records[p * width:(p + 1) * width]
        if not buffer:
            return
        images, lengths = [buffer[1 + b::width] for b in simple_j], buffer[::width]
        wrong = int.from_bytes(lengths.translate(weyl._NEGATIVE), "little")
        for image in images:
            wrong |= int.from_bytes(image.translate(stray), "little")
        if wrong:
            e = ((wrong & -wrong).bit_length() - 1) // 8
            for b, s in zip(simple_j, (image[e] for image in images)):
                if stray[s]:
                    why = "lies in the I-Levi but is not simple" if 0 < s < 128 else "is negative"
                    raise ContractError(f"w(alpha_{b}) {why}; not a minimal double-coset "
                                        "representative")
            raise ContractError(f"a representative of length {lengths[e] - 256}: double "
                                "cosets do not partition the Weyl group by length")
        levi = source = 0
        for b, image in zip(simple_j, images):
            column = image.translate(into_i)
            levi |= int.from_bytes(column, "little")
            source |= int.from_bytes(column.translate(weyl._NONZERO), "little") << b
        count = len(lengths)
        yield buffer, levi.to_bytes(count, "little"), source.to_bytes(count, "little")


def kostant_reps_by_filter(rs: RootSystem, I: int, J: int,
                           group: WeylGroup | None = None) -> tuple[DoubleCosetRep, ...]:
    """The minimal double-coset representatives as the package read them
    from a held group before it walked X_J: one filter over the whole
    group's two mask columns keeps the elements whose masks miss J on the
    right and I on the left, and a first pass checks the group's size and
    Kilmoyer's sum at t = 2^64 before any is decoded."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group = generate_weyl(rs) if group is None else group
    full, width, n = full_mask(rs.rank), group._width, rs.num_positive
    if len(group) != parabolic_order(rs, full):
        raise ContractError(f"{len(group)} group elements; |W({rs.type_name()})| = "
                            f"{parabolic_order(rs, full)}: double cosets do not partition the "
                            "Weyl group")
    keep = (int.from_bytes(group.left.translate(weyl._misses(I)), "little")
            & int.from_bytes(group.right.translate(weyl._misses(J)), "little")
            ).to_bytes(len(group), "little")
    tally: Counter[tuple[int, int]] = Counter()
    for buffer, levi, _ in _filter_rep_blocks(rs, I, J, group, keep):
        tally.update(zip(levi, buffer[::width]))
    weights: Counter[int] = Counter()
    for (levi, length), count in tally.items():
        weights[levi] += count << weyl._DIGIT * length
    values = {levi: weyl._poincare(rs, levi) for levi in (I, J, full, *weights)}
    covered = weyl._kilmoyer_sum(values, I, J, weights.items())
    if covered != values[full]:
        raise ContractError(f"double cosets cover {weyl._digits(covered)} group elements by "
                            f"length; W({rs.type_name()})(t) has {weyl._digits(values[full])}: "
                            "they do not partition the Weyl group by length")
    lanes = [[(k, root[c]) for k, root in enumerate(rs.positive_roots) if root[c]]
             for c in range(rs.rank)]
    reps = []
    for buffer, levi, source in _filter_rep_blocks(rs, I, J, group, keep):
        negative, signed = buffer.translate(weyl._NEGATIVE), memoryview(buffer).cast("b")
        signs = [int.from_bytes(negative[1 + k::width], "little") for k in range(n)]
        gammas = zip(*[sum(signs[k] * c for k, c in lane).to_bytes(len(levi), "little")
                       for lane in lanes])
        for start, gamma, levi_w, source_w in zip(range(0, len(buffer), width), gammas,
                                                  levi, source):
            w = WeylElement(tuple(signed[start + 1:start + width]), signed[start])
            reps.append(DoubleCosetRep(w=w, I=I, J=J, length=w.length, gamma_exp=gamma,
                                       delta_exp=weyl.levi_difference_sum(rs, J, source_w),
                                       levi=levi_w))
    return tuple(reps)


def weyl_closure_by_seen_set(rs: RootSystem, levi: int) -> tuple[WeylElement, ...]:
    """The package's former Weyl enumerator, as it was written: a
    breadth-first closure from the identity under left multiplication by the
    simple reflections of ``levi``, composing every element with every
    generator and keeping the products not seen before.  The elements first
    reached at step L are those of length L, so sorting each step by its
    images gives group order."""
    tables = [_action_table(_simple_reflection_images(rs, i)) for i in mask_indices(levi)]
    step = [_identity_images(rs.num_positive)]
    seen = set(step)
    elements: list[WeylElement] = []
    length = 0
    while step:
        elements.extend(WeylElement(images, length) for images in sorted(step))
        nxt = []
        for w in step:
            images_of = _reader(w)
            for table in tables:
                gw = images_of(table)  # compose_images(g, w)
                if gw not in seen:
                    seen.add(gw)
                    nxt.append(gw)
        step = nxt
        length += 1
    return tuple(elements)


@lru_cache(maxsize=None)
def _simple_multiplication(rs):
    """The group in package order, and for each simple reflection s the
    positions of s*w and of w*s for every group element w."""
    group = generate_weyl(rs)
    index = {w.signed_images: p for p, w in enumerate(group)}
    gens = [simple_reflection(rs, i).signed_images for i in range(rs.rank)]
    left = [[index[compose_images(g, w.signed_images)] for w in group] for g in gens]
    right = [[index[compose_images(w.signed_images, g)] for w in group] for g in gens]
    return group, left, right


def kostant_reps_by_enumeration(rs, I: int, J: int):
    """Minimal double-coset representatives by enumerating every coset
    W_I w W_J element by element, in group order.  A coset is the closure of
    w under left multiplication by the simple reflections of I and right
    multiplication by those of J; each coset is checked to have a unique
    element of minimal length."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group, left, right = _simple_multiplication(rs)
    moves = [left[i] for i in mask_indices(I)] + [right[j] for j in mask_indices(J)]
    seen = [False] * len(group)
    reps = []
    for p, w in enumerate(group):  # ascending length, so w is minimal in its coset
        if seen[p]:
            continue
        seen[p] = True
        coset = [p]
        for q in coset:  # grows while it is read: a breadth-first closure
            for move in moves:
                if not seen[move[q]]:
                    seen[move[q]] = True
                    coset.append(move[q])
        minimal = [q for q in coset if group[q].length == w.length]
        if len(minimal) != 1:
            raise ContractError(
                f"double coset of length {w.length} in {rs.type_name()} has "
                f"{len(minimal)} minimal elements; expected a unique one")
        reps.append(DoubleCosetRep(
            w=w, I=I, J=J, length=w.length,
            gamma_exp=gamma_exponents(rs, w, I, J),
            delta_exp=delta_exponents(rs, w, I, J),
            levi=intersect_levi(rs, w, I, J),
        ))
    return tuple(reps)


# ---------------------------------------------------------------------------
# the former row builders, each as it was written


def exterior_row_complex(rs: RootSystem, bottom: int, t: int) -> ChainComplex:
    """Row complex of t-th exterior powers of the character lattices: the
    L-summand has one basis vector per t-subset of the complement of L, and
    each component map is the subset-inclusion matrix."""
    if t < 0:
        raise ConfigurationError("exterior power degree must be non-negative")
    delta = full_mask(rs.rank)

    @lru_cache(maxsize=None)
    def complement_subsets(mask: int) -> tuple[tuple[int, ...], ...]:
        return tuple(combinations(mask_indices(delta & ~mask), t))

    def rank_fn(mask: int) -> int:
        return comb(rs.rank - mask_size(mask), t)

    def rule(mask: int, beta: int) -> IntMatrix:
        index = {s: i for i, s in enumerate(complement_subsets(mask & ~(1 << beta)))}
        src = complement_subsets(mask)
        return IntMatrix(len(index), len(src), tuple(((index[s], 1),) for s in src))

    def label(mask: int, b: int) -> str:
        subset = complement_subsets(mask)[b]
        return f"L={mask_str(mask)}|w{{{','.join(map(str, subset))}}}"

    return subset_lattice_complex(rs, bottom, rank_fn, rule, label)


def gated_constant_row(rs: RootSystem, bottom: int, gate: int, rank: int) -> ChainComplex:
    """Constant-rank coefficient system supported on the sublattice above
    ``gate``, with identity component maps."""

    identity = IntMatrix.identity(rank)

    def rank_fn(mask: int) -> int:
        return rank if gate & ~mask == 0 else 0

    return subset_lattice_complex(rs, bottom, rank_fn, lambda mask, beta: identity)


def gated_exterior_row(rs: RootSystem, bottom: int, gate: int, t: int) -> ChainComplex:
    """Exterior-power row supported on the sublattice above ``gate``."""
    delta = full_mask(rs.rank)

    @lru_cache(maxsize=None)
    def subsets(mask: int) -> tuple[tuple[int, ...], ...]:
        return tuple(combinations(mask_indices(delta & ~mask), t))

    def rank_fn(mask: int) -> int:
        return comb(rs.rank - mask_size(mask), t) if gate & ~mask == 0 else 0

    def rule(mask: int, beta: int) -> IntMatrix:
        index = {s: i for i, s in enumerate(subsets(mask & ~(1 << beta)))}
        src = subsets(mask)
        return IntMatrix(len(index), len(src), tuple(((index[s], 1),) for s in src))

    return subset_lattice_complex(rs, bottom, rank_fn, rule)
