"""Weyl groups as signed permutations of the positive roots.

An element is stored as a tuple ``signed_images`` where entry ``k`` is
``+(j+1)`` if it maps the k-th positive root to the j-th positive root and
``-(j+1)`` if it maps it to minus the j-th positive root.  The encoding is
unique per element, so subgroup and double-coset computations are plain set
operations, and the length function is the count of negative entries.

A group, or X_J, the minimal representatives of W/W_J, is enumerated by
one breadth-first walk (``_closure``) that reaches each element from its
smallest left descent and yields blocks, layer by layer: flat records (per
element its length, then its signed images, one signed byte each) and a
column of left descent masks.  No group is held.  One reader
(``_columns``) cuts from the blocks of any such walk the columns a caller
reads, with the one Levi guard: a strata sweep reads the whole walk with
it, and a pair (``iter_kostant_reps``) the elements of its walk of X_J
whose left mask misses I, its minimal double-coset representatives.  An
element is decoded from its record only when a representative is yielded.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import compress, repeat
from math import prod
from typing import NamedTuple

from .errors import ContractError, ResourceLimitError
from .rootdata import (
    Coords,
    RootSystem,
    full_mask,
    levi_root_indices,
    mask_indices,
    mask_str,
    parabolic_exponents,
    parabolic_order,
    support_mask,
    validate_mask,
    zero_coords,
)

DEFAULT_WEYL_CAP = 1 << 20

SignedImages = tuple[int, ...]


class WeylElement(NamedTuple):
    signed_images: SignedImages
    length: int

    @property
    def is_identity(self) -> bool:
        return self.length == 0


def _action_table(u: SignedImages) -> SignedImages:
    """u as a lookup table on signed images: entry s is u's signed image of
    the root that s stands for, for s = 1..N and, counted from the end,
    s = -1..-N."""
    return (0, *u, *(-s for s in reversed(u)))


@lru_cache(maxsize=None)
def _simple_reflection_images(rs: RootSystem, i: int) -> SignedImages:
    index = {coords: k for k, coords in enumerate(rs.positive_roots)}
    out = []
    for coords in rs.positive_roots:
        image = rs.reflect(coords, i)
        if image in index:
            out.append(index[image] + 1)
        else:
            neg = tuple(-c for c in image)
            if neg not in index:
                raise ContractError(f"reflection s_{i} left the root system")
            out.append(-(index[neg] + 1))
    return tuple(out)


def _guards(rs: RootSystem) -> tuple[tuple[SignedImages, frozenset[int]], ...]:
    """For each generator s_i, in increasing i: its action table, and the
    signed images of w that make j < i a left descent of s_i·w.  That
    happens when w(beta) = -s_i(alpha_j) for some beta, since then s_i·w
    sends beta to -alpha_j; s_i(alpha_j) is the positive root at index m_ij,
    so the image is -(m_ij + 1)."""
    guards = []
    for i in range(rs.rank):
        images = _simple_reflection_images(rs, i)
        guards.append((_action_table(images), frozenset(-images[j] for j in range(i))))
    return tuple(guards)


_DIGIT = 64  # a Poincaré polynomial is held at t = 2^64, a coefficient per digit


@lru_cache(maxsize=None)
def _poincare(rs: RootSystem, levi: int) -> int:
    """W_levi(t) = the product of 1 + t + ... + t^m over the exponents m, at
    t = 2^64: its coefficients, at most |W_levi|, are its digits while that
    is below 2^64, as at every rank up to 8; a larger W_levi raises
    ``ContractError``."""
    if parabolic_order(rs, levi) >= 1 << _DIGIT:
        raise ContractError(f"W_{mask_str(levi)} of {rs.type_name()} has order at least "
                            f"2^{_DIGIT}: its coefficients need not fit a digit")
    t = 1 << _DIGIT
    return prod(((t << _DIGIT * m) - 1) // (t - 1) for m in parabolic_exponents(rs, levi))


def _digits(value: int) -> list[int]:
    """The coefficients, lowest first, of a polynomial from its value at 2^64."""
    return [value >> _DIGIT * k & (1 << _DIGIT) - 1
            for k in range((value.bit_length() + _DIGIT - 1) // _DIGIT)]


def _kilmoyer_sum(values, I: int, J: int, weighted: Iterable[tuple[int, int]]) -> int:
    """The sum of weight·W_I(t)·W_J(t)/W_L(t) over the (L, weight) pairs,
    from ``values``, a table of W_L(t) at one t indexed by L.

    By Kilmoyer's theorem W_I n wW_Jw^-1 = W_levi(w) for a minimal
    representative w, and each element of W_I w W_J is x·w·y with lengths
    adding, x in W_I and y a minimal representative of W_J modulo a
    conjugate of W_levi(w) (Geck and Pfeiffer §2.1–2.2).  So the double
    cosets partition W iff this is W(t) when L's weight sums t^l(w) over the
    representatives w of Levi L.  L lies in I, so W_L(t) divides W_I(t) and
    ``//`` is exact at any t.  At t = 2^64 (:func:`iter_kostant_reps`) equal
    values mean equal polynomials by the pair's own sizes: the walk of X_J
    has passed its layer check, so there are at most |W|/|W_J|
    representatives, and a quotient's coefficients sum to at most
    |W_I||W_J|, so no coefficient on either side exceeds |W||W_I| <= |W|^2,
    below 2^64 as |W| < 2^32 at rank <= 8.  A walk past X_J fails that check
    (``test_a_walk_of_x_j_without_its_j_guard_fails_the_layer_check``).
    At t = 1 (``DescentClasses.covers``) nothing carries."""
    outer = values[I] * values[J]
    return sum(weight * (outer // values[levi]) for levi, weight in weighted)


# Inside the enumeration signed image s is the byte _ZERO + s, its byte code,
# so the images of at most 127 positive roots fit (a group under the cap has
# at most 49); a record holds each image, and each length, as a signed byte.
_ZERO = 128
_BLOCK = 256  # the elements of a layer the walk reads, and yields, at a time
_REPS = 64  # the representatives of a pair whose gamma lanes are summed at a time
# byte code -> its image as a signed byte; a signed byte -> 1 where it is
# negative, and a byte -> 1 where it is not 0
_SIGNED_BYTE = bytes((b - _ZERO) & 0xFF for b in range(256))
_NEGATIVE, _NONZERO = bytes(s > 127 for s in range(256)), bytes(map(bool, range(256)))


def _byte_table(table: SignedImages) -> bytes:
    """An action table (:func:`_action_table`) as a ``bytes.translate``
    table on byte codes: code _ZERO + s goes to _ZERO + table[s]."""
    codes = bytearray(range(256))
    n = len(table) // 2
    for s in range(-n, n + 1):
        codes[_ZERO + s] = _ZERO + table[s]
    return bytes(codes)


def _bit_table(codes_of: Sequence[Iterable[int]]) -> bytes:
    """A ``bytes.translate`` table that sends a byte code to the bits whose
    codes (``codes_of[bit]``) hold it: one bit per simple root, and every
    group under the cap has at most 8."""
    table = bytearray(256)
    for bit, codes in enumerate(codes_of):
        for code in codes:
            table[code] |= 1 << bit
    return bytes(table)


def _closure(rs: RootSystem, J: int = 0) -> Iterator[tuple[bytes, bytes]]:
    """Enumerate X_J, the minimal representatives of W/W_J (the elements
    whose right mask misses J; the whole Weyl group of ``rs`` for J = 0), in
    group order, as it is walked: one length layer after the other, each in
    blocks of at most ``_BLOCK`` elements, a block as its records (per
    element its length, then its signed images, one signed byte each) and
    its left masks, one byte per element.  A type whose group is over
    ``DEFAULT_WEYL_CAP``, or one with its simple roots out of place, is
    refused here, before any element is built, whatever J is.  The cap
    bounds the walk alone; no sum's exactness rests on it.  Every type under
    it has rank at most 8 and at most 49 positive roots (B7), so a mask and
    a guard's verdicts take a byte, an image a byte code and gamma a byte
    lane, as ``test_the_cap_bounds_the_walk`` and
    ``test_gamma_fits_a_byte_lane_under_the_cap`` check for any cap.

    A breadth-first walk by left multiplication, layer by layer in length.
    Each element is reached once, from its smallest left descent i: from w
    the walk takes s_i·w only when i is no left descent of w and no j < i is
    a left descent of s_i·w, which ``_guards`` reads off w's images before
    composing.  X_J is closed under removing a left descent (Björner and
    Brenti, *Combinatorics of Coxeter Groups*, §2.4), so the same walk
    reaches it with one more guard: s_i·w leaves X_J exactly when
    w(alpha_j) = alpha_i for some j in J.  So no element is composed twice
    and no seen-set is kept; each layer's size is checked against the
    coefficients of W(t)/W_J(t) instead, which is exact since W_J(t) divides
    W(t).

    Inside the walk an element is its byte codes, so s_i·w is one
    ``translate`` by s_i's byte table, and sorting a layer's byte strings
    sorts it by signed images.  A sorted layer is read a block at a time, by
    columns: the block's elements are joined into one buffer of byte-coded
    records, whose column k (``buffer[k::width]``) holds one image of every
    element.  A 256-byte table sends each code to the bits it sets, so
    translating the buffer and OR-ing its columns as big integers
    (``int.from_bytes``) gives, one byte per element, the left mask (where a
    code of -alpha_i is an image) and the guards' verdicts (a bit per
    generator, set where its own left descent or one of its forbidden codes
    is an image, or, in a column alpha_j with j in J, where the code of
    +alpha_i is).  A generator's steps are the translates of the elements
    its verdict bit lets through (``compress``), and the block's records are
    one more ``translate``, to signed bytes.  So a block costs a fixed
    number of bytes operations, whatever it holds.  It is yielded and
    dropped: the walk holds about one layer, part of the one it reads and
    part of the one it makes, and nothing it has yielded."""
    rank = rs.rank
    order = parabolic_order(rs, full_mask(rank))
    if order > DEFAULT_WEYL_CAP:
        raise ResourceLimitError(f"Weyl enumeration for {rs.type_name()} exceeds cap "
                                 f"{DEFAULT_WEYL_CAP} ({order} elements)")
    if rs.positive_roots[:rank] != tuple(tuple(int(j == i) for j in range(rank))
                                        for i in range(rank)):
        raise ContractError(f"the simple roots of {rs.type_name()} are not its first "
                            f"{rank} positive roots")
    return _walk(rs, J)


def _ored_columns(buffer: bytes, width: int) -> int:
    """Byte e: the OR of the image bytes (all but the first) of the e-th
    record of ``width`` bytes in ``buffer``."""
    ored = 0
    for k in range(1, width):
        ored |= int.from_bytes(buffer[k::width], "little")
    return ored


def _walk(rs: RootSystem, J: int) -> Iterator[tuple[bytes, bytes]]:
    """The walk of :func:`_closure`, once its checks have passed."""
    rank, width = rs.rank, rs.num_positive + 1  # a record: its length, then its images
    guards = _guards(rs)
    left_table = _bit_table([(_ZERO - 1 - i,) for i in range(rank)])
    # guard i blocks its step where -alpha_i or one of its forbidden codes is
    # an image, or where alpha_i is the image of some alpha_j, j in J
    blocked_table = _bit_table([(_ZERO - 1 - i, *(_ZERO + s for s in forbidden))
                                for i, (_, forbidden) in enumerate(guards)])
    simple_table = _bit_table([(_ZERO + 1 + i,) for i in range(rank)])
    steps = [(bytes(not b >> i & 1 for b in range(256)), _byte_table(table))
             for i, (table, _) in enumerate(guards)]
    name = f"W({rs.type_name()})" + (f"/W_{mask_str(J)}" if J else "")
    step = [bytes(range(_ZERO + 1, _ZERO + width))]
    for length, size in enumerate(_digits(_poincare(rs, full_mask(rank)) // _poincare(rs, J))):
        if len(step) != size:
            raise ContractError(f"{len(step)} elements of length {length} in {name}; its "
                                f"Poincaré polynomial has {size}")
        # taken from the end in blocks, so sorted in reverse: a block's
        # elements are freed once its records are yielded
        step.sort(reverse=True)
        code = bytes((_ZERO + length,))
        nxt: list[bytes] = []
        while step:
            block = step[-_BLOCK:]
            del step[-_BLOCK:]
            block.reverse()
            count = len(block)
            buffer = code.join([b"", *block])  # per element its length, then its images
            left = _ored_columns(buffer.translate(left_table), width).to_bytes(count, "little")
            blocked = _ored_columns(buffer.translate(blocked_table), width)
            for j in mask_indices(J):
                blocked |= int.from_bytes(buffer[1 + j::width].translate(simple_table), "little")
            blocked = blocked.to_bytes(count, "little")
            for lets_through, table in steps:  # s_i·w for each step taken
                nxt.extend(map(bytes.translate, compress(block, blocked.translate(lets_through)),
                               repeat(table)))
            yield buffer.translate(_SIGNED_BYTE), left
        step = nxt
    if step:
        raise ContractError(f"elements of length {length + 1} in {name}, past its longest "
                            "element")


def _columns(rs: RootSystem, blocks: Iterable[tuple[bytes, bytes]], B: int
             ) -> tuple[bytearray, list[bytearray], bytearray, int, bool]:
    """The one reader of a walk of X_J (:func:`_closure`, any J), for a set
    B of simple roots.  Cut block by block, joined in walk order, a byte per
    element each: the left masks, per b in B (increasing) w(alpha_b) as a
    simple-root bit (1 << i where it is alpha_i, else 0), and the signs (bit
    b where w(alpha_b) < 0).  And two verdicts for a caller to weigh: the
    Levi guard, byte e of an int nonzero where some w(alpha_b) is a
    non-simple root whose support K misses w's left mask (by Kilmoyer, no
    Weyl group element does that: W_K n wW_{b}w^-1, holding the reflection
    in w(alpha_b), would be a standard parabolic subgroup of W_K); and
    whether the identity, with left mask 0, is alone at length 0."""
    width, rank, bits = rs.num_positive + 1, rs.rank, mask_indices(B)
    simple = bytes(1 << s - 1 if 0 < s <= rank else 0 for s in range(256))
    supports = bytes(support_mask(rs.positive_roots[s - 1]) if rank < s < width else 0
                     for s in range(256))
    left, signs, images = bytearray(), bytearray(), [bytearray() for _ in bits]
    stray, zeros, identity = 0, 0, False
    for records, block_left in blocks:
        size, block_signs, block_stray = len(block_left), 0, 0
        for b, column in zip(bits, images):
            image = bytes(records[1 + b::width])  # a slice of a signed array has no translate
            column += image.translate(simple)
            block_signs |= int.from_bytes(image.translate(_NEGATIVE), "little") << b
            support = image.translate(supports)
            meets = (int.from_bytes(support, "little")
                     & int.from_bytes(block_left, "little")).to_bytes(size, "little")
            # 1 where there is a support, and back to 0 where it meets the left mask
            block_stray |= (int.from_bytes(support.translate(_NONZERO), "little")
                            ^ int.from_bytes(meets.translate(_NONZERO), "little"))
        lengths = bytes(records[::width])
        at, zeros = lengths.find(0), zeros + lengths.count(0)
        identity |= at >= 0 and (bytes(records[at * width:(at + 1) * width]) == bytes(range(width))
                                 and block_left[at] == 0)
        stray |= block_stray << 8 * len(left)
        left += block_left
        signs += block_signs.to_bytes(size, "little")
    return left, images, signs, stray, identity and zeros == 1


# ---------------------------------------------------------------------------
# double cosets and the character exponents of their strata


class DoubleCosetRep(NamedTuple):
    """Minimal-length representative of a parabolic double coset, together
    with the exponent vectors of the two modulus characters attached to its
    stratum and the Levi subset it lands in."""

    w: WeylElement
    I: int
    J: int
    length: int
    gamma_exp: Coords
    delta_exp: Coords
    levi: int


def _root_sum(rs: RootSystem, indices) -> Coords:
    """Sum of the positive roots at ``indices``."""
    return tuple(map(sum, zip(zero_coords(rs.rank),
                              *(rs.positive_roots[k] for k in indices))))


def levi_difference_sum(rs: RootSystem, J: int, L: int) -> Coords:
    """Sum of the positive roots of the J-Levi outside the L-Levi: the delta
    exponent vector of a representative that carries the simple roots of
    ``L`` (a subset of J) into I and no other simple root of J."""
    return _root_sum(rs, levi_root_indices(rs, J) - levi_root_indices(rs, L))


def _misses(subset: int) -> bytes:
    """The ``bytes.translate`` table of a mask byte: 1 where it misses ``subset``."""
    return bytes(not m & subset for m in range(256))


def _kept(rs: RootSystem, I: int, J: int) -> tuple[bytearray, bytes, bytes]:
    """The minimal (W_I, W_J) double-coset representatives, read once: the
    records of the elements of X_J (:func:`_closure`) whose left mask misses
    I, joined in group order, and, from :func:`_columns` with B = J once the
    walk has passed its layer check, their levi(w) and L' columns, a byte
    each.  ``ContractError`` names the first one, in group order, with a
    negative image or length, or whose Levi guard fails."""
    width, misses_i, records, left = rs.num_positive + 1, _misses(I), bytearray(), bytearray()
    for block, block_left in _closure(rs, J):
        keep = block_left.translate(misses_i)
        for start in compress(range(0, len(block), width), keep):
            records += block[start:start + width]
        left.extend(compress(block_left, keep))
    _, images, signs, stray, _ = _columns(rs, [(records, left)], J)
    wrong = (int.from_bytes(records[::width].translate(_NEGATIVE), "little")
             | int.from_bytes(signs, "little") | stray)
    if wrong:
        e = ((wrong & -wrong).bit_length() - 1) // 8
        for b in mask_indices(J):
            s = records[e * width + 1 + b]
            support = support_mask(rs.positive_roots[s - 1]) if rs.rank < s < width else 0
            if s > 127 or support and not support & left[e]:
                why = ("is negative" if s > 127 else
                       "lies in the I-Levi but is not simple" if not support & ~I else
                       "is not simple, and its support misses the left mask of w")
                raise ContractError(f"w(alpha_{b}) {why}; not a minimal double-coset "
                                    "representative")
        raise ContractError(f"a representative of length {records[e * width] - 256}: double "
                            "cosets do not partition the Weyl group by length")
    inside_i, levi, source = bytes(m & I for m in range(256)), 0, 0
    for b, image in zip(mask_indices(J), images):
        column = image.translate(inside_i)
        levi |= int.from_bytes(column, "little")
        source |= int.from_bytes(column.translate(_NONZERO), "little") << b
    return records, levi.to_bytes(len(left), "little"), source.to_bytes(len(left), "little")


def iter_kostant_reps(rs: RootSystem, I: int, J: int) -> Iterator[DoubleCosetRep]:
    """One minimal-length representative per (W_I, W_J) double coset, in
    group order (by length, then signed images), read once (:func:`_kept`).

    w is minimal in its double coset iff w(alpha_j) > 0 for every j in J and
    w^-1(alpha_i) > 0 for every i in I: w lies in X_J, and its left mask
    misses I.  So one walk of X_J (:func:`_closure`) gives them.  In this
    call, their Levi and length columns count them by (levi(w), l(w)) and
    check that their cosets partition the group (:func:`_kilmoyer_sum` at
    t = 2^64), so a walk that yields a wrong X_J raises ``ContractError``
    before any representative is decoded.

    For such a w the general gamma and delta formulas (references in
    ``tests/oracles.py``) simplify.  gamma is the sum of the inversion set
    of w, summed ``_REPS`` representatives at a time in byte lanes, one per
    representative: the sign column of each positive root times each of its
    nonzero coordinates (gamma_c is at most (2 rho)_c, at most 54 under the
    cap).  delta is the sum of the J-Levi's positive roots outside the Levi
    of L' = {j in J : w(alpha_j) in I}, which w carries onto the Levi of
    levi(w); computed once per L'."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    full, width, n = full_mask(rs.rank), rs.num_positive + 1, rs.num_positive
    records, levi, sources = _kept(rs, I, J)

    weights: Counter[int] = Counter()  # the sum of t^l(w) at t = 2^64, by levi(w)
    for (levi_w, length), count in Counter(zip(levi, records[::width])).items():
        weights[levi_w] += count << _DIGIT * length
    values = {levi_w: _poincare(rs, levi_w) for levi_w in (I, J, full, *weights)}
    covered = _kilmoyer_sum(values, I, J, weights.items())
    if covered != values[full]:
        raise ContractError(f"double cosets cover {_digits(covered)} group elements by length; "
                            f"W({rs.type_name()})(t) has {_digits(values[full])}: they do "
                            "not partition the Weyl group by length")

    lanes = [[(k, root[c]) for k, root in enumerate(rs.positive_roots) if root[c]]
             for c in range(rs.rank)]  # per coordinate c, (k, c-th coordinate of root k)
    delta_of = {source: levi_difference_sum(rs, J, source) for source in set(sources)}

    def stream() -> Iterator[DoubleCosetRep]:
        for first in range(0, len(levi), _REPS):
            buffer = records[first * width:(first + _REPS) * width]
            block_levi, block_sources = levi[first:first + _REPS], sources[first:first + _REPS]
            negative, signed = buffer.translate(_NEGATIVE), memoryview(buffer).cast("b")
            signs = [int.from_bytes(negative[1 + k::width], "little") for k in range(n)]
            # a list: a tuple grown from a generator, once freed, stays on a free list
            gammas = zip(*[sum(signs[k] * c for k, c in lane).to_bytes(len(block_levi), "little")
                           for lane in lanes])
            for start, gamma, levi_w, source in zip(range(0, len(buffer), width), gammas,
                                                    block_levi, block_sources):
                w = WeylElement(tuple(signed[start + 1:start + width]), signed[start])
                yield DoubleCosetRep(w=w, I=I, J=J, length=w.length, gamma_exp=gamma,
                                     delta_exp=delta_of[source], levi=levi_w)

    return stream()


def kostant_reps(rs: RootSystem, I: int, J: int) -> tuple[DoubleCosetRep, ...]:
    """The representatives of :func:`iter_kostant_reps`, as one tuple."""
    return tuple(iter_kostant_reps(rs, I, J))
