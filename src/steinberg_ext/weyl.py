"""Weyl groups as signed permutations of the positive roots.

An element is stored as a tuple ``signed_images`` where entry ``k`` is
``+(j+1)`` if it maps the k-th positive root to the j-th positive root and
``-(j+1)`` if it maps it to minus the j-th positive root.  The encoding is
unique per element, so subgroup and double-coset computations are plain set
operations, and the length function is the count of negative entries.

A group is enumerated once (``_closure``), by a breadth-first walk that
reaches each element from its smallest left descent and yields blocks,
layer by layer: flat records (per element its length, then its signed
images, one signed byte each) and two columns, the left and right descent
masks.  Only whole groups under the enumeration cap are walked, so a group
has rank at most 8 and at most 49 positive roots.  The cache file stores
the same records and columns, and its one reader (``_read_cache``) yields
them as blocks again.  A :class:`WeylGroup` is filled from blocks, and a
strata sweep reads them by columns and holds no group; an element is
decoded from its record on each read.

The minimal double-coset representatives of a pair (``iter_kostant_reps``)
are read the same way: one filter over the mask columns keeps them, and a
block of 64 at a time gives their Levis and their exponent vectors gamma
by translating its columns and adding them as big integers, a byte lane
per representative.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, compress, islice, repeat, starmap
from math import prod
from operator import eq
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError, ContractError, ResourceLimitError
from .rootdata import (
    Coords,
    RootSystem,
    full_mask,
    levi_root_indices,
    mask_indices,
    parabolic_exponents,
    parabolic_order,
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
    t = 2^64: its coefficients, at most |W_levi|, are its digits.  A Levi
    over the cap is refused: :func:`_kilmoyer_sum` is exact only under it."""
    if parabolic_order(rs, levi) > DEFAULT_WEYL_CAP:
        raise ContractError(f"a Levi subgroup of {rs.type_name()} is over the cap")
    t = 1 << _DIGIT
    return prod(((t << _DIGIT * m) - 1) // (t - 1) for m in parabolic_exponents(rs, levi))


def _digits(value: int) -> list[int]:
    """The coefficients, lowest first, of a polynomial from its value at 2^64."""
    return [value >> _DIGIT * k & (1 << _DIGIT) - 1
            for k in range((value.bit_length() + _DIGIT - 1) // _DIGIT)]


def _layer_sizes(rs: RootSystem, levi: int) -> list[int]:
    """The number of elements of each length in W_levi: W_levi(t)'s coefficients."""
    return _digits(_poincare(rs, levi))


def _kilmoyer_sum(values, I: int, J: int, weighted: Iterable[tuple[int, int]]) -> int:
    """The sum of weight·W_I(t)·W_J(t)/W_L(t) over the (L, weight) pairs,
    from ``values``, a table of W_L(t) at one t indexed by L.

    By Kilmoyer's theorem W_I n wW_Jw^-1 = W_levi(w) for a minimal
    representative w, and each element of W_I w W_J is x·w·y with lengths
    adding, x in W_I and y a minimal representative of W_J modulo a
    conjugate of W_levi(w) (Geck and Pfeiffer §2.1–2.2).  So the double
    cosets partition W iff this is W(t) when L's weight sums t^l(w) over the
    representatives w of Levi L.  L lies in I, so W_L(t) divides W_I(t) and
    ``//`` is exact at any t.  At t = 2^64 equal values mean equal
    polynomials: under the cap there are at most 2^20 representatives and a
    quotient's coefficients are at most |W_I||W_J| < 2^40, so every
    coefficient on either side is below 2^20·2^40 < 2^64."""
    outer = values[I] * values[J]
    return sum(weight * (outer // values[levi]) for levi, weight in weighted)


# Inside the enumeration signed image s is the byte _ZERO + s, its byte code,
# so the images of at most 127 positive roots fit, and every group under the
# cap has at most 49; a record holds each image, and each length, as one
# signed byte.
_ZERO = 128
_BLOCK = 256  # the elements of a layer the walk reads, and yields, at a time
_REPS = 64  # the representatives of a pair read by columns at a time
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


def _closure(rs: RootSystem) -> Iterator[tuple[bytes, bytes, bytes]]:
    """Enumerate the Weyl group of ``rs`` in group order, as it is walked:
    one length layer after the other, each in blocks of at most ``_BLOCK``
    elements, a block as its records (per element its length, then its
    signed images, one signed byte each), its left masks and its right
    masks, one byte per element each.  A group over
    ``DEFAULT_WEYL_CAP``, or a type with its simple roots out of place, is
    refused here, before any element is built.  Every type under the cap has
    rank at most 8 and at most 49 positive roots (B7), so a mask side and a
    guard's verdicts take one byte, and an image one byte code.

    A breadth-first walk by left multiplication, layer by layer in length.
    Each element is reached once, from its smallest left descent i: from w
    the walk takes s_i·w only when i is no left descent of w and no j < i is
    a left descent of s_i·w, which ``_guards`` reads off w's images before
    composing.  So no element is composed twice and no seen-set is kept;
    each layer's size is checked against the Poincaré polynomial instead.

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
    is an image); the signs of the first rank columns give the right mask.
    A generator's steps are the translates of the elements its verdict bit
    lets through (``compress``), and the block's records are one more
    ``translate``, to signed bytes.  So a block costs a fixed number of
    bytes operations, whatever it holds.  It is yielded and dropped: the
    walk holds about one layer, part of the one it reads and part of the one
    it makes, and nothing it has yielded."""
    rank = rs.rank
    order = parabolic_order(rs, full_mask(rank))
    if order > DEFAULT_WEYL_CAP:
        raise ResourceLimitError(f"Weyl enumeration for {rs.type_name()} exceeds cap "
                                 f"{DEFAULT_WEYL_CAP} ({order} elements)")
    if rs.positive_roots[:rank] != tuple(tuple(int(j == i) for j in range(rank))
                                        for i in range(rank)):
        raise ContractError(f"the simple roots of {rs.type_name()} are not its first "
                            f"{rank} positive roots")
    return _walk(rs)


def _ored_columns(buffer: bytes, width: int, count: int) -> bytes:
    """Byte e: the OR of the image bytes (all but the first) of the e-th of
    the ``count`` records of ``width`` bytes in ``buffer``."""
    ored = 0
    for k in range(1, width):
        ored |= int.from_bytes(buffer[k::width], "little")
    return ored.to_bytes(count, "little")


def _walk(rs: RootSystem) -> Iterator[tuple[bytes, bytes, bytes]]:
    """The walk of :func:`_closure`, once its checks have passed."""
    rank, width = rs.rank, rs.num_positive + 1  # a record: its length, then its images
    guards = _guards(rs)
    left_table = _bit_table([(_ZERO - 1 - i,) for i in range(rank)])
    # guard i blocks its step where -alpha_i or one of its forbidden codes is
    # an image
    blocked_table = _bit_table([(_ZERO - 1 - i, *(_ZERO + s for s in forbidden))
                                for i, (_, forbidden) in enumerate(guards)])
    steps = [(bytes(not b >> i & 1 for b in range(256)), _byte_table(table))
             for i, (table, _) in enumerate(guards)]
    step = [bytes(range(_ZERO + 1, _ZERO + width))]
    for length, size in enumerate(_layer_sizes(rs, full_mask(rank))):
        if len(step) != size:
            raise ContractError(
                f"{len(step)} elements of length {length} in W({rs.type_name()}); its "
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
            records = buffer.translate(_SIGNED_BYTE)
            negative = records.translate(_NEGATIVE)
            right = sum(int.from_bytes(negative[1 + j::width], "little") << j
                        for j in range(rank)).to_bytes(count, "little")
            left = _ored_columns(buffer.translate(left_table), width, count)
            blocked = _ored_columns(buffer.translate(blocked_table), width, count)
            for lets_through, table in steps:  # s_i·w for each step taken
                nxt.extend(map(bytes.translate, compress(block, blocked.translate(lets_through)),
                               repeat(table)))
            yield records, left, right
        step = nxt
    if step:
        raise ContractError(f"elements of length {length + 1} in W({rs.type_name()}), past "
                            "its longest element")


def _filled(rs: RootSystem, blocks: Iterable[tuple[bytes, bytes, bytes]]) -> WeylGroup:
    """The group of ``rs`` from its ``blocks`` (:func:`_closure`): each fills
    its part of the arrays the group keeps, preallocated, as it comes."""
    count, width = parabolic_order(rs, full_mask(rs.rank)), rs.num_positive + 1
    records, left, right = array("b", [0]) * (count * width), bytearray(count), bytearray(count)
    view, start = memoryview(records).cast("B"), 0
    for block in blocks:
        end = start + len(block[1])
        view[start * width:end * width] = memoryview(block[0]).cast("B")
        left[start:end], right[start:end], start = block[1], block[2], end
        del block  # dropped before the next is read
    if start != count:
        raise ContractError(f"{start} elements in W({rs.type_name()}), of order {count}")
    return WeylGroup(rs, records, left, right)


@lru_cache(maxsize=None)
def generate_weyl(rs: RootSystem) -> WeylGroup:
    """The full Weyl group, identity first, sorted by length."""
    return _filled(rs, _closure(rs))


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


class WeylGroup(Sequence):
    """A Weyl group in group order, as :func:`_closure` yields it: the flat
    records (per element its length, then its signed images, one signed byte
    each) and the descent masks ``left`` and ``right``, a byte per element
    each.  A generated group and one read from the cache both come so, with
    no element built: each read decodes its element from the records.
    Slices are tuples; a group equals any sequence of its elements."""

    def __init__(self, rs: RootSystem, records: array, left: bytearray, right: bytearray) -> None:
        self._width = rs.num_positive + 1
        self._records = records
        self.left, self.right = left, right

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        start = range(len(self))[index] * self._width
        return WeylElement(tuple(self._records[start + 1:start + self._width]),
                           self._records[start])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _misses(subset: int) -> bytes:
    """The ``bytes.translate`` table of a mask byte: 1 where it misses ``subset``."""
    return bytes(not m & subset for m in range(256))


def _rep_blocks(rs: RootSystem, I: int, J: int, group: WeylGroup,
                keep: bytes) -> Iterator[tuple[bytearray, bytes, bytes]]:
    """The representatives ``keep`` marks, at most ``_REPS`` at a time: their
    records joined, and levi(w) and L', a byte each, from the image columns
    of the alpha_j, j in J (j in L' and i in levi(w) where w(alpha_j) is
    alpha_i, i in I).  ``ContractError`` at the first with a negative image,
    a non-simple root of the I-Levi as an image, or a negative length."""
    width, rank = group._width, rs.rank
    simple_j, phi_i = mask_indices(J), levi_root_indices(rs, I)
    # a signed image -> 1 << i where it is alpha_i, i in I; -> 1 where it is
    # not positive or a non-simple root of the I-Levi
    into_i = bytes(1 << s - 1 if 0 < s <= rank and s - 1 in phi_i else 0 for s in range(256))
    stray = bytes(not 0 < s < 128 or s > rank and s - 1 in phi_i for s in range(256))
    records, positions = memoryview(group._records).cast("B"), compress(range(len(group)), keep)
    while True:
        buffer = bytearray()
        for p in islice(positions, _REPS):
            buffer += records[p * width:(p + 1) * width]
        if not buffer:
            return
        images, lengths = [buffer[1 + b::width] for b in simple_j], buffer[::width]
        wrong = int.from_bytes(lengths.translate(_NEGATIVE), "little")
        for image in images:
            wrong |= int.from_bytes(image.translate(stray), "little")
        if wrong:
            e = ((wrong & -wrong).bit_length() - 1) // 8  # the first one, by its lowest byte
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
            source |= int.from_bytes(column.translate(_NONZERO), "little") << b
        count = len(lengths)
        yield buffer, levi.to_bytes(count, "little"), source.to_bytes(count, "little")


def iter_kostant_reps(rs: RootSystem, I: int, J: int,
                      elements: WeylGroup | None = None) -> Iterator[DoubleCosetRep]:
    """One minimal-length representative per (W_I, W_J) double coset, in
    group order (by length, then signed images), streamed a block
    (:func:`_rep_blocks`) at a time and none kept here.

    w is minimal in its double coset iff w(alpha_j) > 0 for every j in J and
    w^-1(alpha_i) > 0 for every i in I: its descent masks miss J on the
    right and I on the left, one filter over the two mask columns.  A
    first pass over the blocks, in this call, counts them by (levi(w), l(w))
    and checks that their cosets partition the group (:func:`_kilmoyer_sum`
    at t = 2^64), so a corrupted group raises ``ContractError`` first.

    For such a w the general gamma and delta formulas (references in
    ``tests/oracles.py``) simplify.  gamma is the sum of the inversion set
    of w, summed in byte lanes, one per representative: the sign column of
    each positive root times each of its nonzero coordinates (gamma_c is at
    most (2 rho)_c, at most 54 under the cap).  delta is the sum of the
    J-Levi's positive roots outside the Levi of L' = {j in J : w(alpha_j)
    in I}, which w carries onto the Levi of levi(w); kept per L'."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group = elements if elements is not None else generate_weyl(rs)
    full, width, n = full_mask(rs.rank), group._width, rs.num_positive
    if len(group) != parabolic_order(rs, full):
        raise ContractError(f"{len(group)} group elements; |W({rs.type_name()})| = "
                            f"{parabolic_order(rs, full)}: double cosets do not partition the "
                            "Weyl group")
    keep = (int.from_bytes(group.left.translate(_misses(I)), "little")
            & int.from_bytes(group.right.translate(_misses(J)), "little")
            ).to_bytes(len(group), "little")

    tally: Counter[tuple[int, int]] = Counter()  # the representatives by (levi(w), l(w))
    for buffer, levi, _ in _rep_blocks(rs, I, J, group, keep):
        tally.update(zip(levi, buffer[::width]))
    weights: Counter[int] = Counter()  # the sum of t^l(w) at t = 2^64, by levi(w)
    for (levi, length), count in tally.items():
        weights[levi] += count << _DIGIT * length
    values = {levi: _poincare(rs, levi) for levi in (I, J, full, *weights)}
    covered = _kilmoyer_sum(values, I, J, weights.items())
    if covered != values[full]:
        raise ContractError(f"double cosets cover {_digits(covered)} group elements by length; "
                            f"W({rs.type_name()})(t) has {_digits(values[full])}: they do "
                            "not partition the Weyl group by length")

    lanes = [[(k, root[c]) for k, root in enumerate(rs.positive_roots) if root[c]]
             for c in range(rs.rank)]  # per coordinate c, (k, c-th coordinate of root k)
    delta_of: dict[int, Coords] = {}  # by L'

    def block(buffer: bytearray, levi: bytes, source: bytes) -> Iterator[DoubleCosetRep]:
        negative, signed = buffer.translate(_NEGATIVE), memoryview(buffer).cast("b")
        signs = [int.from_bytes(negative[1 + k::width], "little") for k in range(n)]
        # a list: a tuple grown from a generator, once freed, stays on a free list
        gammas = zip(*[sum(signs[k] * c for k, c in lane).to_bytes(len(levi), "little")
                       for lane in lanes])
        for start, gamma, levi_w, source_w in zip(range(0, len(buffer), width), gammas,
                                                  levi, source):
            w = WeylElement(tuple(signed[start + 1:start + width]), signed[start])
            if source_w not in delta_of:
                delta_of[source_w] = levi_difference_sum(rs, J, source_w)
            yield DoubleCosetRep(w=w, I=I, J=J, length=w.length, gamma_exp=gamma,
                                 delta_exp=delta_of[source_w], levi=levi_w)

    # a block's generator, once exhausted, drops its columns before the next is read
    return chain.from_iterable(starmap(block, _rep_blocks(rs, I, J, group, keep)))


def kostant_reps(rs: RootSystem, I: int, J: int,
                 elements: WeylGroup | None = None) -> tuple[DoubleCosetRep, ...]:
    """The representatives of :func:`iter_kostant_reps`, as one tuple."""
    return tuple(iter_kostant_reps(rs, I, J, elements))


# ---------------------------------------------------------------------------
# optional binary cache, one file per (series, rank)
#
# Layout: the magic, the little-endian header (series, rank, N positive
# roots, element count), one record per element in group order (length,
# then the N signed images, one signed byte each), the left masks, then the
# right masks, a byte per element each, and the little-endian CRC-32 of all
# three.  These are what the walk yields and a WeylGroup holds, written as
# they come and read back as blocks again; no entry is wider than a byte, so
# a file reads the same on every host.  A file of an older format is a miss.

_CACHE_MAGIC = b"WGC5"
_CACHE_HEAD = struct.Struct("<4scBII")  # the magic, then the header
_CHUNK = 1 << 16  # the bytes of the file the reader holds at a time


def weyl_cache_path(cache_dir: str | Path, series: str, rank: int) -> Path:
    return Path(cache_dir) / f"weyl_{series}{rank}.bin"


def save_weyl_cache(rs: RootSystem, blocks: Iterable[tuple[bytes, bytes, bytes]],
                    cache_dir: str | Path) -> Path:
    """Write the cache file of ``rs`` from ``blocks``, triples of records,
    left and right masks as :func:`_closure` yields them (a held group is
    the one triple it holds): each block's records as it comes, then the
    left and the right masks, kept until then, and the header last.  The
    file is written under a temporary name in its directory and renamed
    into place when complete, so a walk that fails or is interrupted leaves
    no file; a path that cannot be written is a configuration error."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with partial.open("wb") as fh:
                fh.seek(_CACHE_HEAD.size)
                crc, left, right = 0, bytearray(), bytearray()
                for records, block_left, block_right in blocks:
                    fh.write(records)
                    crc = zlib.crc32(records, crc)
                    left += block_left
                    right += block_right
                fh.writelines((left, right))
                fh.write(zlib.crc32(right, zlib.crc32(left, crc)).to_bytes(4, "little"))
                fh.seek(0)
                fh.write(_CACHE_HEAD.pack(_CACHE_MAGIC, rs.series.encode(), rs.rank,
                                          rs.num_positive, len(left)))
            os.replace(partial, path)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise ConfigurationError(f"cannot write the Weyl cache {path}: "
                                 f"{e.strerror or e}") from None
    return path


def _read_cache(rs: RootSystem, cache_dir: str | Path) -> Iterator:
    """The one reader of the cache file of ``rs``.  It checks the whole file, a
    chunk at a time, and yields nothing on a miss: no file, another format, a
    header not that of ``rs`` and |W|, a record entry outside -N..N, a checksum
    that does not match, or a wrong size.  Else it yields True, then re-reads
    the file, unbuffered, for the blocks :func:`_closure` yields: whole records,
    at most ``_CHUNK`` bytes of them, and their masks."""
    n, count = rs.num_positive, parabolic_order(rs, full_mask(rs.rank))
    head = _CACHE_HEAD.pack(_CACHE_MAGIC, rs.series.encode(), rs.rank, n, count)
    size, body = count * (n + 1), count * (n + 3)  # the records; with the masks
    try:
        fh = weyl_cache_path(cache_dir, rs.series, rs.rank).open("rb", buffering=0)
    except OSError:
        return
    with fh:
        try:
            if fh.read(len(head)) != head:
                return
            # every length and image lies in -N..N: deleting those bytes leaves none
            valid, crc = bytes(s & 0xFF for s in range(-n, n + 1)), 0
            for start in range(0, body, _CHUNK):
                chunk = fh.read(min(_CHUNK, body - start))
                if chunk[:max(size - start, 0)].translate(None, valid):
                    return
                crc = zlib.crc32(chunk, crc)
            del chunk  # before any block is read
            if fh.read() != crc.to_bytes(4, "little"):  # the checksum, then the end of the file
                return
        except OSError:
            return
        yield True

        def read(offset: int, length: int) -> bytes:
            fh.seek(len(head) + offset)
            return fh.read(length)

        step = _CHUNK // (n + 1)
        for start in range(0, count, step):
            k = min(step, count - start)
            yield (read(start * (n + 1), k * (n + 1)), read(size + start, k),
                   read(size + count + start, k))


def load_weyl_cache(rs: RootSystem, cache_dir: str | Path) -> WeylGroup | None:
    """Load the cached group from the blocks of :func:`_read_cache`, or None
    on a miss (the cache is then simply rewritten)."""
    blocks = _read_cache(rs, cache_dir)
    return None if next(blocks, None) is None else _filled(rs, blocks)


def cached_blocks(rs: RootSystem, cache_dir: str | Path,
                  read_back: bool = True) -> Iterator[tuple[bytes, bytes, bytes]]:
    """The blocks of the cache file of ``rs`` (:func:`_read_cache`), which a
    miss first writes as the walk makes each layer and, with ``read_back``,
    reads back; without, a closed-form query only checks or writes the file."""
    blocks = _read_cache(rs, cache_dir)
    if next(blocks, None) is None:
        path = save_weyl_cache(rs, _closure(rs), cache_dir)
        if read_back and next(blocks := _read_cache(rs, cache_dir), None) is None:
            raise ConfigurationError(f"the Weyl cache {path} does not read back as written")
    return blocks


def load_or_generate(rs: RootSystem, cache_dir: str | Path | None = None) -> WeylGroup:
    """The Weyl group of ``rs``: generated, or with a directory read from its
    cache file, which a miss first writes and reads back (:func:`cached_blocks`)."""
    if cache_dir is None:
        return generate_weyl(rs)
    group = load_weyl_cache(rs, cache_dir)
    return _filled(rs, cached_blocks(rs, cache_dir)) if group is None else group
