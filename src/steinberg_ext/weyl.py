"""Weyl groups as signed permutations of the positive roots.

An element is stored as a tuple ``signed_images`` where entry ``k`` is
``+(j+1)`` if it maps the k-th positive root to the j-th positive root and
``-(j+1)`` if it maps it to minus the j-th positive root.  The encoding is
unique per element, so subgroup and double-coset computations are plain set
operations, and the length function is the count of negative entries.

A group is enumerated once (``_closure``), by a breadth-first walk that
reaches each element from its smallest left descent, straight into flat
records (per element its length, then its signed images, one signed byte
each, in one ``array("b")``) and one descent mask per element.  Inside the
walk an element is a ``bytes`` of byte codes, image s as the byte 128 + s:
composing with a simple reflection is one ``bytes.translate``, sorting the
byte strings of a length layer sorts it by signed images, and each sorted
layer is translated to its signed-byte records on its own, so the walk holds
one layer beside its output.  A byte holds the images of at most 127
positive roots, and so every length too; every group under the enumeration
cap has at most 49, and every parabolic subgroup of E6–E8 at most 120, and a
larger type is refused before any element is built.  The records and masks
are what a :class:`WeylGroup` holds and what its cache file stores, so a
generated group and one read from the cache have one representation, and an
element is decoded from its record on each read.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache
from itertools import compress, starmap
from operator import eq, itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError, ContractError, ResourceLimitError
from .rootdata import (
    Coords,
    RootSystem,
    full_mask,
    levi_root_indices,
    mask_indices,
    mask_str,
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


def _identity_images(n: int) -> SignedImages:
    return tuple(range(1, n + 1))


def _action_table(u: SignedImages) -> SignedImages:
    """u as a lookup table on signed images: entry s is u's signed image of
    the root that s stands for, for s = 1..N and, counted from the end,
    s = -1..-N."""
    return (0, *u, *(-s for s in reversed(u)))


def _reader(positions: SignedImages) -> Callable[[SignedImages], SignedImages]:
    """The entries of a tuple at ``positions``, read in C as one tuple."""
    if len(positions) == 1:  # itemgetter would return the bare entry
        (k,) = positions
        return lambda table: (table[k],)
    return itemgetter(*positions)


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


def _guards(rs: RootSystem, levi: int) -> tuple[tuple[int, SignedImages, frozenset[int]], ...]:
    """For each generator s_i of ``levi``, in increasing i: its bit, its
    action table, and the signed images of w that make j < i (in ``levi``) a
    left descent of s_i·w.  That happens when w(beta) = -s_i(alpha_j) for
    some beta, since then s_i·w sends beta to -alpha_j; s_i(alpha_j) is the
    positive root at index m_ij, so the image is -(m_ij + 1)."""
    guards = []
    earlier: list[int] = []
    for i in mask_indices(levi):
        images = _simple_reflection_images(rs, i)
        guards.append((1 << i, _action_table(images), frozenset(-images[j] for j in earlier)))
        earlier.append(i)
    return tuple(guards)


def _layer_sizes(rs: RootSystem, levi: int) -> list[int]:
    """The number of elements of each length in W_levi: the coefficients of
    the Poincaré polynomial, the product of 1 + q + ... + q^m over the
    exponents m."""
    sizes = [1]
    for m in parabolic_exponents(rs, levi):
        sizes = [sum(sizes[max(0, k - m):k + 1]) for k in range(len(sizes) + m)]
    return sizes


# Inside the enumeration signed image s is the byte _ZERO + s, its byte code,
# so the images of at most _MAX_BYTE_CODED positive roots fit; a record holds
# each image, and each length, as one signed byte.
_ZERO = 128
_MAX_BYTE_CODED = 127
# byte code -> its image as a signed byte, and -> 0xFF for a negative image,
# else 0
_SIGNED_BYTE = bytes((b - _ZERO) & 0xFF for b in range(256))
_SIGN_FILL = bytes(0xFF * (b < _ZERO) for b in range(256))


def _byte_table(table: SignedImages) -> bytes:
    """An action table (:func:`_action_table`) as a ``bytes.translate``
    table on byte codes: code _ZERO + s goes to _ZERO + table[s]."""
    codes = bytearray(range(256))
    n = len(table) // 2
    for s in range(-n, n + 1):
        codes[_ZERO + s] = _ZERO + table[s]
    return bytes(codes)


def _closure(rs: RootSystem, levi: int) -> tuple[array, array]:
    """Enumerate the subgroup generated by the reflections of ``levi``, in
    group order: one record per element (its length, then its signed images)
    in a flat array of signed bytes, and its descent mask
    ``left << 8 | right`` in a uint16 array.

    A breadth-first walk by left multiplication, layer by layer in length.
    Each element is reached once, from its smallest left descent i: from w
    the walk takes s_i·w only when i is no left descent of w and no j < i is
    a left descent of s_i·w, which ``_guards`` reads off w before composing.
    So no element is composed twice and no seen-set is kept; each layer's
    size is checked against the Poincaré polynomial instead.  The left mask
    comes from the same lookups.

    Inside the walk an element is its byte codes, so s_i·w is one
    ``translate`` by s_i's byte table, and sorting a layer's byte strings
    sorts it by signed images.  Each sorted layer becomes its records by one
    more ``translate``, to signed bytes, of that layer only."""
    n, rank = rs.num_positive, rs.rank
    if n > _MAX_BYTE_CODED:
        raise ResourceLimitError(f"Weyl enumeration for {rs.type_name()} holds {n} positive "
                                 f"roots; a byte code holds at most {_MAX_BYTE_CODED}")
    if rs.positive_roots[:rank] != tuple(tuple(int(j == i) for j in range(rank))
                                        for i in range(rank)):
        raise ContractError(f"the simple roots of {rs.type_name()} are not its first "
                            f"{rank} positive roots")
    guards = [(bit, _byte_table(table), frozenset(_ZERO + s for s in forbidden))
              for bit, table, forbidden in _guards(rs, levi)]
    descent_bit = {_ZERO - 1 - i: 1 << i for i in mask_indices(levi)}  # -alpha_i is an image
    watched = frozenset(descent_bit).union(*(forbidden for _, _, forbidden in guards))
    unwatched = bytes(b for b in range(256) if b not in watched)
    plans: dict[frozenset[int], tuple[int, tuple[bytes, ...]]] = {}
    # the right mask, by the sign fills of the images of the simple roots
    right_of = {bytes(0xFF * (m >> j & 1) for j in range(rank)): m for m in range(1 << rank)}
    records, masks = array("b"), array("H")
    step = [bytes(range(_ZERO + 1, _ZERO + 1 + n))]
    for length, size in enumerate(_layer_sizes(rs, levi)):
        if len(step) != size:
            raise ContractError(
                f"{len(step)} elements of length {length} in W_{mask_str(levi)} of "
                f"{rs.type_name()}; its Poincaré polynomial has {size}")
        step.sort()
        nxt: list[bytes] = []
        for w in step:
            present = frozenset(w.translate(None, unwatched))
            plan = plans.get(present)
            if plan is None:  # the left mask, and the tables of the steps taken
                left = sum(descent_bit.get(s, 0) for s in present)
                plan = plans[present] = (left << 8, tuple(
                    table for bit, table, forbidden in guards
                    if not left & bit and forbidden.isdisjoint(present)))
            left, tables = plan
            masks.append(left + right_of[w[:rank].translate(_SIGN_FILL)])
            if tables:
                nxt.extend(map(w.translate, tables))  # s_i·w for each step taken
        code = bytes((_ZERO + length,))
        # per element its length, then its images
        records.frombytes((code + code.join(step)).translate(_SIGNED_BYTE))
        step = nxt
    if step:
        raise ContractError(f"elements of length {length + 1} in W_{mask_str(levi)} of "
                            f"{rs.type_name()}, past its longest element")
    return records, masks


def _unpacked(records: array, width: int) -> Iterator[tuple[SignedImages, int]]:
    """(signed images, length) of each record of ``width`` entries."""
    return ((tuple(records[start + 1:start + width]), records[start])
            for start in range(0, len(records), width))


def _check_cap(rs: RootSystem, levi: int) -> None:
    """Refuse, before any element is built, a subgroup larger than
    ``DEFAULT_WEYL_CAP``."""
    order = parabolic_order(rs, levi)
    if order > DEFAULT_WEYL_CAP:
        raise ResourceLimitError(f"Weyl enumeration for {rs.type_name()} exceeds cap "
                                 f"{DEFAULT_WEYL_CAP} ({order} elements)")


@lru_cache(maxsize=None)
def generate_weyl(rs: RootSystem) -> WeylGroup:
    """The full Weyl group, identity first, sorted by length."""
    _check_cap(rs, full_mask(rs.rank))
    return WeylGroup(rs, *_closure(rs, full_mask(rs.rank)))


@lru_cache(maxsize=None)
def parabolic_subgroup(rs: RootSystem, levi: int) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections of the subset ``levi``."""
    validate_mask(levi, rs.rank)
    _check_cap(rs, levi)
    records, _ = _closure(rs, levi)
    return tuple(starmap(WeylElement, _unpacked(records, rs.num_positive + 1)))


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


class WeylGroup(Sequence):
    """A Weyl group in group order, as the two arrays of :func:`_closure`:
    the flat records (per element its length, then its signed images, one
    signed byte each) and a descent mask per element.  A generated group and
    one read from the cache both come as these arrays, with no element
    built: each read decodes its element from the records.  Slices are
    tuples; a group equals any sequence of its elements."""

    def __init__(self, rs: RootSystem, records: array, masks: array) -> None:
        self._width = rs.num_positive + 1
        self._records = records
        self.masks = masks

    def records(self) -> Iterator[tuple[SignedImages, int]]:
        """(signed images, length) of every element, in group order, read
        from the records without building an element."""
        return _unpacked(self._records, self._width)

    def __len__(self) -> int:
        return len(self.masks)

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


def kostant_reps(rs: RootSystem, I: int, J: int,
                 elements: WeylGroup | None = None) -> tuple[DoubleCosetRep, ...]:
    """One minimal-length representative per (W_I, W_J) double coset, in
    group order (by length, then signed images).

    w is minimal in its double coset iff w(alpha_j) > 0 for every j in J and
    w^-1(alpha_i) > 0 for every i in I, so the representatives are the
    elements whose descent masks miss J on the right and I on the left, found
    in one scan of the masks.  The cosets are checked to partition the
    group: by Kilmoyer's theorem
    W_I n wW_Jw^-1 = W_levi(w), so the coset of w has |W_I||W_J|/|W_levi(w)|
    elements, and these sizes must add up to |W|.

    For such a w the filters of the general gamma and delta formulas (kept
    as references in ``tests/oracles.py``) simplify.  w keeps the J-Levi's positive roots
    positive and w^-1 the I-Levi's, so gamma is the sum of the inversion set
    of w alone, summed per representative.  w carries the positive roots of
    the Levi of L' = {j in J : w(alpha_j) in I} onto those of the Levi of levi(w),
    so delta is the sum of the J-Levi's positive roots outside the L'-Levi,
    kept per L' in each call."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group = elements if elements is not None else generate_weyl(rs)
    forbidden = I << 8 | J
    positions = [p for p, mask in enumerate(group.masks) if not mask & forbidden]
    phi_i = levi_root_indices(rs, I)
    simple_j = mask_indices(J)
    outer = parabolic_order(rs, I) * parabolic_order(rs, J)
    coset_size: dict[int, int] = {}  # |W_I||W_J|/|W_levi|, by levi
    delta_of: dict[int, Coords] = {}  # by L'
    reps = []
    covered = 0
    for position in positions:
        w = group[position]
        images = w.signed_images
        levi, source = _intersect_levi(rs, images, simple_j, phi_i)
        if levi not in coset_size:
            coset_size[levi] = outer // parabolic_order(rs, levi)
        covered += coset_size[levi]
        if source not in delta_of:
            delta_of[source] = levi_difference_sum(rs, J, source)
        reps.append(DoubleCosetRep(
            w=w, I=I, J=J, length=w.length,
            gamma_exp=_inversion_sum(rs, images),
            delta_exp=delta_of[source],
            levi=levi,
        ))
    order = parabolic_order(rs, full_mask(rs.rank))
    if covered != order or len(group) != order:
        raise ContractError(
            f"double cosets cover {covered} of {len(group)} group elements; "
            f"|W({rs.type_name()})| = {order}: they do not partition the Weyl group")
    return tuple(reps)


# ---------------------------------------------------------------------------
# optional binary cache, one file per (series, rank)
#
# Layout: the magic, which names the byte order of the masks (l or b), the
# little-endian header (series, rank, N positive roots, element count), one
# record per element in group order (length, then the N signed images, one
# signed byte each), then one uint16 descent mask per element
# (left << 8 | right).  These are the two arrays a WeylGroup holds, written
# as they are held; a file of the other byte order is a miss.

_CACHE_MAGIC = b"WGC3" + sys.byteorder[0].encode()
_CACHE_HEADER = struct.Struct("<cBII")


def weyl_cache_path(cache_dir: str | Path, series: str, rank: int) -> Path:
    return Path(cache_dir) / f"weyl_{series}{rank}.bin"


def save_weyl_cache(rs: RootSystem, group: WeylGroup, cache_dir: str | Path) -> Path:
    """Write ``group``'s records and descent masks as they are held; a path
    that cannot be written is a configuration error."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(_CACHE_MAGIC + _CACHE_HEADER.pack(
                rs.series.encode(), rs.rank, rs.num_positive, len(group)))
            group._records.tofile(fh)
            group.masks.tofile(fh)
    except OSError as e:
        raise ConfigurationError(f"cannot write the Weyl cache {path}: "
                                 f"{e.strerror or e}") from None
    return path


def load_weyl_cache(rs: RootSystem, cache_dir: str | Path) -> WeylGroup | None:
    """Load the cached group; returns None on a missing file, an older
    format or the other byte order, a header mismatch, a wrong file size or
    a record entry outside -N..N (the cache is then simply recomputed)."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    prefix = len(_CACHE_MAGIC) + _CACHE_HEADER.size
    try:
        with path.open("rb") as fh:
            head = fh.read(prefix)
            if len(head) != prefix or not head.startswith(_CACHE_MAGIC):
                return None
            series, rank, n, count = _CACHE_HEADER.unpack_from(head, len(_CACHE_MAGIC))
            if series != rs.series.encode() or rank != rs.rank or n != rs.num_positive:
                return None
            size = count * (n + 1)
            if os.fstat(fh.fileno()).st_size != prefix + size + 2 * count:
                return None
            raw = fh.read(size)
            masks = array("H")
            masks.fromfile(fh, count)
    except (OSError, EOFError, ValueError):  # the last two: it shrank while read
        return None
    # every length and image lies in -N..N, as a signed byte
    if raw.translate(None, bytes(s & 0xFF for s in range(-n, n + 1))):
        return None
    return WeylGroup(rs, array("b", raw), masks)


def load_or_generate(rs: RootSystem, cache_dir: str | Path | None = None) -> WeylGroup:
    """The Weyl group of ``rs``: read from the cache file, else generated
    and, with a directory, written there."""
    if cache_dir is None:
        return generate_weyl(rs)
    group = load_weyl_cache(rs, cache_dir)
    if group is None:
        group = generate_weyl(rs)
        save_weyl_cache(rs, group, cache_dir)
    return group
