"""Weyl groups as signed permutations of the positive roots.

An element is stored as a tuple ``signed_images`` where entry ``k`` is
``+(j+1)`` if it maps the k-th positive root to the j-th positive root and
``-(j+1)`` if it maps it to minus the j-th positive root.  The encoding is
unique per element, so subgroup and double-coset computations are plain set
operations, and the length function is the count of negative entries.

A group is enumerated once (``_closure``), by a breadth-first walk that
reaches each element from its smallest left descent, straight into flat
records (per element its length, then its signed images, in one int32 array)
and one descent mask per element.  Those two arrays are what a
:class:`WeylGroup` holds and what its cache file stores, so a generated group
and one read from the cache have one representation, and an element is
decoded only on its first access.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import chain, compress, starmap
from operator import attrgetter, eq, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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
    validate_mask,
    zero_coords,
)

if TYPE_CHECKING:
    from .strata import DescentClasses

DEFAULT_WEYL_CAP = 1 << 20

SignedImages = tuple[int, ...]


class WeylElement(NamedTuple):
    signed_images: SignedImages
    length: int

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def image_of_root(self, k: int) -> tuple[int, int]:
        """Index and sign of the image of the k-th positive root."""
        s = self.signed_images[k]
        return (abs(s) - 1, 1 if s > 0 else -1)


def _length_of(images: SignedImages) -> int:
    return sum(1 for s in images if s < 0)


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


def compose_images(u: SignedImages, v: SignedImages) -> SignedImages:
    """Signed images of u∘v (apply v first, then u)."""
    return _reader(v)(_action_table(u))


def _element(images: SignedImages) -> WeylElement:
    return WeylElement(images, _length_of(images))


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


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _element(_simple_reflection_images(rs, i))


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


def _closure(rs: RootSystem, levi: int) -> tuple[array, array]:
    """Enumerate the subgroup generated by the reflections of ``levi``, in
    group order: one record per element (its length, then its signed images)
    in a flat int32 array, and its descent mask ``left << 8 | right`` in a
    uint16 array.

    A breadth-first walk by left multiplication, layer by layer in length.
    Each element is reached once, from its smallest left descent i: from w
    the walk takes s_i·w only when i is no left descent of w and no j < i is
    a left descent of s_i·w, which ``_guards`` reads off w before composing.
    So no element is composed twice and no seen-set is kept; each layer's
    size is checked against the Poincaré polynomial instead.  The left mask
    comes from the same lookups."""
    rank = rs.rank
    if rs.positive_roots[:rank] != tuple(tuple(int(j == i) for j in range(rank))
                                        for i in range(rank)):
        raise ContractError(f"the simple roots of {rs.type_name()} are not its first "
                            f"{rank} positive roots")
    guards = _guards(rs, levi)
    descent_bit = {-1 - i: 1 << i for i in mask_indices(levi)}  # -alpha_i is an image
    watched = frozenset(descent_bit).union(*(forbidden for _, _, forbidden in guards))
    plans: dict[frozenset[int], tuple[int, tuple[SignedImages, ...]]] = {}
    right_bits = tuple(1 << j for j in range(rank))
    pack = struct.Struct(f"{rs.num_positive + 1}i").pack  # one record, as array("i") holds it
    records, masks = array("i"), array("H")
    step = [_identity_images(rs.num_positive)]
    for length, size in enumerate(_layer_sizes(rs, levi)):
        if len(step) != size:
            raise ContractError(
                f"{len(step)} elements of length {length} in W_{mask_str(levi)} of "
                f"{rs.type_name()}; its Poincaré polynomial has {size}")
        step.sort()
        nxt: list[SignedImages] = []
        packed = []
        for w in step:
            present = watched.intersection(w)
            plan = plans.get(present)
            if plan is None:  # the left mask, and the tables of the steps taken
                left = sum(descent_bit.get(s, 0) for s in present)
                plan = plans[present] = (left << 8, tuple(
                    table for bit, table, forbidden in guards
                    if not left & bit and forbidden.isdisjoint(present)))
            left, tables = plan
            packed.append(pack(length, *w))
            masks.append(left + sum(compress(right_bits, map(_is_negative, w))))
            if tables:
                nxt.extend(map(_reader(w), tables))  # compose_images(s_i, w)
        records.frombytes(b"".join(packed))
        step = nxt
    if step:
        raise ContractError(f"elements of length {length + 1} in W_{mask_str(levi)} of "
                            f"{rs.type_name()}, past its longest element")
    return records, masks


def _unpacked(records: array, width: int) -> Iterator[tuple[SignedImages, int]]:
    """(signed images, length) of each record of ``width`` entries."""
    return ((tuple(records[start + 1:start + width]), records[start])
            for start in range(0, len(records), width))


def _check_cap(rs: RootSystem, levi: int, cap: int) -> None:
    """Refuse, before any element is built, a subgroup larger than ``cap``."""
    order = parabolic_order(rs, levi)
    if order > cap:
        raise ResourceLimitError(f"Weyl enumeration for {rs.type_name()} exceeds cap {cap} "
                                 f"({order} elements)")


@lru_cache(maxsize=None)
def generate_weyl(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> WeylGroup:
    """The full Weyl group, identity first, sorted by length."""
    _check_cap(rs, full_mask(rs.rank), cap)
    records, masks = _closure(rs, full_mask(rs.rank))
    return WeylGroup(rs, [None] * len(masks), masks, records)


@lru_cache(maxsize=None)
def parabolic_subgroup(rs: RootSystem, levi: int,
                       cap: int = DEFAULT_WEYL_CAP) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections of the subset ``levi``."""
    validate_mask(levi, rs.rank)
    _check_cap(rs, levi, cap)
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


def _gamma(rs: RootSystem, images: SignedImages, phi_i: frozenset[int],
           phi_j: frozenset[int]) -> Coords:
    return _root_sum(rs, [k for k, s in enumerate(images)
                          if s < 0 and k not in phi_j and -1 - s not in phi_i])


def _delta(rs: RootSystem, images: SignedImages, phi_i: frozenset[int],
           phi_j: frozenset[int]) -> Coords:
    return _root_sum(rs, [k for k in phi_j if images[k] > 0 and images[k] - 1 not in phi_i])


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


_is_negative = (0).__gt__


def _inversion_sum(rs: RootSystem, images: SignedImages) -> Coords:
    """Sum of the inversion set N(w) = {alpha > 0 : w(alpha) < 0}."""
    return tuple(map(sum, zip(zero_coords(rs.rank),
                              *compress(rs.positive_roots, map(_is_negative, images)))))


def _descent_masks(rs: RootSystem, group: Sequence[WeylElement]) -> array:
    """``left << 8 | right`` for every element, in group order.  Bit j of the
    right mask is set when w(alpha_j) < 0, bit i of the left mask when
    w^-1(alpha_i) < 0, that is when -alpha_i is an image."""
    left_of = {frozenset(-1 - i for i in mask_indices(m)): m << 8
               for m in range(1 << rs.rank)}
    negated_simple = frozenset(range(-rs.rank, 0))
    right_bits = tuple(1 << j for j in range(rs.rank))
    return array("H", [  # compress reads only the first rank images
        left_of[negated_simple.intersection(images)]
        + sum(compress(right_bits, map(_is_negative, images)))
        for images in map(attrgetter("signed_images"), group)])


class WeylGroup(Sequence):
    """A Weyl group in group order, with the data its double cosets are read
    from: the flat records (per element its length, then its signed images,
    in one int32 array), a descent mask per element, the positions bucketed
    by mask, built on first use, and the inversion sums read so far, by
    position.  A generated group and one read from the cache both come as
    records and masks, with no element built: an element is decoded on its
    first access and kept.  A group built from elements packs their records
    and scans their masks here.  Slices are tuples; a group equals any
    sequence of its elements."""

    def __init__(self, rs: RootSystem, elements: Sequence[WeylElement | None],
                 masks: array | None = None, records: array | None = None) -> None:
        self.rs = rs
        self._elements = elements
        self._width = rs.num_positive + 1
        if records is None:
            records = array("i", chain.from_iterable(
                (w.length, *w.signed_images) for w in elements))
        self._records = records
        self.masks = _descent_masks(rs, elements) if masks is None else masks
        self.inversion_sums: dict[int, Coords] = {}

    @cached_property
    def buckets(self) -> dict[int, list[int]]:
        """Positions, in group order, keyed by descent mask."""
        buckets: dict[int, list[int]] = {}
        for position, mask in enumerate(self.masks):
            buckets.setdefault(mask, []).append(position)
        return buckets

    @cached_property
    def classes(self) -> DescentClasses:
        """The descent classes a ``verify --all-pairs`` sweep reads in place of
        representatives."""
        from .strata import DescentClasses  # only verify compiles it
        return DescentClasses(self.rs, self)

    def inversion_sum(self, position: int, images: SignedImages) -> Coords:
        """The inversion sum of the element at ``position``, whose signed
        images are ``images``: summed on first use and kept."""
        gamma = self.inversion_sums.get(position)
        if gamma is None:
            gamma = self.inversion_sums[position] = _inversion_sum(self.rs, images)
        return gamma

    def records(self) -> Iterator[tuple[SignedImages, int]]:
        """(signed images, length) of every element, in group order, read
        from the records without decoding or keeping an element."""
        return _unpacked(self._records, self._width)

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        w = self._elements[index]
        if w is None:
            start = index % len(self) * self._width
            images = tuple(self._records[start + 1:start + self._width])
            w = self._elements[index] = WeylElement(images, self._records[start])
        return w

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
    elements whose descent masks miss J on the right and I on the left.  The
    cosets are checked to partition the group: by Kilmoyer's theorem
    W_I n wW_Jw^-1 = W_levi(w), so the coset of w has |W_I||W_J|/|W_levi(w)|
    elements, and these sizes must add up to |W|.

    For such a w the filters of :func:`gamma_exponents` and
    :func:`delta_exponents` simplify.  w keeps the J-Levi's positive roots
    positive and w^-1 the I-Levi's, so gamma is the sum of the inversion set
    of w alone, kept per group element.  w carries the positive roots of the
    Levi of L' = {j in J : w(alpha_j) in I} onto those of the Levi of levi(w),
    so delta is the sum of the J-Levi's positive roots outside the L'-Levi,
    kept per L' in each call."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group = elements if elements is not None else generate_weyl(rs)
    forbidden = I << 8 | J
    positions = sorted(chain.from_iterable(
        bucket for mask, bucket in group.buckets.items() if not mask & forbidden))
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
            gamma_exp=group.inversion_sum(position, images),
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
# Layout, little-endian: the magic, the header (series, rank, N positive
# roots, element count), one record per element in group order (length, then
# the N signed images, all int32), then one uint16 descent mask per element
# (left << 8 | right).  These are the two arrays a WeylGroup holds.

_CACHE_MAGIC = b"WGC2"
_CACHE_HEADER = struct.Struct("<cBII")
_BIG_ENDIAN = sys.byteorder == "big"


def weyl_cache_path(cache_dir: str | Path, series: str, rank: int) -> Path:
    return Path(cache_dir) / f"weyl_{series}{rank}.bin"


def save_weyl_cache(rs: RootSystem, group: WeylGroup, cache_dir: str | Path) -> Path:
    """Write ``group``'s records and descent masks as they are held."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    records, masks = group._records, group.masks
    if _BIG_ENDIAN:  # swap copies: the group keeps its own
        records, masks = array("i", records), array("H", masks)
        records.byteswap()
        masks.byteswap()
    with path.open("wb") as fh:
        fh.write(_CACHE_MAGIC + _CACHE_HEADER.pack(
            rs.series.encode(), rs.rank, rs.num_positive, len(group)))
        records.tofile(fh)
        masks.tofile(fh)
    return path


def load_weyl_cache(rs: RootSystem, cache_dir: str | Path) -> WeylGroup | None:
    """Load the cached group; returns None on a missing file, an older
    format, a header mismatch or a wrong file size (the cache is then simply
    recomputed)."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    prefix = len(_CACHE_MAGIC) + _CACHE_HEADER.size
    try:
        with path.open("rb") as fh:
            head = fh.read(prefix)
            if len(head) != prefix or head[:4] != _CACHE_MAGIC:
                return None
            series, rank, n, count = _CACHE_HEADER.unpack_from(head, 4)
            if series != rs.series.encode() or rank != rs.rank or n != rs.num_positive:
                return None
            width = n + 1
            if os.fstat(fh.fileno()).st_size != prefix + count * (4 * width + 2):
                return None
            records, masks = array("i"), array("H")
            records.fromfile(fh, count * width)
            masks.fromfile(fh, count)
    except (OSError, EOFError, ValueError):  # the last two: it shrank while read
        return None
    if _BIG_ENDIAN:
        records.byteswap()
        masks.byteswap()
    return WeylGroup(rs, [None] * count, masks, records)


@lru_cache(maxsize=None)
def load_or_generate(rs: RootSystem, cache_dir: str | Path | None = None) -> WeylGroup:
    """The Weyl group of ``rs``, once per process and cache directory: read
    from the cache file, else generated and, with a directory, written there."""
    if cache_dir is None:
        return generate_weyl(rs)
    group = load_weyl_cache(rs, cache_dir)
    if group is None:
        group = generate_weyl(rs)
        save_weyl_cache(rs, group, cache_dir)
    return group


def permutes_roots(rs: RootSystem, w: WeylElement) -> bool:
    """Check that the stored signed images really permute the root set and
    that the stored length matches the root action."""
    images = [abs(s) - 1 for s in w.signed_images]
    return sorted(images) == list(range(rs.num_positive)) and \
        w.length == _length_of(w.signed_images)
