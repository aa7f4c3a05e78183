"""Weyl groups as signed permutations of the positive roots.

An element is stored as a tuple ``signed_images`` where entry ``k`` is
``+(j+1)`` if it maps the k-th positive root to the j-th positive root and
``-(j+1)`` if it maps it to minus the j-th positive root.  The encoding is
unique per element, so subgroup and double-coset computations are plain set
operations, and the length function is the count of negative entries.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from pathlib import Path

from .errors import ContractError, ResourceLimitError
from .rootdata import (
    Coords,
    RootSystem,
    full_mask,
    levi_root_indices,
    mask_indices,
    validate_mask,
    zero_coords,
)

DEFAULT_WEYL_CAP = 1 << 20

SignedImages = tuple[int, ...]


@dataclass(frozen=True)
class WeylElement:
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


def compose_images(u: SignedImages, v: SignedImages) -> SignedImages:
    """Signed images of u∘v (apply v first, then u)."""
    out = []
    for sv in v:
        su = u[abs(sv) - 1]
        out.append(su if sv > 0 else -su)
    return tuple(out)


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


def _closure(rs: RootSystem, generator_images: tuple[SignedImages, ...],
             cap: int) -> tuple[WeylElement, ...]:
    identity = _identity_images(rs.num_positive)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in generator_images:
                gw = compose_images(g, w)
                if gw not in seen:
                    if len(seen) >= cap:
                        raise ResourceLimitError(
                            f"Weyl enumeration for {rs.type_name()} exceeds cap {cap}"
                            f" (at least {len(seen) + 1} elements)")
                    seen.add(gw)
                    nxt.append(gw)
        frontier = nxt
    elements = sorted((_element(im) for im in seen),
                      key=lambda w: (w.length, w.signed_images))
    return tuple(elements)


@lru_cache(maxsize=None)
def generate_weyl(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> tuple[WeylElement, ...]:
    """The full Weyl group, identity first, sorted by length."""
    gens = tuple(_simple_reflection_images(rs, i) for i in range(rs.rank))
    return _closure(rs, gens, cap)


@lru_cache(maxsize=None)
def parabolic_subgroup(rs: RootSystem, levi: int,
                       cap: int = DEFAULT_WEYL_CAP) -> tuple[WeylElement, ...]:
    """Subgroup generated by the reflections of the subset ``levi``."""
    validate_mask(levi, rs.rank)
    gens = tuple(_simple_reflection_images(rs, i) for i in mask_indices(levi))
    return _closure(rs, gens, cap)


# ---------------------------------------------------------------------------
# double cosets and the character exponents of their strata


@dataclass(frozen=True)
class DoubleCosetRep:
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


def gamma_exponents(rs: RootSystem, w: WeylElement, I: int, J: int) -> Coords:
    """Sum of the positive roots outside the J-Levi that w sends to negative
    roots outside the (negated) I-Levi."""
    phi_j = levi_root_indices(rs, J)
    phi_i = levi_root_indices(rs, I)
    return _root_sum(rs, [k for k, s in enumerate(w.signed_images)
                          if s < 0 and k not in phi_j and -1 - s not in phi_i])


def delta_exponents(rs: RootSystem, w: WeylElement, I: int, J: int) -> Coords:
    """Sum of the J-Levi positive roots that w keeps positive outside the
    I-Levi."""
    phi_j = levi_root_indices(rs, J)
    phi_i = levi_root_indices(rs, I)
    images = w.signed_images
    return _root_sum(rs, [k for k in phi_j if images[k] > 0 and images[k] - 1 not in phi_i])


def intersect_levi(rs: RootSystem, w: WeylElement, I: int, J: int) -> int:
    """The subset of J whose simple roots w carries into I (as simple roots).

    Defined for minimal-length double-coset representatives only; for those,
    any beta in J landing inside the I-Levi must land on a simple root.
    """
    phi_i = levi_root_indices(rs, I)
    out = 0
    for b in mask_indices(J):
        j, sign = w.image_of_root(b)
        if sign < 0:
            raise ContractError(
                f"w(alpha_{b}) is negative; not a minimal double-coset representative")
        if j in phi_i:
            if j >= rs.rank:
                raise ContractError(
                    f"w(alpha_{b}) lies in the I-Levi but is not simple; "
                    "not a minimal double-coset representative")
            out |= 1 << j
    return out


# Descent buckets of the last group seen per root system.  A group is matched
# by identity: hashing its element tuple would cost more than the lookup.
_DESCENT_BUCKETS: dict[RootSystem, tuple[tuple[WeylElement, ...],
                                          dict[tuple[int, int], list[int]]]] = {}


def _descent_buckets(rs: RootSystem, group: tuple[WeylElement, ...]
                     ) -> dict[tuple[int, int], list[int]]:
    """Positions in ``group``, in group order, keyed by (left, right) descent
    masks.  Bit j of the right mask is set when w(alpha_j) < 0, bit i of the
    left mask when w^-1(alpha_i) < 0, that is when -alpha_i is an image."""
    cached = _DESCENT_BUCKETS.get(rs)
    if cached is not None and cached[0] is group:
        return cached[1]
    bit_of = {-1 - i: 1 << i for i in range(rs.rank)}  # image -(i+1) -> bit i
    negated_simple = frozenset(bit_of)
    bits = tuple(bit_of.values())
    is_negative = (0).__gt__
    buckets: dict[tuple[int, int], list[int]] = {}
    for position, w in enumerate(group):
        images = w.signed_images
        left = sum(map(bit_of.__getitem__, negated_simple.intersection(images)))
        right = sum(compress(bits, map(is_negative, images)))  # first rank images
        buckets.setdefault((left, right), []).append(position)
    _DESCENT_BUCKETS[rs] = (group, buckets)
    return buckets


@lru_cache(maxsize=None)
def parabolic_order(rs: RootSystem, levi: int) -> int:
    """|W_levi| without the group.  The numbers of roots of each height in
    the Levi's positive roots form a partition whose conjugate lists the
    exponents m (Kostant), and the order is the product of the m + 1."""
    heights = Counter(sum(rs.positive_roots[k]) for k in levi_root_indices(rs, levi))
    order = 1
    for j in range(1, heights[1] + 1):
        order *= 1 + sum(1 for count in heights.values() if count >= j)
    return order


def kostant_reps(rs: RootSystem, I: int, J: int,
                 elements: tuple[WeylElement, ...] | None = None) -> tuple[DoubleCosetRep, ...]:
    """One minimal-length representative per (W_I, W_J) double coset, in
    group order (by length, then signed images).

    w is minimal in its double coset iff w(alpha_j) > 0 for every j in J and
    w^-1(alpha_i) > 0 for every i in I, so the representatives are the
    elements whose descent masks miss J on the right and I on the left.  The
    cosets are checked to partition the group: by Kilmoyer's theorem
    W_I n wW_Jw^-1 = W_levi(w), so the coset of w has |W_I||W_J|/|W_levi(w)|
    elements, and these sizes must add up to |W|."""
    validate_mask(I, rs.rank)
    validate_mask(J, rs.rank)
    group = elements if elements is not None else generate_weyl(rs)
    positions = sorted(chain.from_iterable(
        bucket for (left, right), bucket in _descent_buckets(rs, group).items()
        if not left & I and not right & J))
    outer = parabolic_order(rs, I) * parabolic_order(rs, J)
    reps = []
    covered = 0
    for position in positions:
        w = group[position]
        levi = intersect_levi(rs, w, I, J)
        covered += outer // parabolic_order(rs, levi)
        reps.append(DoubleCosetRep(
            w=w, I=I, J=J, length=w.length,
            gamma_exp=gamma_exponents(rs, w, I, J),
            delta_exp=delta_exponents(rs, w, I, J),
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

_CACHE_MAGIC = b"WGC1"


def weyl_cache_path(cache_dir: str | Path, series: str, rank: int) -> Path:
    return Path(cache_dir) / f"weyl_{series}{rank}.bin"


def save_weyl_cache(rs: RootSystem, elements: tuple[WeylElement, ...],
                    cache_dir: str | Path) -> Path:
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = rs.num_positive
    buf = [_CACHE_MAGIC,
           struct.pack("<cBII", rs.series.encode(), rs.rank, n, len(elements))]
    for w in elements:
        buf.append(struct.pack(f"<I{n}i", w.length, *w.signed_images))
    path.write_bytes(b"".join(buf))
    return path


def load_weyl_cache(rs: RootSystem, cache_dir: str | Path) -> tuple[WeylElement, ...] | None:
    """Load the cached group; returns None on a missing file or any header
    mismatch (the cache is then simply recomputed)."""
    path = weyl_cache_path(cache_dir, rs.series, rs.rank)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    header = struct.calcsize("<cBII")
    if len(raw) < 4 + header or raw[:4] != _CACHE_MAGIC:
        return None
    series, rank, n, count = struct.unpack_from("<cBII", raw, 4)
    if series.decode() != rs.series or rank != rs.rank or n != rs.num_positive:
        return None
    record = struct.calcsize(f"<I{n}i")
    if len(raw) != 4 + header + count * record:
        return None
    elements = []
    offset = 4 + header
    for _ in range(count):
        fields = struct.unpack_from(f"<I{n}i", raw, offset)
        offset += record
        elements.append(WeylElement(tuple(fields[1:]), fields[0]))
    return tuple(elements)


def load_or_generate(rs: RootSystem, cache_dir: str | Path | None,
                     cap: int = DEFAULT_WEYL_CAP) -> tuple[WeylElement, ...]:
    if cache_dir is None:
        return generate_weyl(rs, cap)
    cached = load_weyl_cache(rs, cache_dir)
    if cached is not None:
        return cached
    elements = generate_weyl(rs, cap)
    save_weyl_cache(rs, elements, cache_dir)
    return elements


def permutes_roots(rs: RootSystem, w: WeylElement) -> bool:
    """Check that the stored signed images really permute the root set and
    that the stored length matches the root action."""
    images = [abs(s) - 1 for s in w.signed_images]
    return sorted(images) == list(range(rs.num_positive)) and \
        w.length == _length_of(w.signed_images)
