"""Exact homological linear algebra over the integers.

Matrices carry arbitrary-precision integer entries: Smith normal form can
blow up intermediate values far past machine width, and a silently wrapped
divisor would corrupt every torsion answer downstream.  All complexes use the
cohomological (left-to-right) indexing ``differentials[k]: degree k -> k+1``.

Matrices are stored as sparse columns.  The subset-lattice differentials are
signed incidence matrices, mostly zeros and otherwise +-1, so the ``d d = 0``
check and the homology both run over the nonzero entries: homology eliminates
unit pivots first and hands only the non-unit block that remains to the
dense Smith normal form of :mod:`~steinberg_ext.smith`, imported only when
a block is left and re-exported here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ConfigurationError, ContractError, ResourceLimitError, _Frozen
from .rootdata import RootSystem, full_mask, mask_indices, mask_size, mask_str, validate_mask
from .ringcond import RingSpec

# ---------------------------------------------------------------------------
# integer matrices

Column = tuple[tuple[int, int], ...]


class IntMatrix(_Frozen):
    """Integer matrix by sparse columns: ``columns[j]`` lists the nonzero
    ``(row, value)`` pairs of column j in increasing row order."""

    _fields = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: tuple[Column, ...]) -> None:
        if rows < 0 or len(columns) != cols:
            raise ContractError("matrix shape does not match its column count")
        for col in columns:
            last = -1
            for row, value in col:
                if row <= last or not value:
                    break
                last = row
            else:
                if last < rows:
                    continue
            raise ContractError("matrix column must list nonzero entries at "
                                "strictly increasing rows inside the row range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, ((),) * cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(((j, 1),) for j in range(n)))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ContractError("ragged rows")
        return cls(len(rows), ncols,
                   tuple(tuple((i, r[j]) for i, r in enumerate(rows) if r[j])
                         for j in range(ncols)))

    @property
    def entries(self) -> tuple[int, ...]:
        """All entries, zeros included, in row-major order."""
        return tuple(_row_major(self))

    def entry(self, i: int, j: int) -> int:
        for row, value in self.columns[j]:
            if row == i:
                return value
        return 0

    def nonzeros(self) -> Iterator[tuple[int, int, int]]:
        """The nonzero entries as ``(row, col, value)``, column by column."""
        for j, col in enumerate(self.columns):
            for i, value in col:
                yield i, j, value

    def to_rows(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, j, value in self.nonzeros():
            out[i][j] = value
        return out

    def transpose(self) -> "IntMatrix":
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.rows)]
        for i, j, value in self.nonzeros():
            out[i].append((j, value))
        return IntMatrix(self.cols, self.rows, tuple(map(tuple, out)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """The product over the nonzeros alone."""
        if self.cols != other.rows:
            raise ContractError("matrix product shape mismatch")
        columns = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, v in col:
                for i, w in self.columns[k]:
                    acc[i] = acc.get(i, 0) + v * w
            columns.append(tuple(sorted((i, x) for i, x in acc.items() if x)) if acc else ())
        return IntMatrix(self.rows, other.cols, tuple(columns))

    def is_zero(self) -> bool:
        return not any(self.columns)


def __getattr__(name: str):  # the dense form's names, from smith on first access
    if name in ("SmithForm", "smith_normal_form"):
        from . import smith

        return getattr(smith, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# invariant factors without transforms


def smith_divisors(m: IntMatrix) -> tuple[int, ...]:
    """The Smith divisors of ``m`` without the transforms.

    Every +-1 entry is a pivot that contributes the divisor 1: clear its
    column with row operations, then drop its row and column.  Pivots are
    taken column by column, each from the lightest row holding a unit there,
    with another pass while fill-in creates new units.  The non-unit block
    left over goes to :func:`~steinberg_ext.smith.smith_normal_form`, whose
    divisibility-chain check covers the answer (leading 1s extend any chain).
    """
    rows: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> rows with a nonzero in it
    for j, col in enumerate(m.columns):
        if col:
            where[j] = {i for i, _ in col}
            for i, value in col:
                rows.setdefault(i, {})[j] = value
    units = 0
    progress = True
    while progress:
        progress = False
        for j in list(where):
            holders = where[j]
            pivot = min((i for i in holders if rows[i][j] in (1, -1)),
                        key=lambda i: len(rows[i]), default=None)
            if pivot is None:
                continue
            _eliminate_unit(rows, where, pivot, j)
            units += 1
            progress = True

    live = [j for j, holders in where.items() if holders]
    if not live:
        return (1,) * units
    index = {i: k for k, i in enumerate(sorted({i for j in live for i in where[j]}))}
    block = IntMatrix(len(index), len(live),
                      tuple(tuple(sorted((index[i], rows[i][j]) for i in where[j]))
                            for j in live))
    from . import smith  # no row a command builds gets here

    return (1,) * units + smith.smith_normal_form(block).divisors


def _eliminate_unit(rows: dict[int, dict[int, int]], where: dict[int, set[int]],
                    r: int, j: int) -> None:
    """Clear column j below and above the unit at (r, j), then drop row r and
    column j; the rest of row r is cleared by column operations that touch
    nothing else, so the remaining block keeps the other divisors."""
    pivot_row = rows.pop(r)
    unit = pivot_row.pop(j)
    holders = where.pop(j)
    holders.discard(r)
    for c in pivot_row:
        where[c].discard(r)
    for i in holders:
        row = rows[i]
        factor = row.pop(j) * unit  # unit is its own inverse
        for c, value in pivot_row.items():
            new = row.get(c, 0) - factor * value
            if new:
                row[c] = new
                where[c].add(i)
            else:
                del row[c]
                where[c].discard(i)


# ---------------------------------------------------------------------------
# chain complexes

LabelSource = Callable[[], Iterable[Iterable[str]]]


class ChainComplex(_Frozen):
    """Graded free modules with integer differentials, ``differentials[k]``
    mapping degree-k chains to degree-(k+1) chains.  Basis labels are built
    from the keyword-only ``label_source`` the first time ``labels`` is read."""

    _fields = ("ranks", "differentials")

    def __init__(self, ranks: tuple[int, ...], differentials: tuple[IntMatrix, ...], *,
                 label_source: LabelSource | None = None) -> None:
        if len(differentials) != max(len(ranks) - 1, 0):
            raise ContractError("differential count does not match the grading")
        for k, dk in enumerate(differentials):
            if (dk.rows, dk.cols) != (ranks[k + 1], ranks[k]):
                raise ContractError(f"differential {k} has shape {dk.rows}x{dk.cols}, "
                                    f"expected {ranks[k + 1]}x{ranks[k]}")
        for k in range(len(differentials) - 1):
            if not differentials[k + 1].mul(differentials[k]).is_zero():
                raise ContractError(f"d_{k + 1} d_{k} != 0 (sign rule or map rule is wrong)")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", differentials)
        object.__setattr__(self, "label_source", label_source)

    @cached_property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        if self.label_source is None:
            return ()
        labels = tuple(tuple(degree) for degree in self.label_source())
        if len(labels) != len(self.ranks):
            raise ContractError("label count does not match the grading")
        return labels

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.ranks))


def _row_major(m: IntMatrix) -> list[int]:
    """``m.entries`` as a list, written straight from the sparse columns."""
    out = [0] * (m.rows * m.cols)
    for i, j, value in m.nonzeros():
        out[i * m.cols + j] = value
    return out


def complex_to_json_dict(c: ChainComplex) -> dict:
    return {
        "ranks": list(c.ranks),
        "differentials": [_row_major(d) for d in c.differentials],
        "labels": [list(l) for l in c.labels],
    }


def reverse_transpose(c: ChainComplex) -> ChainComplex:
    """The complex read right-to-left with transposed maps, as produced by
    applying a contravariant functor degreewise."""
    m = len(c.ranks) - 1
    ranks = tuple(reversed(c.ranks))
    diffs = tuple(c.differentials[m - 1 - u].transpose() for u in range(m))
    labels = None if c.label_source is None else (lambda: reversed(c.labels))
    return ChainComplex(ranks, diffs, label_source=labels)


class HomologyResult(NamedTuple):
    """Per-degree description: free rank over the coefficient ring plus the
    moduli of the non-free cyclic summands."""

    free_ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return not any(self.free_ranks) and not any(self.torsion)

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.free_ranks))
                     if self.free_ranks[k] or self.torsion[k])

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * r for k, r in enumerate(self.free_ranks))

    def dual(self) -> "HomologyResult":
        """The homology of :func:`reverse_transpose`: free ranks read
        backwards, torsion read backwards and moved one degree up."""
        return HomologyResult(self.free_ranks[::-1], ((),) + self.torsion[:0:-1])


def homology_over_Z(c: ChainComplex) -> HomologyResult:
    n = len(c.ranks)
    divisors = [smith_divisors(d) for d in c.differentials]
    free = []
    torsion = []
    for k in range(n):
        out_rank = len(divisors[k]) if k < n - 1 else 0
        incoming = divisors[k - 1] if k > 0 else ()
        free.append(c.ranks[k] - out_rank - len(incoming))
        torsion.append(tuple(x for x in incoming if x > 1))
    return HomologyResult(tuple(free), tuple(torsion))


def _invariant_factors(moduli: list[int]) -> list[int]:
    """Canonical invariant-factor form (largest first) of a direct sum of
    cyclic groups; moduli of 1 disappear.  Pairwise gcd/lcm normalisation,
    ``Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b)``, sorts the moduli into a
    divisibility chain without factoring any of them (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4)."""
    chain = list(moduli)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return [f for f in reversed(chain) if f > 1]


def homology_with_coefficients(c: ChainComplex | HomologyResult,
                               spec: RingSpec) -> HomologyResult:
    """Homology over Q or Z/d of a complex, or of a complex whose integer
    homology ``c`` is already known.

    For Z/d the answer is assembled from the integer homology through the
    universal-coefficient splitting for complexes of free modules,
    ``H^k(C (x) Z/d) = H^k(C) (x) Z/d  (+)  Tor(H^{k+1}(C), Z/d)``:
    a cyclic integer summand Z/t contributes Z/gcd(t, d).  The collected
    cyclic pieces are normalized to invariant factors, so a summand counts
    toward the free rank exactly when its factor equals d itself.
    """
    if spec.d == 1:
        raise ConfigurationError("Z/1 is the zero ring; homology over it is degenerate")
    integral = c if isinstance(c, HomologyResult) else homology_over_Z(c)
    if spec.is_rational:
        return HomologyResult(integral.free_ranks, tuple(() for _ in integral.free_ranks))

    n = len(integral.free_ranks)
    free = []
    torsion = []
    for k in range(n):
        moduli = [spec.d] * integral.free_ranks[k]
        moduli += [gcd(t, spec.d) for t in integral.torsion[k]]
        if k + 1 < n:
            moduli += [gcd(t, spec.d) for t in integral.torsion[k + 1]]
        factors = _invariant_factors([m for m in moduli if m > 1])
        free.append(sum(1 for f in factors if f == spec.d))
        torsion.append(tuple(sorted(f for f in factors if f != spec.d)))
    return HomologyResult(tuple(free), tuple(torsion))


# ---------------------------------------------------------------------------
# subset-lattice complexes

RankFn = Callable[[int], int]
MapRule = Callable[[int, int], IntMatrix]

# The most subsets a lattice complex may enumerate, and the most basis vectors
# it may hold; every row complex of every type of rank <= 8 is under both.
LATTICE_CAP = 1 << 15


@lru_cache(maxsize=None)
def lattice_degrees(rank: int, bottom: int) -> tuple[tuple[int, ...], ...]:
    """Subsets between ``bottom`` and the full set, grouped by codimension
    ``|Delta \\ L|`` (= rank - |L|) and sorted within each degree."""
    validate_mask(bottom, rank)
    free_bits = mask_indices(full_mask(rank) & ~bottom)
    if 1 << len(free_bits) > LATTICE_CAP:
        raise ResourceLimitError(f"the subsets above {mask_str(bottom)} in rank {rank} "
                                 f"exceed the cap of {LATTICE_CAP}")
    groups: list[list[int]] = [[] for _ in range(len(free_bits) + 1)]
    for extra in range(1 << len(free_bits)):
        mask = bottom
        for pos, bit in enumerate(free_bits):
            if extra >> pos & 1:
                mask |= 1 << bit
        groups[rank - mask_size(mask)].append(mask)
    return tuple(tuple(sorted(g)) for g in groups)


def subset_lattice_complex(rs: RootSystem, bottom: int, coefficient_rank: RankFn,
                           map_rule: MapRule,
                           summand_label: Callable[[int, int], str] | None = None) -> ChainComplex:
    """Complex over the subsets ``bottom <= L <= Delta``, graded by
    ``|Delta \\ L|``, with the component from the L-summand to the
    (L minus beta)-summand signed by the 1-based position of beta in L.

    ``map_rule(L, beta)`` returns the unsigned block of shape
    ``coefficient_rank(L \\ beta) x coefficient_rank(L)`` as an ``IntMatrix``;
    it is called only when both ranks are positive.  A block of the wrong
    shape raises, and the constructor asserts ``d d = 0``, so a rule that
    breaks the sign convention raises too.  Labels (``summand_label(L, b)``,
    else ``L={..}#b``) are only built when read.  More than ``LATTICE_CAP``
    subsets or basis vectors raise before any map is built.
    """
    groups = lattice_degrees(rs.rank, bottom)
    ranks_of: dict[int, int] = {}
    for group in groups:
        for mask in group:
            ranks_of[mask] = coefficient_rank(mask)
            if ranks_of[mask] < 0:
                raise ContractError("coefficient rank must be non-negative")

    offsets: list[dict[int, int]] = []
    ranks = []
    for group in groups:
        off: dict[int, int] = {}
        pos = 0
        for mask in group:
            off[mask] = pos
            pos += ranks_of[mask]
        offsets.append(off)
        ranks.append(pos)
    if sum(ranks) > LATTICE_CAP:
        raise ResourceLimitError(f"a complex of {sum(ranks)} basis vectors exceeds the cap "
                                 f"of {LATTICE_CAP}")

    diffs = []
    for s in range(len(groups) - 1):
        columns: list[list[tuple[int, int]]] = [[] for _ in range(ranks[s])]
        for mask in groups[s]:
            src_rank = ranks_of[mask]
            if src_rank == 0:
                continue
            c0 = offsets[s][mask]
            for position, b in enumerate(mask_indices(mask)):
                if bottom >> b & 1:
                    continue
                target = mask & ~(1 << b)
                tgt_rank = ranks_of[target]
                if tgt_rank == 0:
                    continue
                component = map_rule(mask, b)
                if (component.rows, component.cols) != (tgt_rank, src_rank):
                    raise ContractError(
                        f"map rule for L={mask_str(mask)} minus alpha_{b} returned shape "
                        f"{component.rows}x{component.cols}, expected {tgt_rank}x{src_rank}")
                sign = -1 if position % 2 == 0 else 1  # (-1)^(1-based position)
                r0 = offsets[s + 1][target]
                for j, col in enumerate(component.columns, c0):
                    columns[j].extend((r0 + i, sign * value) for i, value in col)
        diffs.append(IntMatrix(ranks[s + 1], ranks[s], tuple(tuple(sorted(col)) for col in columns)))

    def labels() -> Iterator[tuple[str, ...]]:
        name = summand_label or (lambda mask, b: f"L={mask_str(mask)}#{b}")
        for group in groups:
            yield tuple(name(mask, b) for mask in group for b in range(ranks_of[mask]))

    return ChainComplex(tuple(ranks), tuple(diffs), label_source=labels)


def exterior_row_complex(rs: RootSystem, bottom: int, t: int, *, span: int | None = None,
                         numbered: bool = False) -> ChainComplex:
    """One row of a resolution over the subsets ``bottom <= L <= Delta``: the
    L-summand has one basis vector per t-subset of ``Delta \\ (L n span)``;
    every map is subset inclusion.

    By default (span = Delta) this is the row of t-th exterior powers of the
    character lattices; with ``span = J <= bottom`` it is the constant row of
    rank ``C(rank - |J|, t)`` with identity maps.  Labels are ``L={..}|w{..}``
    by t-subset, or ``L={..}#b`` with ``numbered``.
    """
    if t < 0:
        raise ConfigurationError("exterior power degree must be non-negative")
    delta = full_mask(rs.rank)
    span = delta if span is None else span

    @lru_cache(maxsize=None)
    def basis(kept: int) -> tuple[tuple[int, ...], ...]:
        return tuple(combinations(mask_indices(delta & ~kept), t))

    @lru_cache(maxsize=None)
    def inclusion(kept: int, target: int) -> IntMatrix:
        index = {s: i for i, s in enumerate(basis(target))}
        src = basis(kept)
        return IntMatrix(len(index), len(src), tuple(((index[s], 1),) for s in src))

    def rank_fn(mask: int) -> int:
        return comb(rs.rank - mask_size(mask & span), t)

    def rule(mask: int, beta: int) -> IntMatrix:
        return inclusion(mask & span, mask & ~(1 << beta) & span)

    def label(mask: int, b: int) -> str:
        return f"L={mask_str(mask)}|w{{{','.join(map(str, basis(mask & span)[b]))}}}"

    return subset_lattice_complex(rs, bottom, rank_fn, rule, None if numbered else label)


# Integer homology of every exterior row built in this process, by (m, t)
# with m = |Delta \ bottom|, the row's shape; the complexes are not kept.
_ROW_HOMOLOGY: dict[tuple[int, int], HomologyResult] = {}


def _copies(rs: RootSystem, bottom: int, t: int, span: int) -> int:
    """How many copies of the t = 0 row over ``bottom`` the constant row with
    ``span`` is."""
    if span & ~bottom:
        raise ContractError(f"span {mask_str(span)} is not inside {mask_str(bottom)}")
    return comb(rs.rank - mask_size(span), t)


def row_homology(rs: RootSystem, bottom: int, t: int,
                 span: int | None = None) -> HomologyResult:
    """Integer homology of that row of :func:`exterior_row_complex`.

    The row over ``bottom`` reads only its m free simple roots: numbering
    them in order maps it onto the row over {} in rank m, up to the sign of
    each component, which changes by (-1)^#{b in bottom : b < beta}; scaling
    the L-summand by the product of those signs over the free roots outside
    L undoes it.  So the homology depends on (m, t) alone, and each shape is
    built (from the row the caller asked for), checked (``d d = 0``) and
    reduced once per process.  A constant row (``span <= bottom``) is
    ``C(rank - |span|, t)`` copies of its t = 0 row, the exterior row of
    t = 0, so it is never built."""
    validate_mask(bottom, rs.rank)
    if span is not None:
        h, copies = row_homology(rs, bottom, 0), _copies(rs, bottom, t, span)
        return HomologyResult(tuple(copies * r for r in h.free_ranks),
                              tuple(tuple(sorted(x * copies)) for x in h.torsion))
    key = (rs.rank - mask_size(bottom), t)
    if key not in _ROW_HOMOLOGY:
        _ROW_HOMOLOGY[key] = homology_over_Z(exterior_row_complex(rs, bottom, t))
    return _ROW_HOMOLOGY[key]
