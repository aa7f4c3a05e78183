import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from steinberg_ext.errors import ConfigurationError, ContractError, ResourceLimitError
from steinberg_ext.extengine import cohomology_v, steinberg_degree
from steinberg_ext import homology, smith
from steinberg_ext.homology import (
    ChainComplex,
    HomologyResult,
    IntMatrix,
    _invariant_factors,
    complex_to_json_dict,
    exterior_row_complex,
    homology_over_Z,
    homology_with_coefficients,
    reverse_transpose,
    row_homology,
    smith_divisors,
    smith_normal_form,
    subset_lattice_complex,
)
from steinberg_ext.ringcond import RingSpec
from steinberg_ext.rootdata import (COMPLEX_BUILT, build_root_system, full_mask, mask_size,
                                    parse_type)

import oracles
from oracles import integer_rank


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    assert smith_normal_form(IntMatrix.from_rows([[2]])).divisors == (2,)
    assert smith_normal_form(IntMatrix.zero(2, 3)).divisors == ()
    form = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert form.divisors == (2, 4)


def test_snf_example_against_det_and_content():
    from math import gcd, prod
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    form = smith_normal_form(m)
    assert abs(oracles.bareiss_determinant(m.to_rows())) == prod(form.divisors) == 8
    content = 0
    for x in m.entries:
        content = gcd(content, x)
    assert form.divisors[0] == content == 2


def _check_snf(m: IntMatrix):
    form = smith_normal_form(m)
    # reconstruction
    product = form.u.mul(m).mul(form.v)
    for i in range(m.rows):
        for j in range(m.cols):
            want = form.divisors[i] if i == j and i < len(form.divisors) else 0
            assert product.entry(i, j) == want
    # divisibility chain, positivity
    for a, b in zip(form.divisors, form.divisors[1:]):
        assert a > 0 and b % a == 0
    # unimodular transforms
    if m.rows:
        assert abs(oracles.bareiss_determinant(form.u.to_rows())) == 1
    if m.cols:
        assert abs(oracles.bareiss_determinant(form.v.to_rows())) == 1
    # rank against the Fraction oracle
    assert len(form.divisors) == oracles.fraction_rank(m.to_rows() or [[]])
    # |det| preservation for square input
    if m.rows == m.cols and m.rows:
        det = abs(oracles.bareiss_determinant(m.to_rows()))
        from math import prod
        assert det == (prod(form.divisors) if len(form.divisors) == m.rows else 0)
    return form


def test_snf_random_battery():
    rng = random.Random(20240811)
    for _ in range(120):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(cols)]
                                 for _ in range(rows)])
        _check_snf(m)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        form = smith_normal_form(IntMatrix.zero(rows, cols))
        assert form.divisors == ()


def test_integer_rank():
    assert integer_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert integer_rank(IntMatrix.zero(3, 2)) == 0


# ---------------------------------------------------------------------------
# homology


def _doubling_complex():
    return ChainComplex((1, 1), (IntMatrix.from_rows([[2]]),))


def test_homology_examples():
    h = homology_over_Z(_doubling_complex())
    assert h.free_ranks == (0, 0)
    assert h.torsion == ((), (2,))

    identity = ChainComplex((1, 1), (IntMatrix.identity(1),))
    assert homology_over_Z(identity).is_trivial()

    point = ChainComplex((1,), ())
    assert homology_over_Z(point).free_ranks == (1,)


def test_complex_invariants_rejected():
    with pytest.raises(ContractError):
        ChainComplex((1, 2), (IntMatrix.from_rows([[1]]),))
    with pytest.raises(ContractError):
        ChainComplex((1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])))
    with pytest.raises(ContractError, match="differential count"):
        ChainComplex((1, 1), ())


def test_homology_with_coefficients_examples():
    c = _doubling_complex()
    mod2 = homology_with_coefficients(c, RingSpec(2, 3))
    assert mod2.free_ranks == (1, 1) and not any(mod2.torsion)
    mod5 = homology_with_coefficients(c, RingSpec(5, 3))
    assert mod5.is_trivial()
    rational = homology_with_coefficients(c, RingSpec.rationals())
    assert rational.is_trivial()


def test_homology_mod_partial_gcd():
    # x4 complex mod 6: gcd(4, 6) = 2 gives genuinely cyclic summands
    c = ChainComplex((1, 1), (IntMatrix.from_rows([[4]]),))
    h = homology_with_coefficients(c, RingSpec(6, 5))
    assert h.free_ranks == (0, 0)
    assert h.torsion == ((2,), (2,))


def test_degenerate_ring_rejected():
    with pytest.raises(ConfigurationError):
        RingSpec(1, 3)


def test_euler_characteristic_matches_rational_homology():
    rng = random.Random(7)
    for _ in range(25):
        c = _random_complex(rng, max_rank=5)
        h = homology_with_coefficients(c, RingSpec.rationals())
        assert c.euler_characteristic() == h.euler_characteristic()


def _random_unimodular_with_inverse(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        for row in inv:  # keep inv * m = I: column op on the inverse
            row[j] -= c * row[i]
    return m, inv


def _random_complex(rng, length=3, max_rank=5):
    """Random complex with d*d = 0: composable diagonal rank patterns seen
    through one random unimodular change of basis per degree."""
    ranks = [rng.randrange(0, max_rank + 1) for _ in range(length)]
    bases = [(_random_unimodular_with_inverse(rng, r) if r else ([], []))
             for r in ranks]
    diffs = []
    used = 0  # columns of the current degree already hit by the previous map
    for k in range(length - 1):
        rows, cols = ranks[k + 1], ranks[k]
        avail_src = cols - used
        r = rng.randrange(0, min(avail_src, rows) + 1) if min(avail_src, rows) > 0 else 0
        core = [[0] * cols for _ in range(rows)]
        for t in range(r):
            core[t][used + t] = rng.choice([1, 2, 3, 4, 5, 6])
        used = r
        left = bases[k + 1][0]
        right_inv = bases[k][1]
        if rows and cols:
            tmp = [[sum(left[i][a] * core[a][j] for a in range(rows)) for j in range(cols)]
                   for i in range(rows)]
            full = [[sum(tmp[i][b] * right_inv[b][j] for b in range(cols)) for j in range(cols)]
                    for i in range(rows)]
        else:
            full = [[0] * cols for _ in range(rows)]
        diffs.append(IntMatrix.from_rows(full) if rows else IntMatrix.zero(0, cols))
    return ChainComplex(tuple(ranks), tuple(diffs))


def _mapping_cone_mod_d(c: ChainComplex, d: int) -> ChainComplex:
    """Cone of multiplication by d on c, shifted up one degree so that the
    homology of c with Z/d coefficients at k appears at cone degree k + 1.
    The cone degree-k piece is ``C^k (+) C^{k-1}`` and the differential sends
    (a, b) to (-d_C a, d*a + d_C b)."""
    n = len(c.ranks)

    def rank_of(k):
        return c.ranks[k] if 0 <= k < n else 0

    def diff_of(k):
        return c.differentials[k] if 0 <= k < n - 1 else None

    ranks = [rank_of(k) + rank_of(k - 1) for k in range(n + 1)]
    diffs = []
    for k in range(n):
        rows, cols = ranks[k + 1], ranks[k]
        block = [[0] * cols for _ in range(rows)]
        da = diff_of(k)  # -d_C on the first block
        if da is not None:
            for i in range(da.rows):
                for j in range(da.cols):
                    block[i][j] = -da.entry(i, j)
        for i in range(rank_of(k)):  # multiplication by d
            block[rank_of(k + 1) + i][i] = d
        db = diff_of(k - 1)  # d_C on the second block
        if db is not None:
            for i in range(db.rows):
                for j in range(db.cols):
                    block[rank_of(k + 1) + i][rank_of(k) + j] = db.entry(i, j)
        diffs.append(IntMatrix.from_rows(block) if rows else IntMatrix.zero(0, cols))
    return ChainComplex(tuple(ranks), tuple(diffs))


def test_uct_against_mapping_cone():
    rng = random.Random(99)
    for _ in range(40):
        c = _random_complex(rng, length=4, max_rank=4)
        for d in (2, 4, 5, 6):
            spec = RingSpec(d, 7)
            ours = homology_with_coefficients(c, spec)
            cone = homology_over_Z(_mapping_cone_mod_d(c, d))
            assert not any(cone.free_ranks)
            for k in range(len(c.ranks)):
                expected = sorted([d] * ours.free_ranks[k] + list(ours.torsion[k]))
                got = sorted(cone.torsion[k + 1])
                assert expected == got, (k, expected, got)


# ---------------------------------------------------------------------------
# subset-lattice complexes


def _constant_rank_one(rs, bottom):
    def rank_fn(mask):
        return 1

    def rule(mask, beta):
        return IntMatrix.identity(1)

    return subset_lattice_complex(rs, bottom, rank_fn, rule)


def test_lattice_examples():
    a1 = build_root_system("A", 1)
    c = _constant_rank_one(a1, 0)
    assert c.ranks == (1, 1)
    assert homology_over_Z(c).is_trivial()

    a2 = build_root_system("A", 2)
    cube = _constant_rank_one(a2, 0)
    assert cube.ranks == (1, 2, 1)
    assert homology_over_Z(cube).is_trivial()

    top = _constant_rank_one(a2, full_mask(2))
    assert top.ranks == (1,)
    assert homology_over_Z(top).free_ranks == (1,)


def test_lattice_constant_exactness_rank_le_4():
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C4", "D4", "F4", "G2"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for bottom in range(full + 1):
            h = homology_over_Z(_constant_rank_one(rs, bottom))
            if bottom == full:
                assert h.free_ranks == (1,)
            else:
                assert h.is_trivial()


def test_bad_map_rule_breaks_d_squared():
    rs = build_root_system("A", 2)

    def rank_fn(mask):
        return 1

    def skew_rule(mask, beta):
        # non-functorial: the two routes from the top to the bottom of the
        # square pick up different scalars, so the signs cannot cancel
        return IntMatrix.from_rows([[2 if mask == 0b01 else 1]])

    with pytest.raises(ContractError):
        subset_lattice_complex(rs, 0, rank_fn, skew_rule)


def test_wrong_shape_map_rule_rejected():
    rs = build_root_system("A", 2)

    def rank_fn(mask):
        return 1

    def fat_rule(mask, beta):
        return IntMatrix.identity(2)

    with pytest.raises(ContractError):
        subset_lattice_complex(rs, 0, rank_fn, fat_rule)


def test_exterior_row_examples():
    a2 = build_root_system("A", 2)
    row = exterior_row_complex(a2, 0, 1)
    assert row.ranks == (0, 2, 2)
    assert homology_over_Z(row).is_trivial()

    row2 = exterior_row_complex(a2, 0, 2)
    assert row2.ranks == (0, 0, 1)
    h = homology_over_Z(row2)
    assert h.free_ranks == (0, 0, 1)

    top = exterior_row_complex(a2, full_mask(2), 0)
    assert top.ranks == (1,)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_exterior_rows_exact_below_top(name):
    rs = build_root_system(*parse_type(name))
    full = full_mask(rs.rank)
    for bottom in range(full + 1):
        m = rs.rank - mask_size(bottom)
        for t in range(m):
            assert homology_over_Z(exterior_row_complex(rs, bottom, t)).is_trivial()
        h = homology_over_Z(exterior_row_complex(rs, bottom, m))
        assert h.free_ranks[-1] == 1 and sum(h.free_ranks) == 1


def test_exterior_rows_exact_rank4():
    for name in ["A4", "B4", "C4", "D4", "F4"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for bottom in range(full + 1):
            m = rs.rank - mask_size(bottom)
            for t in range(m):
                assert homology_over_Z(exterior_row_complex(rs, bottom, t)).is_trivial()


def test_exterior_d_squared_random_bottoms():
    rng = random.Random(5)
    for name in ["A3", "B3", "C3"]:
        rs = build_root_system(*parse_type(name))
        for _ in range(8):
            bottom = rng.randrange(full_mask(rs.rank) + 1)
            t = rng.randrange(0, rs.rank + 1)
            exterior_row_complex(rs, bottom, t)  # constructor asserts d*d = 0


# ---------------------------------------------------------------------------
# the one row builder against the three it replaced

ROW_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "D4", "F4",
             "G2"]
RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


def _same_complex(ours, reference, key):
    assert ours.ranks == reference.ranks, key
    assert ours.differentials == reference.differentials, key
    assert ours.labels == reference.labels, key


def _padded(c, zeros, before=False):
    """``c`` with ``zeros`` zero degrees after its last degree, or before its
    first."""
    pad = (0,) * zeros
    ranks = pad + c.ranks if before else c.ranks + pad
    zero_maps = [IntMatrix.zero(ranks[k + 1], ranks[k]) for k in range(len(ranks) - 1)]
    if before:
        diffs = zero_maps[:zeros] + list(c.differentials)
    else:
        diffs = list(c.differentials) + zero_maps[len(c.differentials):]
    labels = ((),) * zeros
    return ChainComplex(ranks, tuple(diffs), label_source=lambda: (
        labels + c.labels if before else c.labels + labels))


def _padded_homology(h, zeros, before=False):
    free, torsion = (0,) * zeros, ((),) * zeros
    if before:
        return HomologyResult(free + h.free_ranks, torsion + h.torsion)
    return HomologyResult(h.free_ranks + free, h.torsion + torsion)


def _gated_rows(rs):
    """Every (bottom, gate >= bottom) and every J between gate \\ bottom and
    gate, the span of a constant row that the former builders gated there."""
    full = full_mask(rs.rank)
    for bottom in range(full + 1):
        for gate in range(full + 1):
            if bottom & ~gate:
                continue
            spans = [J for J in range(full + 1) if not (gate & ~bottom & ~J or J & ~gate)]
            yield bottom, gate, spans


@pytest.mark.parametrize("name", ROW_TYPES)
def test_row_builder_matches_the_former_builders(name):
    """A row gated at G over ``bottom`` is the row over G with |G \\ bottom|
    zero degrees appended (and, with gate = bottom, the cohomology row with
    its |w{..} labels); the constant row of rank C(rank - |J|, t) with
    identity maps is the row over G of span J, read either way, with the
    zero degrees where the reading puts them."""
    rs = build_root_system(*parse_type(name))
    for bottom, gate, spans in _gated_rows(rs):
        zeros = mask_size(gate & ~bottom)
        for t in range(rs.rank - mask_size(bottom) + 1):
            key = (bottom, gate, t)
            _same_complex(_padded(exterior_row_complex(rs, gate, t, numbered=True), zeros),
                          oracles.gated_exterior_row(rs, bottom, gate, t), key)
            if gate == bottom:
                _same_complex(exterior_row_complex(rs, bottom, t),
                              oracles.exterior_row_complex(rs, bottom, t), key)
        for J in spans:
            n = rs.rank - mask_size(J)
            for t in range(n + 1):
                key = (bottom, gate, t, J)
                reference = oracles.gated_constant_row(rs, bottom, gate, comb(n, t))
                ours = exterior_row_complex(rs, gate, t, span=J, numbered=True)
                _same_complex(_padded(ours, zeros), reference, key)
                _same_complex(_padded(reverse_transpose(ours), zeros, before=True),
                              reverse_transpose(reference), key)


@pytest.mark.parametrize("name", RANK_LE_4)
def test_row_homology_matches_the_former_rows(name, monkeypatch):
    """The homology that ``row_homology`` derives (padded, scaled from the
    t = 0 row for a constant row, dualised for a reversed one) is the
    homology of the row the former builders built."""
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {})
    rs = build_root_system(*parse_type(name))
    for bottom, gate, spans in _gated_rows(rs):
        zeros = mask_size(gate & ~bottom)
        for t in range(rs.rank - mask_size(bottom) + 1):
            assert (_padded_homology(row_homology(rs, gate, t), zeros)
                    == homology_over_Z(oracles.gated_exterior_row(rs, bottom, gate, t)))
        for J in spans:
            n = rs.rank - mask_size(J)
            for t in range(n + 1):
                key = (bottom, gate, t, J)
                reference = oracles.gated_constant_row(rs, bottom, gate, comb(n, t))
                derived = row_homology(rs, gate, t, span=J)
                assert _padded_homology(derived, zeros) == homology_over_Z(reference), key
                assert (_padded_homology(derived.dual(), zeros, before=True)
                        == homology_over_Z(reverse_transpose(reference))), key


def test_constant_row_homology_repeats_torsion(monkeypatch):
    """No t = 0 row has torsion, so the scaling is checked on a stand-in."""
    a3 = build_root_system("A", 3)
    stand_in = HomologyResult((0, 1), ((), (2, 6)))
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", {(1, 0): stand_in})  # m = 3 - |{0,1}|
    assert row_homology(a3, 0b011, 1, span=0b001) == HomologyResult((0, 2), ((), (2, 2, 6, 6)))
    assert row_homology(a3, 0b011, 1, span=0b011).dual() == HomologyResult((1, 0), ((), (2, 6)))
    with pytest.raises(ContractError):
        row_homology(a3, 0b011, 0, span=0b100)


def _row_over_nothing(m, t):
    """Integer homology of the exterior row over {} in rank m."""
    if m == 0:  # one summand, the t-subsets of no roots
        return HomologyResult((comb(0, t),), ((),))
    return homology_over_Z(exterior_row_complex(build_root_system("A", m), 0, t))


def _constant_row_over_nothing(m, copies):
    """Integer homology of the reversed constant row of rank ``copies`` over
    {} in rank m, from the lattice builder with identity maps."""
    if m == 0:
        return HomologyResult((copies,), ((),))
    c = subset_lattice_complex(build_root_system("A", m), 0, lambda mask: copies,
                               lambda mask, beta: IntMatrix.identity(copies))
    return homology_over_Z(reverse_transpose(c))


@pytest.mark.parametrize("rank", range(1, 7))
def test_a_row_depends_only_on_its_shape(rank):
    """The row caches key a row by (m, t), m = |Delta \\ B|: every exterior row
    over every bottom B, built and reduced, has the homology of the row over
    {} in rank m, and every reversed constant row over B with span J <= B
    that of the constant row of the same rank over {} in rank m."""
    rs = build_root_system("A", rank)
    expected, expected_constant = {}, {}
    for bottom in range(1 << rank):
        m = rank - mask_size(bottom)
        for t in range(m + 1):
            if (m, t) not in expected:
                expected[m, t] = _row_over_nothing(m, t)
            assert homology_over_Z(exterior_row_complex(rs, bottom, t)) == expected[m, t], \
                (bottom, t)
        for J in range(bottom + 1):
            if J & ~bottom:
                continue
            n = rank - mask_size(J)
            for t in range(n + 1):
                copies = comb(n, t)
                if (m, copies) not in expected_constant:
                    expected_constant[m, copies] = _constant_row_over_nothing(m, copies)
                row = reverse_transpose(exterior_row_complex(rs, bottom, t, span=J))
                assert homology_over_Z(row) == expected_constant[m, copies], (bottom, J, t)


def test_every_row_a_command_can_build_reduces_by_unit_pivots(monkeypatch):
    """A table is refused when its largest row, max_t C(m, t) 2^(m - t) basis
    vectors over m free roots, is over LATTICE_CAP, and a row's homology
    depends only on its shape (m, t).  So these are all the rows a command
    can build: each shape with 1 <= m up to the bound the cap gives.  Every
    one passes its d d = 0 check, one product per pair of maps, reduces by
    unit pivots alone, and is exact but for one Z at lattice degree m when
    t = m."""
    def largest(m):
        return max(comb(m, t) << m - t for t in range(m + 1))

    top = 1
    while largest(top + 1) <= homology.LATTICE_CAP:
        top += 1
    products = []
    product = IntMatrix.mul

    def counting(a, b):
        products.append((a.rows, b.cols))
        return product(a, b)

    def dense(m):
        raise AssertionError(f"a {m.rows}x{m.cols} block reached the dense Smith normal form")

    monkeypatch.setattr(IntMatrix, "mul", counting)
    monkeypatch.setattr(smith, "smith_normal_form", dense)  # where smith_divisors looks
    for m in range(1, top + 1):
        rs = build_root_system("A", m)
        for t in range(m + 1):
            products.clear()
            h = homology_over_Z(exterior_row_complex(rs, 0, t))
            assert len(products) == m - 1, (m, t)
            free = tuple(int(t == m and s == m) for s in range(m + 1))
            assert h == HomologyResult(free, ((),) * (m + 1)), (m, t)
    with pytest.raises(ResourceLimitError):  # the next m is refused before any row
        cohomology_v(build_root_system("A", top + 1), 0, RingSpec.rationals(), COMPLEX_BUILT)


def test_a_bad_mask_is_refused_on_a_cache_hit(fresh_caches):
    """A row is kept by its shape, so a hit says nothing of the mask asked
    for: a mask with bits past the rank is refused after the shape it would
    have is cached."""
    a2 = build_root_system("A", 2)
    for t in range(2):  # every shape with m = 1
        row_homology(a2, 0b01, t)
    cached = len(homology._ROW_HOMOLOGY)
    for bad in (0b100, 0b1000, -1):  # each of one bit, so of the cached m = 1
        with pytest.raises(ConfigurationError, match="bits beyond rank 2"):
            row_homology(a2, bad, 0)
        with pytest.raises(ConfigurationError, match="bits beyond rank 2"):
            row_homology(a2, bad, 0, span=0)
    assert len(homology._ROW_HOMOLOGY) == cached


def test_lattice_cap_refuses_before_building():
    a20 = build_root_system("A", 20)
    full = full_mask(20)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):  # 2^20 subsets, checked before listing them
        homology.lattice_degrees(20, 0)
    with pytest.raises(ResourceLimitError):
        exterior_row_complex(a20, 0, 0)
    with pytest.raises(ResourceLimitError):  # 2 subsets, 2 * C(20, 10) basis vectors
        exterior_row_complex(a20, full & ~1, 10, span=0)

    def no_map(mask, beta):
        raise AssertionError("a map was built")

    with pytest.raises(ResourceLimitError):
        subset_lattice_complex(a20, full & ~1, lambda mask: homology.LATTICE_CAP, no_map)
    assert time.perf_counter() - start < 1
    # the largest rows of rank 8 are under the cap
    e8 = build_root_system("E", 8)
    assert sum(exterior_row_complex(e8, 0, 4, span=0).ranks) == 256 * 70
    assert max(sum(exterior_row_complex(e8, 0, t).ranks) for t in range(9)) == 1792


def test_reverse_transpose():
    c = ChainComplex((2, 3, 1), (
        IntMatrix.from_rows([[1, 0], [0, 2], [0, 0]]),
        IntMatrix.from_rows([[0, 0, 3]]),
    ))
    r = reverse_transpose(c)
    assert r.ranks == (1, 3, 2)
    assert r.differentials[0].to_rows() == [[0], [0], [3]]
    assert r.differentials[1].to_rows() == [[1, 0, 0], [0, 2, 0]]
    # free ranks mirror under reversal
    h = homology_over_Z(c)
    hr = homology_over_Z(r)
    assert tuple(reversed(h.free_ranks)) == hr.free_ranks


@st.composite
def _complexes_with_torsion(draw):
    """A complex with ``d d = 0`` and torsion: a direct sum of free classes
    and of pieces Z --n--> Z (torsion Z/|n| one degree up), mixed in each
    degree by a unimodular change of basis, a product of elementary ones."""
    top = draw(st.integers(0, 4))
    dims = [0] * (top + 1)
    entries = []  # (degree k, row in degree k + 1, column in degree k, n)
    for k, n in draw(st.lists(st.tuples(st.integers(0, top),
                                        st.sampled_from([0, 1, -1, 2, -2, 3, 4, 6, 12])),
                              max_size=8)):
        if n and k < top:
            entries.append((k, dims[k + 1], dims[k], n))
            dims[k + 1] += 1
        dims[k] += 1
    dense = [[[0] * dims[k] for _ in range(dims[k + 1])] for k in range(top)]
    for k, i, j, n in entries:
        dense[k][i][j] = n
    # row ops (i += c * j) on degree k + 1 and the inverse column ops on degree k
    for k in range(top + 1):
        if dims[k] < 2:
            continue
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.permutations(range(dims[k])))[:2]
            c = draw(st.integers(-3, 3))
            if k > 0:
                dense[k - 1][i] = [a + c * b for a, b in zip(dense[k - 1][i], dense[k - 1][j])]
            if k < top:
                for row in dense[k]:
                    row[j] -= c * row[i]
    diffs = tuple(IntMatrix(dims[k + 1], dims[k], tuple(
        tuple((i, dense[k][i][j]) for i in range(dims[k + 1]) if dense[k][i][j])
        for j in range(dims[k]))) for k in range(top))
    return ChainComplex(tuple(dims), diffs)


@settings(max_examples=200, deadline=None, database=None)
@given(_complexes_with_torsion())
def test_dual_is_the_homology_of_the_reverse_transpose(c):
    assert homology_over_Z(c).dual() == homology_over_Z(reverse_transpose(c))


def test_complex_json_dump():
    c = _doubling_complex()
    data = complex_to_json_dict(c)
    assert data["ranks"] == [1, 1]
    assert data["differentials"] == [[2]]


# ---------------------------------------------------------------------------
# sparse kernel against the dense oracle

_entry = st.one_of(
    st.just(0), st.just(0), st.sampled_from([1, -1]), st.integers(-12, 12),
    st.integers(2 ** 64, 2 ** 70), st.integers(-2 ** 70, -2 ** 64))


@st.composite
def _matrices(draw, max_dim=7):
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    data = [[draw(_entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else ():
        data[i] = [0] * cols  # whole zero rows
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else ():
        for row in data:
            row[j] = 0  # and zero columns
    return IntMatrix.from_rows(data) if rows else IntMatrix.zero(0, cols)


@settings(max_examples=300, deadline=None, database=None)
@given(_matrices())
def test_smith_divisors_match_dense_snf(m):
    assert smith_divisors(m) == smith_normal_form(m).divisors
    assert integer_rank(m) == oracles.fraction_rank(m.to_rows() or [[]])


@settings(max_examples=60, deadline=None, database=None)
@given(_matrices(max_dim=4))
def test_smith_divisors_match_sympy(m):
    if m.rows and m.cols:
        expected = tuple(abs(x) for x in invariant_factors(Matrix(m.to_rows()), domain=ZZ) if x)
    else:
        expected = ()
    assert smith_divisors(m) == expected


def _engine_row_complexes(rs):
    """Every row complex the Ext and cohomology paths build or print for
    ``rs``, keyed by the arguments that determine it: the exterior rows over
    I and over K, and the constant rows over I u J of span J, read reversed."""
    full = full_mask(rs.rank)
    rows = set()
    for I in range(full + 1):
        for t in range(rs.rank - mask_size(I) + 1):
            rows.add((I, t, None))
        for J in range(full + 1):
            K = steinberg_degree(rs, I, J)[1]
            for t in range(rs.rank - mask_size(K) + 1):
                rows.add((K, t, None))
            for t in range(rs.rank - mask_size(J) + 1):
                rows.add((I | J, t, J))
    built = {(B, t, span): exterior_row_complex(rs, B, t, span=span) for B, t, span in rows}
    return {key: c if key[2] is None else reverse_transpose(c) for key, c in built.items()}


def _dense_composite_is_zero(after: IntMatrix, before: IntMatrix) -> bool:
    product = oracles.dense_product(after.to_rows(), before.to_rows(), after.cols,
                                   before.cols)
    return all(x == 0 for row in product for x in row)


def test_row_complex_differentials_match_dense_snf():
    seen = set()
    for name in RANK_LE_4:
        rs = build_root_system(*parse_type(name))
        for c in _engine_row_complexes(rs).values():
            for d in c.differentials:
                if d not in seen:
                    seen.add(d)
                    assert smith_divisors(d) == smith_normal_form(d).divisors
            # the constructor's sparse check passed; the dense product agrees
            for before, after in zip(c.differentials, c.differentials[1:]):
                assert _dense_composite_is_zero(after, before)
    assert len(seen) > 100


def _unsigned(d: IntMatrix) -> IntMatrix:
    return IntMatrix(d.rows, d.cols, tuple(tuple((i, abs(v)) for i, v in col)
                                           for col in d.columns))


def test_broken_sign_rule_raises_like_the_dense_check():
    """Dropping the alternating signs breaks d d = 0 exactly where the dense
    product says so, and the constructor raises there."""
    raised = 0
    for name in ["A2", "A3", "B3", "G2"]:
        rs = build_root_system(*parse_type(name))
        for c in _engine_row_complexes(rs).values():
            diffs = tuple(_unsigned(d) for d in c.differentials)
            dense_ok = all(_dense_composite_is_zero(after, before)
                           for before, after in zip(diffs, diffs[1:]))
            if dense_ok:
                ChainComplex(c.ranks, diffs)
            else:
                with pytest.raises(ContractError, match="sign rule or map rule"):
                    ChainComplex(c.ranks, diffs)
                raised += 1
    assert raised > 10


def test_sparse_product_matches_dense():
    rng = random.Random(11)
    for _ in range(100):
        n, k, m = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        a = [[rng.choice([0, 0, 1, -1, 3]) for _ in range(k)] for _ in range(n)]
        b = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(k)]
        ma = IntMatrix.from_rows(a) if n else IntMatrix.zero(0, k)
        mb = IntMatrix.from_rows(b) if k else IntMatrix.zero(0, m)
        assert ma.mul(mb).to_rows() == oracles.dense_product(a, b, k, m)


def test_labels_are_built_on_first_read():
    calls = []
    rs = build_root_system("A", 2)

    def label(mask, b):
        calls.append(mask)
        return f"{mask}:{b}"

    c = subset_lattice_complex(rs, 0, lambda mask: 1, lambda mask, beta: IntMatrix.identity(1),
                               label)
    assert calls == []
    assert c.labels == (("3:0",), ("1:0", "2:0"), ("0:0",))
    assert reverse_transpose(c).labels == tuple(reversed(c.labels))


@pytest.mark.parametrize("column", [
    ((2, 1), (0, 1)),   # unsorted
    ((1, 1), (1, 1)),   # the same row twice
    ((3, 1),),          # below the last row
    ((-1, 1),),         # above the first row
    ((0, 0),),          # a stored zero
])
def test_malformed_sparse_column_rejected(column):
    with pytest.raises(ContractError, match="strictly increasing"):
        IntMatrix(3, 1, (column,))


def test_map_rule_with_a_duplicate_entry_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(ContractError, match="strictly increasing"):
        subset_lattice_complex(rs, 0, lambda mask: 2,
                               lambda mask, beta: IntMatrix(2, 2, (((0, 1), (0, 1)), ((1, 1),))))


def test_labels_are_keyword_only():
    labels = (("a",), ("b",))
    with pytest.raises(TypeError):
        ChainComplex((1, 1), (IntMatrix.identity(1),), labels)
    c = ChainComplex((1, 1), (IntMatrix.identity(1),), label_source=lambda: labels)
    assert c.labels == labels


# ---------------------------------------------------------------------------
# invariant factors without factoring


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(st.integers(2, 400), st.sampled_from([10007, 999983, 10007 * 999983, 2 ** 40, 3 ** 20 * 10007])),
                max_size=8))
def test_invariant_factors_match_factoring_oracle(moduli):
    assert _invariant_factors(moduli) == oracles.invariant_factors_by_factoring(moduli)


def test_large_prime_modulus_is_fast(capsys, monkeypatch):
    """Z/d with d = 10^9 + 7 needs no factoring of d: an E6 Ext query takes
    well under the time trial division up to d would, with the oracle's table."""
    from steinberg_ext import homology
    from steinberg_ext.cli import parse_and_dispatch

    argv = ["ext-vi", "--type", "E6", "--I", "0,1,2", "--J", "3,4,5",
            "--ring", "q=3,d=1000000007", "--method", "both"]
    start = time.perf_counter()
    assert parse_and_dispatch(argv) == 0
    elapsed = time.perf_counter() - start
    fast = capsys.readouterr().out
    assert elapsed < 5, elapsed
    assert '"rank": 1' in fast

    monkeypatch.setattr(homology, "_invariant_factors", oracles.invariant_factors_by_factoring)
    assert parse_and_dispatch(argv) == 0
    assert capsys.readouterr().out == fast
