import random
import sys
import time

import pytest

from steinberg_ext.errors import ConfigurationError, ContractError, ResourceLimitError
from steinberg_ext.ringcond import RingSpec
from steinberg_ext.rootdata import (build_root_system, cartan_matrix, full_mask,
                                   levi_root_indices, parse_type)
from steinberg_ext.weyl import kostant_reps, parabolic_order

import oracles
from oracles import (
    _delta,
    delta_exponents,
    gamma_exponents,
    generate_weyl,
    intersect_levi,
    permutes_roots,
    simple_reflection,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
RANK_AT_MOST_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


@pytest.mark.parametrize("name,order", [("A1", 2), ("A2", 6), ("B2", 8),
                                        ("A3", 24), ("B3", 48), ("C3", 48),
                                        ("G2", 12), ("F4", 1152)])
def test_group_orders(name, order):
    rs = build_root_system(*parse_type(name))
    group = generate_weyl(rs)
    assert len(group) == order
    assert group[0].is_identity


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_order_matches_matrix_oracle(name):
    series, rank = parse_type(name)
    rs = build_root_system(series, rank)
    assert len(generate_weyl(rs)) == len(oracles.weyl_matrix_group(cartan_matrix(series, rank)))


def test_lengths_match_root_action():
    rs = build_root_system("B", 2)
    for w in generate_weyl(rs):
        assert permutes_roots(rs, w)
    # cross-check the length distribution against the matrix oracle
    series_lengths = sorted(w.length for w in generate_weyl(rs))
    cartan = cartan_matrix("B", 2)
    pos = oracles.positive_roots_oracle(cartan)
    oracle_lengths = sorted(oracles.matrix_length(m, pos)
                            for m in oracles.weyl_matrix_group(cartan))
    assert series_lengths == oracle_lengths


def test_enumeration_cap(monkeypatch):
    import steinberg_ext.weyl as weyl

    rs = build_root_system("A", 3)
    monkeypatch.setattr(weyl, "DEFAULT_WEYL_CAP", 10)
    for J in (0, 0b111):  # the cap bounds the whole group, whatever X_J is walked
        with pytest.raises(ResourceLimitError):
            weyl._closure(rs, J)
        with pytest.raises(ResourceLimitError):
            weyl.iter_kostant_reps(rs, 0b111, J)


def test_enumeration_cap_is_checked_before_enumerating(monkeypatch):
    import steinberg_ext.weyl as weyl

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(weyl, "_walk", no_enumeration)
    start = time.perf_counter()
    for name in ("E7", "E8"):
        rs = build_root_system(*parse_type(name))
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            weyl.iter_kostant_reps(rs, 0b1, 0b1111)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            weyl._closure(rs)
    assert time.perf_counter() - start < 1


def test_parabolic_sizes():
    rs = build_root_system("A", 2)
    assert len(oracles.weyl_closure_by_seen_set(rs, 0)) == parabolic_order(rs, 0) == 1
    assert len(oracles.weyl_closure_by_seen_set(rs, 0b01)) == parabolic_order(rs, 0b01) == 2
    b2 = build_root_system("B", 2)
    assert oracles.weyl_closure_by_seen_set(b2, full_mask(2)) == generate_weyl(b2)


def test_kostant_examples():
    a2 = build_root_system("A", 2)
    reps = kostant_reps(a2, 0b01, 0b01)
    assert [r.length for r in reps] == [0, 1]

    a1 = build_root_system("A", 1)
    assert [r.length for r in kostant_reps(a1, 0, 0)] == [0, 1]
    assert len(kostant_reps(a1, 1, 1)) == 1

    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        assert len(kostant_reps(rs, full_mask(rs.rank), full_mask(rs.rank))) == 1


def test_kostant_counts_match_matrix_oracle():
    for name, I, J in [("A2", [0], [0]), ("A2", [0], [1]), ("B2", [1], [0, 1]),
                       ("A3", [0, 2], [1])]:
        series, rank = parse_type(name)
        rs = build_root_system(series, rank)
        cosets = oracles.double_coset_partition(cartan_matrix(series, rank), I, J)
        mask_i = sum(1 << i for i in I)
        mask_j = sum(1 << j for j in J)
        reps = kostant_reps(rs, mask_i, mask_j)
        assert len(reps) == len(cosets)


def test_double_cosets_partition_everything():
    # kostant_reps raises if the coset sizes (Kilmoyer) do not add up to the
    # group order; sweeping all pairs exercises that
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                reps = kostant_reps(rs, I, J)
                assert [r.length for r in reps] == sorted(r.length for r in reps)
                assert reps[0].w.is_identity


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_kostant_reps_match_enumeration(name):
    # same representatives in the same order, with the same length, exponent
    # vectors and Levi subset, as enumerating every coset element by element
    rs = build_root_system(*parse_type(name))
    full = full_mask(rs.rank)
    for I in range(full + 1):
        for J in range(full + 1):
            assert kostant_reps(rs, I, J) == oracles.kostant_reps_by_enumeration(rs, I, J)


RANK_AT_MOST_5 = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
                  "C5", "D4", "D5", "G2"]


@pytest.mark.parametrize("name", RANK_AT_MOST_5 + ["F4", "E6"])
def test_kostant_reps_match_the_filter_over_the_whole_group(name):
    """The representatives read off the walk of X_J are those that one filter
    over the whole held group's mask columns keeps, in the same order and
    equal in every field: on every pair of rank at most 5, and on 12 seeded
    E6 pairs."""
    rs = build_root_system(*parse_type(name))
    full = full_mask(rs.rank)
    pairs = [(I, J) for I in range(full + 1) for J in range(full + 1)]
    if name == "E6":
        pairs = random.Random(4141).sample(pairs, 12)
    for I, J in pairs:
        assert kostant_reps(rs, I, J) == oracles.kostant_reps_by_filter(rs, I, J), (I, J)


def _widest_pair(rs, w):
    """The largest (I, J) that w is the minimal representative for: I and J
    outside its left and right descents."""
    images, full = w.signed_images, full_mask(rs.rank)
    left = sum(1 << i for i in range(rs.rank) if -1 - i in images)
    right = sum(1 << j for j in range(rs.rank) if images[j] < 0)
    return full & ~left, full & ~right


@pytest.mark.parametrize("name", ["A5", "B5", "D5"])
def test_exponents_match_the_filtered_formulas_rank5(name):
    """On every (I, J), the gamma and delta that kostant_reps reads off the
    inversion set and the Levi sums equal the filtered formulas of
    gamma_exponents and delta_exponents.  Gamma's filters only grow with I and
    J, so each element's gamma is checked once, on the widest pair it
    represents, and each representative's gamma against its element's."""
    rs = build_root_system(*parse_type(name))
    full = full_mask(rs.rank)
    gamma_of = {}
    for rep in kostant_reps(rs, 0, 0):  # every element
        assert rep.gamma_exp == gamma_exponents(rs, rep.w, *_widest_pair(rs, rep.w))
        gamma_of[rep.w] = rep.gamma_exp
    for I in range(full + 1):
        phi_i = levi_root_indices(rs, I)
        for J in range(full + 1):
            phi_j = levi_root_indices(rs, J)  # delta_exponents with the lookups hoisted
            reps = kostant_reps(rs, I, J)
            assert [rep.gamma_exp for rep in reps] == [gamma_of[rep.w] for rep in reps]
            assert ([rep.delta_exp for rep in reps]
                    == [_delta(rs, rep.w.signed_images, phi_i, phi_j) for rep in reps])


def test_exponents_match_the_filtered_formulas_e6():
    """Seeded E6 pairs with |W_I| |W_J| in [48, 720], every representative
    against the public formulas."""
    rs = build_root_system("E", 6)
    full = full_mask(rs.rank)
    band = [(I, J) for I in range(full + 1) for J in range(full + 1)
            if 48 <= parabolic_order(rs, I) * parabolic_order(rs, J) <= 720]
    for I, J in random.Random(6).sample(band, 6):
        for rep in kostant_reps(rs, I, J):
            assert rep.gamma_exp == gamma_exponents(rs, rep.w, I, J)
            assert rep.delta_exp == delta_exponents(rs, rep.w, I, J)
            assert rep.levi == intersect_levi(rs, rep.w, I, J)


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_parabolic_order_matches_subgroup(name):
    rs = build_root_system(*parse_type(name))
    for levi in range(full_mask(rs.rank) + 1):
        assert parabolic_order(rs, levi) == len(oracles.weyl_closure_by_seen_set(rs, levi))


def _walking(monkeypatch, rs, elements, masks=None):
    """The walk of X_J replaced by one over ``elements``, a corrupted group."""
    import steinberg_ext.weyl as weyl

    monkeypatch.setattr(weyl, "_closure", oracles.walking(oracles.weyl_group(rs, elements, masks)))


def test_partition_check_catches_a_corrupted_group(monkeypatch):
    """A walk that yields X_J with a representative dropped or doubled fails
    the partition check; so does one of the right size, with one dropped and
    another doubled, where only the coset sizes can tell."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    flat = group[:]  # a tuple, to cut and splice
    for I, J in [(0, 0), (0b011, 0b110), (0b111, 0b111)]:
        reps = [group.index(rep.w) for rep in oracles.kostant_reps_by_filter(rs, I, J)]
        ends = sorted({reps[0], reps[len(reps) // 2], reps[-1]})
        dropped = [flat[:p] + flat[p + 1:] for p in ends]
        duplicated = [flat[:p + 1] + flat[p:] for p in ends]
        swapped = [flat[:p] + flat[:1] + flat[p + 1:] for p in reps[1:2]]  # the identity twice
        for elements in dropped + duplicated + swapped:
            _walking(monkeypatch, rs, elements)
            with pytest.raises(ContractError, match="do not partition"):
                kostant_reps(rs, I, J)
    # the real walk still passes after a corrupted one was bucketed
    monkeypatch.undo()
    assert kostant_reps(rs, 0b011, 0b110) == oracles.kostant_reps_by_filter(rs, 0b011, 0b110)


def _with_lengths(group, lengths):
    """The elements of ``group`` with the lengths at some positions replaced,
    their images and so their descent masks kept."""
    return [w._replace(length=lengths.get(k, w.length)) for k, w in enumerate(group)]


def test_the_count_by_length_catches_what_the_count_misses(monkeypatch):
    """A representative at the wrong length, or two of different Levi
    subsets with their lengths swapped, leave every coset's size and so
    Kilmoyer's count at t = 1 as they were (the class path's ``covers``
    passes), but not the count by length: its sum must be W(t)."""
    import steinberg_ext.weyl as weyl
    from steinberg_ext.strata import DescentClasses

    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    for I, J in [(0, 0), (0b011, 0b011), (0b001, 0b010)]:
        reps = kostant_reps(rs, I, J)
        at = {rep.w: group.index(rep.w) for rep in reps}
        longest = reps[-1]
        tried = [{at[longest.w]: longest.length + 1}]
        # Levi subsets of one type have one Poincaré polynomial: swapping
        # their lengths changes nothing
        tried += [{at[longest.w]: rep.length, at[rep.w]: longest.length} for rep in reps
                  if parabolic_order(rs, rep.levi) != parabolic_order(rs, longest.levi)][:1]
        assert len(tried) == 1 + bool(I and J)
        for lengths in tried:
            corrupted = oracles.weyl_group(rs, _with_lengths(group, lengths))
            assert oracles.masks(corrupted) == oracles.masks(group)
            assert DescentClasses(rs, oracles.blocks(corrupted), RingSpec(1009, 3)).covers(I, J)
            monkeypatch.setattr(weyl, "_closure", oracles.walking(corrupted))
            with pytest.raises(ContractError, match="do not partition the Weyl group by "
                                                    "length"):
                kostant_reps(rs, I, J)
            monkeypatch.undo()


def test_the_count_by_length_names_the_counts(monkeypatch):
    """The failure lists the representatives' counts by length against the
    coefficients of W(t): at (0, 0) every element is a representative, so
    moving the longest element up a length moves one count up a degree."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    expected = oracles.layer_sizes(rs, full_mask(rs.rank))
    moved = [*expected[:-1], 0, 1]
    _walking(monkeypatch, rs, _with_lengths(group, {len(group) - 1: len(expected)}))
    with pytest.raises(ContractError, match="do not partition the Weyl group by length") as err:
        kostant_reps(rs, 0, 0)
    assert f"cover {moved} group elements by length; W(B3)(t) has {expected}:" in str(err.value)
    _walking(monkeypatch, rs, _with_lengths(group, {len(group) - 1: -1}))
    with pytest.raises(ContractError, match="length -1: double cosets do not partition"):
        kostant_reps(rs, 0, 0)
    full = full_mask(rs.rank)
    assert weyl._digits(weyl._poincare(rs, full)) == expected == [1, 3, 5, 7, 8, 8, 7, 5, 3, 1]


def _types_of_rank_at_most_8():
    from steinberg_ext.rootdata import SERIES

    for series in SERIES:
        for rank in range(1, 9):
            try:
                rs = build_root_system(series, rank)
            except ConfigurationError:  # no such type
                continue
            yield rs


def _types_under_the_cap():
    """Every type whose group is under the cap: all have rank at most 8
    (``test_the_cap_bounds_the_walk``)."""
    import steinberg_ext.weyl as weyl

    return [rs for rs in _types_of_rank_at_most_8()
            if parabolic_order(rs, full_mask(rs.rank)) <= weyl.DEFAULT_WEYL_CAP]


def test_layer_sizes_match_the_coefficient_lists():
    """W_L(t) held at t = 2^64 reads back, digit by digit, as the product of
    the coefficient lists 1 + t + ... + t^m, for every L of every type under
    the cap."""
    import steinberg_ext.weyl as weyl

    types = list(_types_under_the_cap())
    assert len(types) == 27 and max(rs.rank for rs in types) == 8
    for rs in types:
        for levi in range(1 << rs.rank):
            assert weyl._digits(weyl._poincare(rs, levi)) == oracles.layer_sizes(rs, levi), \
                (rs, levi)


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_the_quotients_at_2_64_match_the_coefficient_lists(name):
    """For every (I, J) and every L inside I, W_I(t)·W_J(t)/W_L(t) taken on
    the values at t = 2^64 has the digits of the exact quotient of the
    coefficient lists."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system(*parse_type(name))
    sizes = [oracles.layer_sizes(rs, levi) for levi in range(1 << rs.rank)]
    for I in range(1 << rs.rank):
        for J in range(1 << rs.rank):
            outer = weyl._poincare(rs, I) * weyl._poincare(rs, J)
            product = oracles.poincare_times(sizes[I], sizes[J])
            for L in (L for L in range(I + 1) if not L & ~I):
                assert weyl._digits(outer // weyl._poincare(rs, L)) == \
                    oracles.poincare_over(product, sizes[L]), (I, J, L)


def test_one_kilmoyer_sum_serves_both_checks(monkeypatch):
    """The class path's count at t = 1 and the representatives' count at
    t = 2^64 are one helper: a sum that misses W(t) fails both."""
    import steinberg_ext.strata as strata
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    classes = strata.DescentClasses(rs, oracles.blocks(group), RingSpec(1009, 3))
    pairs = [(0, 0), (0b011, 0b110), (0b111, 0b111)]
    assert all(classes.covers(I, J) for I, J in pairs)
    for module in (weyl, strata):
        monkeypatch.setattr(module, "_kilmoyer_sum", lambda *args: False)
    for I, J in pairs:
        assert not classes.covers(I, J)
        with pytest.raises(ContractError, match="do not partition"):
            kostant_reps(rs, I, J)


def test_a_poincare_polynomial_past_the_cap_is_exact():
    """The cap bounds the walk, not the Poincaré polynomials: W_L(t) at
    t = 2^64 reads back as its coefficient list for every L of six types
    over the cap, E8 and A9 included.  Kilmoyer's sum is exact when |W|^2 is
    below 2^64 (``_kilmoyer_sum``), as it is for every type of rank at most
    8."""
    import steinberg_ext.weyl as weyl

    for name in ("E7", "E8", "B8", "C8", "D8", "A9"):
        rs = build_root_system(*parse_type(name))
        assert parabolic_order(rs, full_mask(rs.rank)) > weyl.DEFAULT_WEYL_CAP
        for levi in range(1 << rs.rank):
            assert weyl._digits(weyl._poincare(rs, levi)) == oracles.layer_sizes(rs, levi), \
                (name, levi)
    orders = {rs.type_name(): parabolic_order(rs, full_mask(rs.rank))
              for rs in _types_of_rank_at_most_8()}
    assert len(orders) == 32 and max(orders.values()) == orders["E8"] == 696_729_600
    assert all(order ** 2 < 1 << 64 for order in orders.values())


def test_a_poincare_polynomial_of_order_past_a_digit_is_refused():
    """W(t) of A21 has a coefficient of 65 bits, which no digit at t = 2^64
    holds: ``_poincare`` raises rather than return wrong digits.  A19, whose
    order is below 2^64, still reads back as its coefficient list."""
    import steinberg_ext.weyl as weyl

    a21, a19 = build_root_system("A", 21), build_root_system("A", 19)
    assert max(oracles.layer_sizes(a21, full_mask(21))) >= 1 << 64
    with pytest.raises(ContractError, match="order at least 2\\^64"):
        weyl._poincare(a21, full_mask(21))
    assert parabolic_order(a19, full_mask(19)) < 1 << 64
    assert weyl._digits(weyl._poincare(a19, full_mask(19))) == \
        oracles.layer_sizes(a19, full_mask(19))


def test_the_partition_is_checked_before_the_first_representative(monkeypatch):
    """The representatives stream, but the check that their cosets partition
    the group runs in the call that asks for them, reading no element: a
    walk that yields a corrupted X_J raises before any representative is
    decoded."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    closure, corrupted = weyl._closure, oracles.weyl_group(rs, generate_weyl(rs)[1:])
    built = _counting_decodes(monkeypatch)
    monkeypatch.setattr(weyl, "_closure", oracles.walking(corrupted))
    with pytest.raises(ContractError, match="do not partition"):
        weyl.iter_kostant_reps(rs, 0b011, 0b110)
    monkeypatch.setattr(weyl, "_closure", closure)
    reps = weyl.iter_kostant_reps(rs, 0b011, 0b110)
    assert not built
    assert next(reps).w.is_identity and len(built) == 1
    monkeypatch.undo()
    assert (next(reps), *reps) == kostant_reps(rs, 0b011, 0b110)[1:]


@pytest.mark.parametrize("corruption,expected", [
    ("non-simple", r"w\(alpha_3\) lies in the I-Levi but is not simple"),
    ("negative", r"w\(alpha_3\) is negative"),
    ("length", "a representative of length -1: double cosets do not partition")])
def test_a_stray_representative_past_the_first_block_is_named(corruption, expected,
                                                               monkeypatch):
    """D5, I = {0, 1}, J = {0, 3}: 104 representatives.  The walk stand-in's
    100th kept record, past the first 64, carries a non-simple root of Phi_I
    or a negative root as w(alpha_3), or a negative length, and the 102nd
    carries a negative w(alpha_0): the guards read the whole columns, so the
    100th, the first in group order, is named, and in the call, before any
    representative is decoded."""
    import steinberg_ext.weyl as weyl

    rs, I, J = build_root_system("D", 5), 0b00011, 0b01001
    group = generate_weyl(rs)
    masks, elements = oracles.masks(group), list(group)
    kept = [p for p, mask in enumerate(masks) if not mask & J and not mask >> 8 & I]
    assert len(kept) == len(kostant_reps(rs, I, J)) == 104
    assert rs.positive_roots[8] == (1, 1, 0, 0, 0) and 8 in levi_root_indices(rs, I)

    def corrupt(p, b, image=None):  # w(alpha_b) made ``image``, or negated
        images = list(elements[p].signed_images)
        images[b] = -images[b] if image is None else image
        elements[p] = elements[p]._replace(signed_images=tuple(images))

    if corruption == "length":
        elements[kept[99]] = elements[kept[99]]._replace(length=-1)
    else:
        corrupt(kept[99], 3, 9 if corruption == "non-simple" else None)
    corrupt(kept[101], 0)
    monkeypatch.setattr(weyl, "_closure",
                        oracles.walking(oracles.weyl_group(rs, elements, masks), 256))
    built = _counting_decodes(monkeypatch)
    with pytest.raises(ContractError, match=expected):
        weyl.iter_kostant_reps(rs, I, J)
    assert not built


def test_a_non_simple_image_outside_the_i_levi_missing_the_left_mask_is_named(monkeypatch):
    """A3, I = {}, J = {1}: s_0 carries alpha_1 onto alpha_0 + alpha_1, whose
    support meets its left mask {0}.  With that mask cleared, no Weyl group
    element is left that does what s_0 does (Kilmoyer with I = {0, 1} and
    J = {1}), but nothing of the I-Levi is involved, the signs are genuine
    and, at I = {}, Kilmoyer's sum is W(t) as before: only the Levi guard
    that both readers share tells, and it names w(alpha_1) before any
    representative is decoded.  The classes of the same group do not
    answer."""
    import steinberg_ext.weyl as weyl
    from steinberg_ext.strata import DescentClasses

    rs = build_root_system("A", 3)
    group = generate_weyl(rs)
    masks = oracles.masks(group)
    at = next(p for p, w in enumerate(group) if w.length == 1 and w.signed_images[0] < 0)
    assert rs.positive_roots[group[at].signed_images[1] - 1] == (1, 1, 0)
    assert masks[at] >> 8 == 0b001
    masks[at] &= 0xFF
    corrupted = oracles.weyl_group(rs, group[:], masks)
    assert not DescentClasses(rs, oracles.blocks(corrupted), RingSpec(1009, 3)).answers
    monkeypatch.setattr(weyl, "_closure", oracles.walking(corrupted))
    built = _counting_decodes(monkeypatch)
    with pytest.raises(ContractError, match=r"^w\(alpha_1\) is not simple, and its support "
                                            "misses the left mask of w; not a minimal"):
        weyl.iter_kostant_reps(rs, 0, 0b010)
    assert not built


def test_the_representatives_are_read_once(monkeypatch):
    """One stream consumed whole walks X_J once, reads its representatives
    once, and sums delta once per L': D5, I = {0, 1}, J = {2, 4}, 80
    representatives in two blocks, four L'."""
    import steinberg_ext.weyl as weyl

    rs, I, J = build_root_system("D", 5), 0b00011, 0b10100
    closure, kept, difference = weyl._closure, weyl._kept, weyl.levi_difference_sum
    walks, reads, sources = [], [], []
    monkeypatch.setattr(weyl, "_closure", lambda rs, J=0: walks.append(J) or closure(rs, J))
    monkeypatch.setattr(weyl, "_kept", lambda *args: reads.append(args) or kept(*args))
    monkeypatch.setattr(weyl, "levi_difference_sum",
                        lambda rs, J, L: sources.append(L) or difference(rs, J, L))
    reps = tuple(weyl.iter_kostant_reps(rs, I, J))
    assert walks == [J] and reads == [(rs, I, J)]
    expected = oracles.kostant_reps_by_enumeration(rs, I, J)
    assert reps == expected and len(reps) == 80
    into_i = {sum(1 << j for j in (2, 4) if rep.w.signed_images[j] in (1, 2))  # L'
              for rep in expected}
    assert sorted(sources) == sorted(into_i) == [0, 4, 16, 20]


def test_gamma_exponent_examples():
    a1 = build_root_system("A", 1)
    s = simple_reflection(a1, 0)
    assert gamma_exponents(a1, s, 0, 0) == (1,)

    a2 = build_root_system("A", 2)
    s1 = simple_reflection(a2, 1)
    assert gamma_exponents(a2, s1, 0b01, 0b01) == (0, 1)
    identity = generate_weyl(a2)[0]
    assert gamma_exponents(a2, identity, 0b11, 0b01) == (0, 0)


def test_delta_exponent_examples():
    a2 = build_root_system("A", 2)
    s1 = simple_reflection(a2, 1)
    assert delta_exponents(a2, s1, 0b01, 0b01) == (1, 0)
    identity = generate_weyl(a2)[0]
    assert delta_exponents(a2, identity, 0b11, 0b01) == (0, 0)
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        w = generate_weyl(rs)[-1]
        assert delta_exponents(rs, w, 0b01, 0) == (0,) * rs.rank


def test_gamma_delta_match_matrix_action():
    # re-derive both exponent vectors from the matrix action on coordinates
    series, rank = "B", 2
    rs = build_root_system(series, rank)
    cartan = cartan_matrix(series, rank)
    positives = sorted(oracles.positive_roots_oracle(cartan))
    index = {v: k for k, v in enumerate(rs.positive_roots)}
    for w in generate_weyl(rs):
        matrix = tuple(zip(*[
            # column j: image of alpha_j read off the signed permutation
            _image_coords(rs, w, j) for j in range(rank)
        ]))
        for I in range(4):
            for J in range(4):
                gamma = [0] * rank
                delta = [0] * rank
                for v in positives:
                    image = oracles.mat_apply(matrix, v)
                    neg = all(x <= 0 for x in image)
                    in_j = all(c == 0 for i, c in enumerate(v) if not J >> i & 1)
                    image_abs = tuple(-x for x in image) if neg else image
                    in_i = all(c == 0 for i, c in enumerate(image_abs) if not I >> i & 1)
                    if not in_j and neg and not in_i:
                        for i, c in enumerate(v):
                            gamma[i] += c
                    if in_j and not neg and not in_i:
                        for i, c in enumerate(v):
                            delta[i] += c
                assert gamma_exponents(rs, w, I, J) == tuple(gamma)
                assert delta_exponents(rs, w, I, J) == tuple(delta)


def _image_coords(rs, w, j):
    s = w.signed_images[j]
    k, sign = abs(s) - 1, 1 if s > 0 else -1
    return tuple(sign * c for c in rs.positive_roots[k])


def test_gamma_zero_iff_identity():
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for rep in kostant_reps(rs, I, J):
                    zero = rep.gamma_exp == (0,) * rs.rank
                    assert zero == rep.w.is_identity


def test_intersect_levi_examples():
    a2 = build_root_system("A", 2)
    identity = generate_weyl(a2)[0]
    assert intersect_levi(a2, identity, 0b01, 0b11) == 0b01
    assert intersect_levi(a2, identity, 0b11, 0b10) == 0b10
    s1 = simple_reflection(a2, 1)
    assert intersect_levi(a2, s1, 0b01, 0b01) == 0


def test_intersect_levi_contract_error():
    a2 = build_root_system("A", 2)
    s0 = simple_reflection(a2, 0)
    # s0 is not the minimal representative for (full, {alpha_1}): it carries
    # alpha_1 to the non-simple root alpha_0 + alpha_1 inside the full Levi
    with pytest.raises(ContractError):
        intersect_levi(a2, s0, 0b11, 0b10)


def test_levi_matches_double_coset_rep():
    for name in ["A2", "B2", "A3"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for rep in kostant_reps(rs, I, J):
                    if rep.w.is_identity:
                        assert rep.levi == I & J


def _traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_representatives_keep_only_their_own_records():
    """The walk of X_J is read a block at a time, and only the
    representatives' records are kept: on E6 with J = {}, whose X_J is the
    whole group, and I = Delta, one representative, the traced peak of the
    call stays below the group's records, |W|(N + 1) = 51,840 * 37 bytes,
    which keeping X_J would take first."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("E", 6)
    full = full_mask(rs.rank)
    weyl.kostant_reps(rs, full, 0)  # fills the tables kept for the process
    reps, peak = _traced_peak(lambda: weyl.kostant_reps(rs, full, 0))
    assert len(reps) == 1 and peak < 51840 * (rs.num_positive + 1) == 1918080, peak


def test_a_flipped_left_descent_fails_the_partition_check(monkeypatch):
    """With J = {} and I = {i}, flipping bit i of one element's left mask in
    the blocks the walk yields adds or drops one representative, so the
    Kilmoyer sum misses W(t)."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    for position in (0, 1, len(group) // 2, len(group) - 1):
        for i in range(rs.rank):
            masks = oracles.masks(group)
            masks[position] ^= 1 << 8 + i  # the left mask is the high byte
            _walking(monkeypatch, rs, group, masks)
            with pytest.raises(ContractError, match="do not partition"):
                kostant_reps(rs, 1 << i, 0)
    _walking(monkeypatch, rs, group)
    assert kostant_reps(rs, 0b001, 0) == oracles.kostant_reps_by_filter(rs, 0b001, 0)


def _counting_decodes(monkeypatch) -> list:
    """The signed images of every element the package builds from here on."""
    import steinberg_ext.weyl as weyl

    built = []
    element = weyl.WeylElement

    def counting(images, length):
        built.append(images)
        return element(images, length)

    monkeypatch.setattr(weyl, "WeylElement", counting)
    return built


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_generated_lengths_count_negative_images(name):
    # lengths come from the breadth-first step an element is reached at
    rs = build_root_system(*parse_type(name))
    for w in generate_weyl(rs):
        assert w.length == sum(1 for s in w.signed_images if s < 0)
    assert all(permutes_roots(rs, w) for w in generate_weyl(rs))


# ---------------------------------------------------------------------------
# the descent-guarded enumerator against the seen-set closure it replaced

@pytest.mark.parametrize("name", RANK_AT_MOST_5 + ["A6", "B6", "C6", "D6", "F4", "E6"])
def test_enumeration_matches_the_seen_set_closure(name):
    """The whole walk is the seen-set closure in group order, with the
    oracle's left masks; and for every J the walk of X_J yields, in that
    order, exactly the closure's elements whose right mask misses J, with
    their records and left masks, in pairs."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system(*parse_type(name))
    oracle = oracles.weyl_closure_by_seen_set(rs, full_mask(rs.rank))
    walked = oracles.filled(rs, weyl._closure(rs))
    assert walked._records.typecode == "b"
    assert walked._records.tolist() == [x for w in oracle for x in (w.length, *w.signed_images)]
    assert walked.left == bytes(m >> 8 for m in oracles.descent_masks(rs, oracle))
    assert generate_weyl(rs) == oracle
    for J in range(1, full_mask(rs.rank) + 1):
        (records, left), = oracles.blocks(walked, J=J)
        walk = list(weyl._closure(rs, J))
        assert {len(block) for block in walk} == {2}, J
        assert b"".join(block[0] for block in walk) == records.tobytes(), J
        assert b"".join(block[1] for block in walk) == left, J


@pytest.mark.parametrize("name", RANK_AT_MOST_5 + ["F4", "E6"])
def test_the_class_pass_makes_the_right_masks_of_the_descent_scan(name):
    """The walk yields no right masks: the class pass makes them from the
    signs of the simple images, and on the whole walk they are the right
    half of the oracle's descent scan, in group order, as its left column
    is the left half."""
    import steinberg_ext.weyl as weyl
    from steinberg_ext.strata import DescentClasses

    rs = build_root_system(*parse_type(name))
    classes = DescentClasses(rs, weyl._closure(rs), RingSpec(1009, 3))
    masks = oracles.descent_masks(rs, generate_weyl(rs))
    assert classes._right == bytes(m & 0xFF for m in masks)
    assert classes._left == bytes(m >> 8 for m in masks)


def _in_levi(rs, levi):
    """The elements of the whole walked group that lie in W_levi: those whose
    inversions are all roots of the Levi."""
    roots, group = levi_root_indices(rs, levi), generate_weyl(rs)
    return [(w, mask) for w, mask in zip(group, oracles.masks(group))
            if all(k in roots for k, s in enumerate(w.signed_images) if s < 0)]


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_parabolic_subgroups_match_the_seen_set_closure(name):
    """Every parabolic subgroup, read off the whole walked group, is the
    seen-set closure of its generators, in group order."""
    rs = build_root_system(*parse_type(name))
    for levi in range(full_mask(rs.rank) + 1):
        assert [w for w, _ in _in_levi(rs, levi)] == \
            list(oracles.weyl_closure_by_seen_set(rs, levi))


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_parabolic_masks_match_the_descent_scan(name):
    """An element of W_levi has its descents in the Levi, and the same ones
    in W_levi as in W: so the whole walk's masks of a parabolic subgroup's
    elements are the oracle's scan of the seen-set closure's elements."""
    rs = build_root_system(*parse_type(name))
    for levi in range(full_mask(rs.rank) + 1):
        assert [mask for _, mask in _in_levi(rs, levi)] == \
            oracles.descent_masks(rs, oracles.weyl_closure_by_seen_set(rs, levi)).tolist()


def test_the_walk_reads_a_block_in_c_not_element_by_element():
    """A block of up to 256 elements costs the walk a fixed number of C
    calls, whatever it holds: one E6 walk (51,840 elements in 225 blocks)
    makes 23,045, under one for every two elements, where a loop over the
    elements made about five per element (243,052)."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("E", 6)
    full = full_mask(rs.rank)
    weyl._guards(rs)  # fills the reflection tables, kept for the process
    walk = weyl._closure(rs)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    sys.setprofile(count)
    try:
        blocks = [left for _, left in walk]  # no C call of its own
    finally:
        sys.setprofile(None)
    elements = sum(map(len, blocks))
    assert elements == 51840 and len(blocks) == 225
    assert calls < elements // 2, calls


def test_a_wrong_guard_fails_the_layer_check(monkeypatch):
    """A guard that lets an element in twice, or keeps one out, changes a
    layer's size, which the Poincaré polynomial catches; a layer past the
    longest element is caught as well."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    full = full_mask(rs.rank)
    guards, digits = weyl._guards, weyl._digits

    def admits_duplicates(rs):  # s_0 s_2 = s_2 s_0 is reached from both
        return tuple((table, frozenset()) for table, _ in guards(rs))

    def drops_elements(rs):  # the last generator is taken from the identity only
        *rest, (table, _) = guards(rs)
        return (*rest, (table, frozenset(range(-rs.num_positive, 0))))

    for wrong in (admits_duplicates, drops_elements):
        monkeypatch.setattr(weyl, "_guards", wrong)
        with pytest.raises(ContractError, match="Poincaré polynomial"):
            list(weyl._closure(rs))
    monkeypatch.setattr(weyl, "_guards", guards)
    monkeypatch.setattr(weyl, "_digits", lambda value: digits(value)[:-1])
    for J in (0, 0b110):
        with pytest.raises(ContractError, match="past its longest element"):
            list(weyl._closure(rs, J))
    monkeypatch.undo()
    assert oracles.filled(rs, weyl._closure(rs))._records.tolist() == \
        [x for w in oracles.weyl_closure_by_seen_set(rs, full) for x in (w.length, *w.signed_images)]


def test_a_walk_of_x_j_without_its_j_guard_fails_the_layer_check(monkeypatch):
    """With the guard that keeps the walk in X_J dropped (its bit table sends
    the code of +alpha_i to no bit), the walk of X_J steps out of it at
    length 1, and that layer's size is not W(t)/W_J(t)'s coefficient: the
    representatives raise ``ContractError`` in the call, before any is
    yielded or decoded."""
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    bit_table, simple = weyl._bit_table, [(weyl._ZERO + 1 + i,) for i in range(rs.rank)]
    monkeypatch.setattr(weyl, "_bit_table",
                        lambda codes_of: bytes(256) if codes_of == simple else bit_table(codes_of))
    built = _counting_decodes(monkeypatch)
    for J, why in ((0b001, "; its Poincaré polynomial has 2"),
                   (0b110, "; its Poincaré polynomial has 1"), (0b111, ", past its longest")):
        with pytest.raises(ContractError, match=rf"of length 1 in W\(B3\)/W_\{{.*\}}{why}"):
            weyl.iter_kostant_reps(rs, 0, J)
    assert not built
    assert len(list(weyl._closure(rs))) == 10  # the whole walk has no J guard to drop


def test_a_group_is_filled_whole_from_its_blocks():
    """The reference group's arrays are preallocated at |W| and filled from
    blocks of any size; blocks that fall short of |W| are refused, not
    padded."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    filled = oracles.filled(rs, oracles.blocks(group, 5))
    assert filled == group and oracles.masks(filled) == oracles.masks(group)
    with pytest.raises(ContractError, match=r"45 elements in W\(B3\), of order 48"):
        oracles.filled(rs, oracles.blocks(group, 5)[:-1])


def test_simple_roots_out_of_place_are_refused():
    import steinberg_ext.weyl as weyl

    rs = build_root_system("B", 3)
    roots = rs.positive_roots
    for moved in ((roots[3], *roots[1:3], roots[0], *roots[4:]), roots[1:] + roots[:1]):
        with pytest.raises(ContractError, match="first 3 positive roots"):
            weyl._closure(rs._replace(positive_roots=moved))


def test_byte_codes_hold_at_most_127_roots(monkeypatch):
    """An image is one byte code inside the walk, which holds at most 127
    positive roots; the cap refuses every type with more, before the walk
    starts."""
    import steinberg_ext.weyl as weyl

    def no_enumeration(*args):
        raise AssertionError("the enumeration started")

    wide = [build_root_system(*t) for t in (("A", 16), ("B", 12), ("C", 12), ("D", 12))]
    assert min(rs.num_positive for rs in wide) > 127
    monkeypatch.setattr(weyl, "_walk", no_enumeration)
    start = time.perf_counter()
    for rs in wide:
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            weyl._closure(rs)
    assert time.perf_counter() - start < 0.1


def test_the_cap_bounds_the_walk(monkeypatch):
    """Every type of rank at most MAX_RANK with |W| under the cap has rank at
    most 8, so a mask side and a guard's verdicts fit one byte, and at most
    49 positive roots (B7), so an image fits one byte code; A9 and A16 are
    refused before the walk starts."""
    import steinberg_ext.weyl as weyl
    from steinberg_ext.rootdata import MAX_RANK, SERIES

    types, walked = 0, []
    for series in SERIES:
        for rank in range(1, MAX_RANK + 1):
            try:
                rs = build_root_system(series, rank)
            except ConfigurationError:  # no such type
                continue
            types += 1
            if parabolic_order(rs, full_mask(rank)) <= weyl.DEFAULT_WEYL_CAP:
                walked.append(rs)
    assert types == 128
    assert max(rs.rank for rs in walked) == 8
    assert max(rs.num_positive for rs in walked) == 49 == build_root_system("B", 7).num_positive
    monkeypatch.setattr(weyl, "_walk", lambda *args: pytest.fail("the walk started"))
    for rank in (9, 16):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            weyl._closure(build_root_system("A", rank))


def test_gamma_fits_a_byte_lane_under_the_cap():
    """``iter_kostant_reps`` sums gamma in byte lanes, a byte per
    representative, and a coordinate of gamma is at most that of 2 rho, since
    N(w) lies in Phi+.  Every type under the cap has max_rho_coefficient at
    most 54 (C7), so one byte holds it.  E8 reaches 270 and is over the cap;
    admitting it would need 2-byte lanes."""
    from steinberg_ext.rootdata import max_rho_coefficient

    peaks = {rs.type_name(): max_rho_coefficient(rs) for rs in _types_under_the_cap()}
    assert max(peaks.values()) == peaks["C7"] == 54
    assert "E8" not in peaks and max_rho_coefficient(build_root_system("E", 8)) == 270


def test_closure_holds_one_layer_beside_what_it_returns():
    """The enumeration yields each layer's records on their own: what the
    traced peak of filling a group from them on E6 holds beyond its records
    and masks stays within 256 bytes for each element of the largest layer
    (3,662 elements, so 0.94 MB; keeping every layer's byte strings alive
    takes over 4 MB)."""
    import tracemalloc

    import steinberg_ext.weyl as weyl

    rs = build_root_system("E", 6)
    full = full_mask(rs.rank)
    weyl._guards(rs)  # fills the reflection tables, kept for the process
    sizes = weyl._digits(weyl._poincare(rs, full))
    tracemalloc.start()
    try:
        walked = oracles.filled(rs, weyl._closure(rs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records, left, right = walked._records, walked.left, walked.right
    kept = records.itemsize * len(records) + len(left) + len(right)
    largest = max(sizes)
    assert len(left) == len(right) == 51840 and largest == 3662
    assert records.itemsize == 1 and peak - kept <= 256 * largest, (peak, kept)


def test_the_class_pass_holds_less_than_the_group():
    """The descent classes are cut from the walk's blocks as they come: the
    traced peak of building them on E6 stays below the group's records,
    |W|(N + 1) = 51,840 * 37 bytes, which a held group would take first."""
    import tracemalloc

    import steinberg_ext.weyl as weyl
    from steinberg_ext.strata import DescentClasses

    rs, spec = build_root_system("E", 6), RingSpec(1000003, 3)
    DescentClasses(rs, weyl._closure(rs), spec)  # fills the tables kept for the process
    tracemalloc.start()
    try:
        classes = DescentClasses(rs, weyl._closure(rs), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes.answers and peak < 51840 * (rs.num_positive + 1) == 1918080, peak


def test_generated_group_decodes_on_each_read(monkeypatch):
    """Generating the reference group, and the class pass over it, decode no
    element; each read decodes its element from the records, so two reads
    are equal, not one object."""
    from steinberg_ext.strata import DescentClasses

    built = _counting_decodes(monkeypatch)
    rs = build_root_system("B", 3)
    group = generate_weyl.__wrapped__(rs)  # not the memoised one
    oracle = oracles.weyl_closure_by_seen_set(rs, full_mask(3))
    (records, _), = oracles.blocks(group)
    width = rs.num_positive + 1
    assert records[::width].tobytes() == bytes(w.length for w in oracle)
    assert records[5 * width:6 * width].tobytes() == bytes(
        s & 0xFF for s in (oracle[5].length, *oracle[5].signed_images))
    assert DescentClasses(rs, oracles.blocks(group), RingSpec(1009, 3)).answers and not built
    assert group[5] == group[5] and group[5] is not group[5] and len(built) == 4
    assert group[-1] == group[len(group) - 1] and len(built) == 6
    elements = list(group)
    assert len(built) == 6 + len(group) == 54
    assert group[2:7] == tuple(elements[2:7]) and len(built) == 59


def test_a_read_leaves_its_group_as_it_found_it():
    """The reference group holds its records and masks and keeps nothing a
    read makes: the filter's representatives, decoded elements and the class
    pass leave its attributes as they were."""
    from steinberg_ext.strata import DescentClasses

    rs = build_root_system("B", 3)
    group = generate_weyl.__wrapped__(rs)
    before = set(vars(group))
    for I, J in ((0, 0), (0b011, 0b110), (0b111, 0b111)):
        oracles.kostant_reps_by_filter(rs, I, J, group)
    assert list(group)[1:5] == list(group[1:5])
    DescentClasses(rs, oracles.blocks(group), RingSpec(1009, 3))
    assert set(vars(group)) == before
