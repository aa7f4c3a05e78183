import random
from array import array
from collections import Counter

import pytest

from steinberg_ext.errors import (ConfigurationError, ContractError, RingAssumptionError,
                                  VerificationError)
from steinberg_ext.extengine import (
    CLOSED_FORM,
    COMPLEX_BUILT,
    ExtTable,
    ModulePiece,
    Orientation,
    cohomology_v,
    ext_cuspidal_line,
    ext_induced_closed,
    ext_induced_via_strata,
    ext_steinberg,
    ext_v_to_induced,
    exterior_table,
    induced_cohomology,
    orientation_from_permutation,
    orientation_from_subset,
    steinberg_degree,
    subset_from_orientation,
    tensor_with_exterior,
    trivial_cohomology,
    vanishing_certificate,
)
from steinberg_ext.homology import HomologyResult
from steinberg_ext.ringcond import RingSpec, bon_check, check_ring, parse_ring
from steinberg_ext.rootdata import (build_root_system, full_mask, mask_size, max_rho_coefficient,
                                    parse_type)
from steinberg_ext.strata import DescentClasses, verify_strata
from steinberg_ext.weyl import DoubleCosetRep, WeylElement, kostant_reps, levi_difference_sum

import oracles
from oracles import (_inversion_sum, delta_exponents, gamma_exponents, generate_weyl,
                     simple_reflection)

Q = RingSpec.rationals()
Z5 = RingSpec(5, 3)
# passes bon and banal for every type used here: 3 has order 11 mod 23,
# larger than any coefficient of the sum-of-positive-roots vector involved
Z23 = RingSpec(23, 3)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]
# every type of rank <= 5
RANK_5_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5",
                "F4", "G2"]


def table(entries):
    return ExtTable({d: ModulePiece(r) for d, r in entries.items()})


def test_trivial_cohomology():
    rs = build_root_system("A", 2)
    assert trivial_cohomology(rs, Q, 0).same_modules(table({0: 1}))
    assert trivial_cohomology(rs, Q, 1).same_modules(table({0: 1, 1: 1}))
    assert trivial_cohomology(rs, Q, 2).same_modules(table({0: 1, 1: 2, 2: 1}))


def test_induced_cohomology():
    a2 = build_root_system("A", 2)
    assert induced_cohomology(a2, full_mask(2), Q).same_modules(table({0: 1}))
    assert induced_cohomology(a2, 0, Q).same_modules(table({0: 1, 1: 2, 2: 1}))
    a3 = build_root_system("A", 3)
    assert induced_cohomology(a3, 0b011, Q).same_modules(table({0: 1, 1: 1}))


def test_ext_induced_closed():
    a2 = build_root_system("A", 2)
    assert ext_induced_closed(a2, full_mask(2), 0, Q).same_modules(
        table({0: 1, 1: 2, 2: 1}))
    assert ext_induced_closed(a2, 0b01, 0b01, Q).same_modules(table({0: 1, 1: 1}))
    assert not ext_induced_closed(a2, 0b01, 0b10, Q).entries


def test_vanishing_certificate_examples():
    a1 = build_root_system("A", 1)
    reps = kostant_reps(a1, 0, 0)
    cert = vanishing_certificate(a1, reps[1], Z5)
    assert cert.beta_index == 0 and cert.exponent == 1 and cert.unit_value == 2
    assert cert.branch == "gamma"

    # identity stratum with J inside I survives
    a2 = build_root_system("A", 2)
    surviving = kostant_reps(a2, 0b11, 0b01)[0]
    assert surviving.w.is_identity
    assert vanishing_certificate(a2, surviving, Z5) is None

    # identity stratum with J not inside I certifies through the delta branch
    reps = kostant_reps(a2, 0b01, 0b10)
    identity_rep = reps[0]
    assert identity_rep.w.is_identity
    cert = vanishing_certificate(a2, identity_rep, Z5)
    assert cert is not None and cert.branch == "delta" and cert.exponent > 0


def test_vanishing_certificate_ring_failure():
    a1 = build_root_system("A", 1)
    rep = kostant_reps(a1, 0, 0)[1]
    with pytest.raises(RingAssumptionError):
        vanishing_certificate(a1, rep, RingSpec(2, 3))  # q - 1 = 2 is 0 mod 2


def test_vanishing_certificate_refuses_a_right_descent_in_J():
    """Hand-built representatives of (I, J) = ({}, {alpha_0}) that are not
    minimal: s_0, whose only right descent lies in J, and the longest
    element, which also has one outside J.  Without the guard the first would
    fail the ring (exponent 0) and the second would be certified."""
    a2 = build_root_system("A", 2)
    I, J = 0, 0b01
    for w in (simple_reflection(a2, 0), generate_weyl(a2)[-1]):
        rep = DoubleCosetRep(w=w, I=I, J=J, length=w.length,
                             gamma_exp=gamma_exponents(a2, w, I, J),
                             delta_exp=delta_exponents(a2, w, I, J), levi=0)
        with pytest.raises(ContractError, match="not a minimal double-coset representative"):
            vanishing_certificate(a2, rep, Z23)


def test_strata_examples():
    a2 = build_root_system("A", 2)
    assert ext_induced_via_strata(a2, full_mask(2), 0, Z5).same_modules(
        ext_induced_closed(a2, full_mask(2), 0, Z5))
    a1 = build_root_system("A", 1)
    assert not ext_induced_via_strata(a1, 0, 1, Z5).entries
    assert ext_induced_via_strata(a1, 1, 1, Z5).same_modules(table({0: 1}))


def test_strata_sweep_over_good_ring():
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        assert check_ring(rs, Z23).ok
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                got = ext_induced_via_strata(rs, I, J, Z23)
                assert got.same_modules(ext_induced_closed(rs, I, J, Z23))


def test_certificate_dichotomy_over_good_ring():
    for name in ["A1", "A2", "B2"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for rep in kostant_reps(rs, I, J):
                    cert = vanishing_certificate(rs, rep, Z23)
                    survives = rep.w.is_identity and not (J & ~I)
                    assert (cert is None) == survives


def test_strata_failure_scope_over_z5():
    # 3 has order 4 mod 5, so strata whose certificate directions all carry
    # exponents divisible by 4 cannot be killed over Z/5; across every pair
    # for the rank <= 3 types exactly 103 pairs contain such a stratum
    blocked = 0
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                try:
                    ext_induced_via_strata(rs, I, J, Z5)
                except RingAssumptionError:
                    blocked += 1
    assert blocked == 103


class _RerunThroughTheReps(Exception):
    pass


def _class_verdicts(monkeypatch, rs, group, pairs):
    """Per pair and ring, :func:`verify_strata` answers from the descent
    classes of a genuine group alone exactly when they answer, which is
    where the ring passes bon, and then every representative is certified;
    the Levi of each representative against the class counts."""
    import steinberg_ext.strata as strata

    def rerun(*args, **kwargs):
        raise _RerunThroughTheReps

    monkeypatch.setattr(strata, "ext_induced_via_strata", rerun)
    over = {spec: DescentClasses(rs, oracles.blocks(group), spec)
            for spec in (RingSpec(1009, 3), Z5)}
    for I, J in pairs:
        reps = kostant_reps(rs, I, J)
        for spec, classes in over.items():
            levis = Counter()
            for left, by_image in classes.counts(J).items():
                if not left & I:
                    for image, count in by_image.items():
                        levis[image & I] += count
            assert levis == Counter(rep.levi for rep in reps), (I, J)
            assert classes.covers(I, J), (I, J)
            try:
                for rep in reps:
                    vanishing_certificate(rs, rep, spec)
                every_rep_certified = True
            except RingAssumptionError:
                every_rep_certified = False
            assert every_rep_certified or not classes.answers, (I, J, spec)
            try:
                verify_strata(rs, I, J, spec, classes)
                answered_alone = True
            except _RerunThroughTheReps:
                answered_alone = False
            assert answered_alone == classes.answers == bon_check(rs, spec).ok, (I, J, spec)


@pytest.mark.parametrize("name", RANK_5_TYPES)
def test_descent_classes_match_the_representatives(name, monkeypatch):
    """Every pair of every type of rank <= 5, over a ring that certifies
    every stratum and one (Z/5, q = 3) that fails bon on all but A1 and A2."""
    rs = build_root_system(*parse_type(name))
    full = full_mask(rs.rank)
    pairs = [(I, J) for I in range(full + 1) for J in range(full + 1)]
    _class_verdicts(monkeypatch, rs, generate_weyl(rs), pairs)


def test_descent_classes_match_the_representatives_e6(monkeypatch):
    rs = build_root_system("E", 6)
    rng = random.Random(6)
    pairs = [(rng.getrandbits(6), rng.getrandbits(6)) for _ in range(12)]
    _class_verdicts(monkeypatch, rs, generate_weyl(rs), pairs + [(0, 0), (0b111111, 0)])


@pytest.mark.parametrize("name", RANK_5_TYPES + ["E6"])
def test_the_reader_counts_each_x_j_as_the_classes_of_the_whole_walk(name):
    """The one reader in both modes.  Over the walk of each X_J with B = J,
    the tally of (left mask, S_J(w)), S_J(w) the OR of the simple bits of
    J's images, is ``counts(J)`` of the classes read over the whole walk
    with B = Delta, which keep the elements whose right mask misses J.
    Every verdict of the quotient's walk passes.  E6 walks 486,397 elements
    over its 64 quotients."""
    from steinberg_ext.weyl import _closure, _columns

    rs = build_root_system(*parse_type(name))
    classes, walked = DescentClasses(rs, _closure(rs), Z23), 0
    for J in range(full_mask(rs.rank) + 1):
        left, images, signs, stray, identity = _columns(rs, _closure(rs, J), J)
        s_j = 0
        for image in images:
            s_j |= int.from_bytes(image, "little")
        tally = {}
        for (mask, s), count in Counter(zip(left, s_j.to_bytes(len(left), "little"))).items():
            tally.setdefault(mask, {})[s] = count
        assert tally == classes.counts(J), J
        assert identity and not stray and signs.count(0) == len(signs) == len(left), J
        walked += len(left)
    assert name != "E6" or walked == 486_397


def test_the_strata_path_holds_no_representative_it_has_certified():
    """The representatives stream through the certificates: beyond the
    records they keep, a byte per entry, the traced peak of
    ``ext_induced_via_strata`` on D5 does not grow with their number, from
    80 (I = {0,1,2}, J = {}) to 1,920 (I = J = {}), both read off the whole
    walk; with every representative held at once it grew by about 1.4 MB."""
    import tracemalloc

    rs = build_root_system("D", 5)
    spec = RingSpec(1009, 3)
    few, many = (0b00111, 0), (0, 0)
    assert [len(kostant_reps(rs, I, J)) for I, J in (few, many)] == [80, 1920]
    peaks = []
    for I, J in (few, many) * 2:  # the first round fills the per-process tables
        tracemalloc.start()
        try:
            ext_induced_via_strata(rs, I, J, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    records = (1920 - 80) * (rs.num_positive + 1)
    assert peaks[3] <= peaks[2] + records + 4096, peaks


def _walking(monkeypatch, group):
    """The walk, the class pass's and each X_J's, replaced by one over
    ``group``, a corrupted one."""
    import steinberg_ext.weyl as weyl

    monkeypatch.setattr(weyl, "_closure", oracles.walking(group))


def test_a_corrupted_group_fails_the_class_path_too(monkeypatch):
    """The corrupted groups of ``test_partition_check_catches_a_corrupted_group``:
    a representative dropped or doubled, or, in a group of the right size,
    one replaced by the identity."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    flat = group[:]
    for I, J in [(0, 0), (0b011, 0b110), (0b111, 0b111)]:
        reps = [group.index(rep.w) for rep in oracles.kostant_reps_by_filter(rs, I, J)]
        ends = sorted({reps[0], reps[len(reps) // 2], reps[-1]})
        for elements in ([flat[:p] + flat[p + 1:] for p in ends]
                         + [flat[:p + 1] + flat[p:] for p in ends]
                         + [flat[:p] + flat[:1] + flat[p + 1:] for p in reps[1:2]]):
            corrupted = oracles.weyl_group(rs, elements)
            classes = DescentClasses(rs, oracles.blocks(corrupted), Z23)
            assert not classes.answers
            _walking(monkeypatch, corrupted)
            with pytest.raises(ContractError, match="do not partition"):
                verify_strata(rs, I, J, Z23, classes)
    # at (0, 0) every element is a representative, so the sizes of the group
    # with the identity doubled add up; the count by length tells (two
    # elements of length 0)
    doubled = oracles.weyl_group(rs, flat[:1] + flat[:-1])
    classes = DescentClasses(rs, oracles.blocks(doubled), Z23)
    assert classes.covers(0, 0) and not classes.answers
    _walking(monkeypatch, doubled)
    with pytest.raises(ContractError, match="by length"):
        verify_strata(rs, 0, 0, Z23, classes)


def _b3_shuffled():
    """W(B3) with its elements and masks shuffled together, the identity
    neither first nor last; and the identity's position."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    order = list(range(len(group)))
    random.Random(3).shuffle(order)
    assert 0 < order.index(0) < len(order) - 1
    masks = oracles.masks(group)
    return rs, group, [group[p] for p in order], array("H", (masks[p] for p in order))


def test_the_class_pass_reads_the_group_in_any_order():
    """The columns are read by element, not by position: a genuine group in
    another order, the identity neither first nor last, answers and counts
    every J as it does in group order."""
    rs, group, elements, masks = _b3_shuffled()
    shuffled = oracles.weyl_group(rs, elements, masks)
    for spec in (Z23, Z5):
        classes = DescentClasses(rs, oracles.blocks(group), spec)
        by_element = DescentClasses(rs, oracles.blocks(shuffled), spec)
        assert by_element.answers == classes.answers == (spec is Z23)
        for J in range(full_mask(rs.rank) + 1):
            assert by_element.counts(J) == classes.counts(J), J


def test_a_shuffled_group_without_the_identity_at_length_0_fails_the_class_path():
    """In the shuffled group, the record of length 0 made some other
    element's: the identity's with two images of non-simple roots swapped,
    which no other invariant reads, or a simple reflection's, whose mask
    and right descent go with it."""
    rs, _, elements, masks = _b3_shuffled()
    at = next(p for p, w in enumerate(elements) if w.is_identity)
    images = list(elements[at].signed_images)
    images[3], images[4] = images[4], images[3]
    reflection = next(p for p, w in enumerate(elements) if w.length == 1)
    for p, w in ((at, WeylElement(tuple(images), 0)),
                 (reflection, elements[reflection]._replace(length=0))):
        corrupted = list(elements)
        corrupted[p] = w
        if p == reflection:  # the identity leaves length 0
            corrupted[at] = elements[at]._replace(length=1)
        broken = oracles.weyl_group(rs, corrupted, masks)
        assert not DescentClasses(rs, oracles.blocks(broken), Z23).answers


@pytest.mark.parametrize("name", RANK_5_TYPES + ["E6"])
def test_every_certificate_exponent_lies_in_bons_range(name):
    """What lets the class pass certify by bon alone: at every right
    descent b of every element, 1 <= gamma_b <= m, the largest coefficient
    of 2 rho (w0, with N(w0) = Phi+, reaches m), and every nonzero delta_b
    of every J and L inside J lies in 1..m."""
    rs = build_root_system(*parse_type(name))
    m = max_rho_coefficient(rs)
    gammas = set()
    for w in generate_weyl(rs):
        images = w.signed_images
        gamma = _inversion_sum(rs, images)
        gammas.update(gamma[b] for b in range(rs.rank) if images[b] < 0)
    assert min(gammas) == 1 and max(gammas) == m
    full = full_mask(rs.rank)
    deltas = {e for J in range(full + 1) for L in range(full + 1) if not L & ~J
              for e in levi_difference_sum(rs, J, L) if e}
    assert not deltas or 1 <= min(deltas) and max(deltas) <= m


@pytest.mark.parametrize("name", [name for name in RANK_5_TYPES if int(name[1:]) <= 4])
def test_the_classes_certify_exactly_where_bon_holds(name):
    """On a genuine group ``DescentClasses.answers`` is bon's verdict, over
    rings that pass and fail it."""
    rs = build_root_system(*parse_type(name))
    group = generate_weyl(rs)
    for ring in ("Q", "q=3,d=5", "q=2,d=7", "q=3,d=7", "q=2,d=3", "q=3,d=1009"):
        spec = parse_ring(ring)
        answers = DescentClasses(rs, oracles.blocks(group), spec).answers
        assert answers == bon_check(rs, spec).ok, ring


def test_an_element_without_a_right_descent_fails_the_class_path_too(monkeypatch):
    """B3 with the negative simple image of one reflection s_b made
    positive in its record, its masks left genuine: s_b is a representative
    of each pair whose I and J miss b, and has no right descent to pair a
    gamma certificate with.  The class pass reads its right mask off its
    signs, so two elements have no right descent and the classes do not
    answer: those 16 pairs raise through the classes as they do through the
    representatives; every other pair passes."""
    rs = build_root_system("B", 3)
    group = generate_weyl(rs)
    elements = list(group)
    at, b = next((p, b) for p, w in enumerate(elements)
                 for b in range(rs.rank) if w.length == 1 and w.signed_images[b] < 0)
    images = list(elements[at].signed_images)
    images[b] = -images[b]
    elements[at] = WeylElement(tuple(images), 1)
    corrupted = oracles.weyl_group(rs, elements, oracles.masks(group))
    classes = DescentClasses(rs, oracles.blocks(corrupted), Z23)
    assert DescentClasses(rs, oracles.blocks(group), Z23).answers and not classes.answers
    _walking(monkeypatch, corrupted)
    full = full_mask(rs.rank)
    raised = {}
    for I in range(full + 1):
        for J in range(full + 1):
            for by in (classes, None):
                try:
                    verify_strata(rs, I, J, Z23, by)
                except ContractError as e:
                    raised.setdefault((I, J), []).append(str(e))
    missing_b = [(I, J) for I in range(full + 1) for J in range(full + 1) if not (I | J) >> b & 1]
    assert len(missing_b) == 16 and sorted(raised) == missing_b
    assert all(len(texts) == 2 and all("no gamma certificate direction" in text for text in texts)
               for texts in raised.values())


def _hide_one_rep(rs, group, w_at, I, J, masks):
    """Hide from (I, J) a genuine representative, neither the identity nor
    the element at ``w_at``, whose coset has |W_I||W_J| elements (Levi {}),
    by giving it a descent in I on the left, or, with I empty, in J on the
    right; whether there is one."""
    for rep in kostant_reps(rs, I, J):
        at = group.index(rep.w)
        if rep.levi == 0 and at not in (0, w_at):
            masks[at] |= (I & -I) << 8 if I else J & -J
            return True
    return False


@pytest.mark.parametrize("corruption", ["non-simple", "negative"])
def test_the_levi_guard_is_kept_by_the_class_path(corruption, monkeypatch):
    """A3: an element w that is no representative of (I, J) reads as one
    through its masks: it carries alpha_b (b in J) onto a non-simple root of
    Phi_I with its left mask cleared, or onto a negative root with bit b of
    its right mask cleared.  With a genuine representative of the same coset
    size hidden, Kilmoyer's sum still comes to |W| (``covers`` passes): only
    the Levi guard of ``iter_kostant_reps`` tells, and the class path keeps
    it as an invariant of ``answers``.  The class path reads no right mask:
    it takes them from the signs of the simple images, so a right mask
    cleared reaches only the walk of X_J.  There the representatives raise,
    and the classes, cut from the whole walk, answer as a genuine group's."""
    from steinberg_ext.rootdata import support_mask

    rs = build_root_system("A", 3)
    group = generate_weyl(rs)
    genuine = oracles.masks(group)
    for p, w in enumerate(group):
        masks = array("H", genuine)
        images = w.signed_images
        if corruption == "non-simple":
            b = next((b for b in range(rs.rank) if images[b] > rs.rank), None)
            if b is None:
                continue
            I, J = support_mask(rs.positive_roots[images[b] - 1]), 1 << b
            masks[p] &= ~(I << 8)
            expected = "lies in the I-Levi but is not simple"
        else:
            b = next((b for b in range(rs.rank) if images[b] < 0), None)
            I, J = 0, 1 << b if b is not None else 0
            masks[p] &= ~J
            expected = f"w\\(alpha_{b}\\) is negative"
        if J and masks[p] != genuine[p] and _hide_one_rep(rs, group, p, I, J, masks):
            break
    else:
        raise AssertionError("no such element in A3")
    corrupted = oracles.weyl_group(rs, group[:], masks)
    classes = DescentClasses(rs, oracles.blocks(corrupted), Z23)
    orders = classes.orders
    assert len(corrupted) == classes.order == sum(
        count * orders[I] * orders[J] // orders[levi & I]
        for left, by_levi in classes.counts(J).items() if not left & I
        for levi, count in by_levi.items())
    assert classes.covers(I, J)
    if corruption == "negative":
        genuine_classes = DescentClasses(rs, oracles.blocks(group), Z23)
        assert classes.answers and classes.counts(J) == genuine_classes.counts(J)
        verify_strata(rs, I, J, Z23, classes)
        classes = None  # the representatives, read off the walk of X_J
    else:
        assert not classes.answers
    _walking(monkeypatch, corrupted)
    with pytest.raises(ContractError, match=expected):
        verify_strata(rs, I, J, Z23, classes)


def test_a_disagreement_names_the_table(monkeypatch, fresh_caches):
    import steinberg_ext.extengine as eng

    honest = eng.total_degree
    monkeypatch.setattr(eng, "total_degree", lambda *args: honest(*args) + 1)
    a2 = build_root_system("A", 2)
    for build, args, name in [(ext_steinberg, (0b01, 0b10), "ext_steinberg(I={0}, J={1})"),
                              (ext_v_to_induced, (0b01, 0b10), "ext_v_to_induced(I={0}, J={1})"),
                              (cohomology_v, (0b01,), "cohomology_v(I={0})")]:
        with pytest.raises(VerificationError) as info:
            build(a2, *args, Q, COMPLEX_BUILT)
        assert str(info.value) == f"{name}: complex-built table disagrees with the closed form"


def test_sweep_over_composite_conforming_modulus():
    # d = 77 = 7 * 11 passes the ring checks for A2 with q = 3; the whole
    # stack (UCT over a non-field, certificates, method agreement) must work
    spec = RingSpec(77, 3)
    a2 = build_root_system("A", 2)
    assert check_ring(a2, spec).ok
    for I in range(4):
        for J in range(4):
            built = ext_steinberg(a2, I, J, spec, COMPLEX_BUILT)
            assert built.same_modules(ext_steinberg(a2, I, J, spec, CLOSED_FORM))
            assert not built.has_torsion()
            assert ext_induced_via_strata(a2, I, J, spec).same_modules(
                ext_induced_closed(a2, I, J, spec))


def test_ring_rows_are_kept_per_d(monkeypatch, fresh_caches):
    """No lattice row has torsion, so stand-in integer rows with torsion show
    that a row's homology over the ring is kept per d: one table over A2 above
    {alpha_0} reads each ring's own answer in one process, and once the real
    rows are back and the tables built from the stand-ins are dropped, none of
    the stand-ins' answers is read again."""
    import steinberg_ext.extengine as eng
    import steinberg_ext.homology as homology

    a2 = build_root_system("A", 2)
    stand_ins = {(1, 0): HomologyResult((0, 1), ((), ())),  # by shape (m, t), m = 2 - 1
                 (1, 1): HomologyResult((0, 0), ((), (2, 2, 9)))}
    expected = {0: {0: 1}, 2: {0: 3, 1: 2}, 3: {0: 2, 1: 1}}  # by d: Q, Z/2, Z/3
    rows = homology._ROW_HOMOLOGY
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", stand_ins)
    for d, entries in expected.items():
        # Z/2 and Z/3 with q = 3 fail the ring checks, so only Q is compared
        built = eng._built_table(a2, RingSpec(d, 3), table({0: 1}), "stand-in", 0b01)
        assert built.same_modules(table(entries)), d
    monkeypatch.setattr(homology, "_ROW_HOMOLOGY", rows)
    eng._BUILT_TABLES.clear()  # its entries came from the stand-ins
    for d in expected:
        built = cohomology_v(a2, 0b01, RingSpec(d, 3), COMPLEX_BUILT)
        assert built.same_modules(table({1: 1})), d


def test_cohomology_v_anchors():
    a1 = build_root_system("A", 1)
    assert cohomology_v(a1, 0, Q, COMPLEX_BUILT).same_modules(table({1: 1}))
    a2 = build_root_system("A", 2)
    assert cohomology_v(a2, full_mask(2), Q, COMPLEX_BUILT).same_modules(table({0: 1}))
    assert cohomology_v(a2, 0b01, Q, COMPLEX_BUILT).same_modules(table({1: 1}))


def test_ext_v_to_induced_anchors():
    a2 = build_root_system("A", 2)
    for method in (CLOSED_FORM, COMPLEX_BUILT):
        assert ext_v_to_induced(a2, 0b01, 0b10, Q, method).same_modules(
            table({1: 1, 2: 1}))
        assert ext_v_to_induced(a2, full_mask(2), 0b10, Q, method).same_modules(
            table({0: 1, 1: 1}))
        assert not ext_v_to_induced(a2, 0, 0b10, Q, method).entries


def test_steinberg_degree_identity():
    for name in SMALL_TYPES:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                i0, K = steinberg_degree(rs, I, J)
                assert i0 == mask_size(I | J) - mask_size(I & J)
                assert K & ~((full & ~I) | J) == 0


@pytest.mark.parametrize("I, J", [(0b1000, 0), (0b1000, 0b1000), (0, 0b1000), (-1, 0)])
def test_steinberg_degree_refuses_a_mask_past_the_rank(I, J):
    """Inside the rank the degree and K need no check; past it the masks are
    refused, ahead of a center rank over the cap, as by every other closed
    form."""
    a3 = build_root_system("A", 3)
    with pytest.raises(ConfigurationError, match="beyond rank 3"):
        steinberg_degree(a3, I, J)
    with pytest.raises(ConfigurationError, match="beyond rank 3"):
        ext_steinberg(a3, I, J, Q, center_rank=33)


def test_ext_steinberg_anchors():
    a1 = build_root_system("A", 1)
    assert ext_steinberg(a1, 0, 1, Q, COMPLEX_BUILT).same_modules(table({1: 1}))
    a2 = build_root_system("A", 2)
    for I in range(4):
        assert ext_steinberg(a2, I, I, Q, COMPLEX_BUILT).same_modules(table({0: 1}))
    assert ext_steinberg(a2, 0b01, 0b10, Q, COMPLEX_BUILT, center_rank=1).same_modules(
        table({2: 1, 3: 1}))


def test_ext_steinberg_symmetry():
    for name in ["A2", "B2"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for spec in (Q, Z5):
                    one = ext_steinberg(rs, I, J, spec, COMPLEX_BUILT)
                    other = ext_steinberg(rs, J, I, spec, COMPLEX_BUILT)
                    assert one.same_modules(other)


def test_consistency_ladder():
    for name in ["A2", "B2"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        assert ext_steinberg(rs, full, full, Q).same_modules(
            trivial_cohomology(rs, Q, 0))
        for I in range(full + 1):
            expected = table({rs.rank - mask_size(I): 1})
            assert ext_steinberg(rs, I, full, Q).same_modules(expected)
            assert cohomology_v(rs, I, Q).same_modules(expected)


def test_outside_hypotheses_labeling():
    # Z/5 with q = 3 fails the bon condition for B2 (the exponent-4 factor
    # vanishes), so the built table is labeled instead of asserted
    b2 = build_root_system("B", 2)
    assert not check_ring(b2, Z5).ok
    built = ext_steinberg(b2, 0b01, 0b10, Z5, COMPLEX_BUILT)
    assert built.outside_hypotheses
    # the combinatorial complexes do not feel the ring: values still agree
    assert built.same_modules(ext_steinberg(b2, 0b01, 0b10, Z5, CLOSED_FORM))
    good = ext_steinberg(b2, 0b01, 0b10, Z23, COMPLEX_BUILT)
    assert not good.outside_hypotheses


def test_degree_shift_mutation_is_caught(monkeypatch, fresh_caches):
    # sabotage the centralized degree bookkeeping: every complex-built path
    # must notice the disagreement with the closed form and refuse to return
    import steinberg_ext.extengine as eng
    from steinberg_ext.errors import VerificationError

    honest = eng.total_degree

    def off_by_one(inner, lattice_s, lattice_top):
        return honest(inner, lattice_s, lattice_top) + 1

    monkeypatch.setattr(eng, "total_degree", off_by_one)
    a2 = build_root_system("A", 2)
    with pytest.raises(VerificationError) as info:
        eng.ext_steinberg(a2, 0b01, 0b10, Q, COMPLEX_BUILT)
    assert "closed" in info.value.payload and "built" in info.value.payload
    with pytest.raises(VerificationError):
        eng.cohomology_v(a2, 0b01, Q, COMPLEX_BUILT)
    with pytest.raises(VerificationError):
        eng.ext_v_to_induced(a2, 0b01, 0b10, Q, COMPLEX_BUILT)


def test_kept_tables_are_told_apart_by_the_center_rank(fresh_caches):
    import steinberg_ext.extengine as eng

    a2 = build_root_system("A", 2)
    for c in (0, 1, 2, 0):
        built = ext_steinberg(a2, 0b01, 0b10, Q, COMPLEX_BUILT, center_rank=c)
        assert built.same_modules(ext_steinberg(a2, 0b01, 0b10, Q, CLOSED_FORM, c))
    assert len(eng._BUILT_TABLES) == 3


def test_a_kept_table_is_not_changed_through_a_returned_one(fresh_caches):
    a2 = build_root_system("A", 2)
    first = ext_steinberg(a2, 0b01, 0b10, Q, COMPLEX_BUILT)
    first.entries.clear()
    assert ext_steinberg(a2, 0b01, 0b10, Q, COMPLEX_BUILT).same_modules(table({2: 1}))


def test_kept_tables_are_told_apart_by_the_type_and_q(monkeypatch, fresh_caches):
    """A kept table keeps the ring's verdict, which depends on the type and
    on q, not only on the rows: over q=3,d=7 the ring passes for A3 and
    fails for B3, and over q=2,d=7 it fails for A3.  Each table read in one
    process carries the verdict a fresh process gives it."""
    import steinberg_ext.extengine as eng

    a3, b3 = build_root_system("A", 3), build_root_system("B", 3)
    q3, q2 = RingSpec(7, 3), RingSpec(7, 2)
    queries = [(a3, q3), (b3, q3), (a3, q3), (a3, q2)]
    read = [ext_steinberg(rs, 0b001, 0b010, spec, COMPLEX_BUILT).outside_hypotheses
            for rs, spec in queries]
    kept = len(eng._BUILT_TABLES)
    alone = []
    for rs, spec in queries:
        with monkeypatch.context() as fresh:
            fresh.setattr(eng, "_BUILT_TABLES", {})
            alone.append(ext_steinberg(rs, 0b001, 0b010, spec, COMPLEX_BUILT).outside_hypotheses)
    assert read == alone == [False, True, False, True]
    assert kept == 3


@pytest.mark.parametrize("spec", [Q, RingSpec(1009, 3), Z5])
def test_a_kept_table_equals_one_built_with_an_empty_memo(spec, monkeypatch, fresh_caches):
    """Every A4 ext and ext-vi pair, read through the memo the pairs before
    it filled, equals the same pair built with an empty memo: entries and
    the ring's verdict (over Z/5, q = 3, the ring fails for A4)."""
    import steinberg_ext.extengine as eng

    a4 = build_root_system("A", 4)
    full = full_mask(4)
    for I in range(full + 1):
        for J in range(full + 1):
            for build in (ext_steinberg, ext_v_to_induced):
                shared = build(a4, I, J, spec, COMPLEX_BUILT)
                with monkeypatch.context() as fresh:
                    fresh.setattr(eng, "_BUILT_TABLES", {})
                    alone = build(a4, I, J, spec, COMPLEX_BUILT)
                assert shared == alone and shared.outside_hypotheses == (spec == Z5), \
                    (build.__name__, I, J)
    # 15 ext shapes (|K|, |J \\ I|) and 35 ext-vi shapes (|I u J|, |J|, |J \\ I|)
    assert len(eng._BUILT_TABLES) == 15 + 35


def test_tensor_with_exterior():
    base = table({2: 1})
    assert tensor_with_exterior(base, 1).same_modules(table({2: 1, 3: 1}))
    assert tensor_with_exterior(base, 2).same_modules(table({2: 1, 3: 2, 4: 1}))
    torsive = ExtTable({1: ModulePiece(1, (2,))})
    spread = tensor_with_exterior(torsive, 1)
    assert spread.entries[1].torsion == (2,) and spread.entries[2].torsion == (2,)


def test_exterior_table_shape():
    t = exterior_table(3, shift=2)
    assert t.same_modules(table({2: 1, 3: 3, 4: 3, 5: 1}))


def test_orientations():
    o = orientation_from_subset(3, 0b01)
    assert o.bits() == (True, False)
    assert subset_from_orientation(o) == 0b01
    assert orientation_from_subset(2, 0).bits() == (False,)
    assert orientation_from_subset(4, 0b111).bits() == (True, True, True)

    assert orientation_from_permutation(3, (0, 1, 2)).bits() == (True, True)
    assert orientation_from_permutation(3, (2, 1, 0)).bits() == (False, False)
    assert orientation_from_permutation(3, (1, 0, 2)).bits() == (False, True)
    with pytest.raises(ContractError):
        orientation_from_permutation(3, (0, 0, 2))
    for k, forward in [(3, 0b100), (2, -1), (0, 0)]:  # bits out of range
        with pytest.raises(ContractError, match="out of range"):
            Orientation(k, forward)


def test_orientation_bijection_and_surjectivity():
    for k in range(2, 9):
        for I in range(1 << (k - 1)):
            assert subset_from_orientation(orientation_from_subset(k, I)) == I
    from itertools import permutations
    for k in range(2, 7):
        hit = {orientation_from_permutation(k, w).forward
               for w in permutations(range(k))}
        assert hit == set(range(1 << (k - 1)))


def test_ext_cuspidal_line():
    assert ext_cuspidal_line(2, 0, 0, Q).same_modules(table({0: 1, 1: 1}))
    assert ext_cuspidal_line(3, 0b01, 0b10, Q).same_modules(table({2: 1, 3: 1}))
    for k in range(2, 5):
        for I in range(1 << (k - 1)):
            for J in range(1 << (k - 1)):
                line = ext_cuspidal_line(k, I, J, Q)
                reference = ext_steinberg(build_root_system("A", k - 1), I, J, Q,
                                          CLOSED_FORM, center_rank=1)
                assert line.same_modules(reference)


def test_no_torsion_in_verified_tables():
    for name in ["A2", "B2", "G2"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for spec in (Q, Z5, Z23):
                    assert not ext_steinberg(rs, I, J, spec, COMPLEX_BUILT).has_torsion()


def test_method_agreement_rank4():
    rank4 = ["A4", "B4", "C4", "D4", "F4"]
    for name in rank4:
        rs = build_root_system(*parse_type(name))
        # choose a modulus that honestly satisfies the ring conditions
        spec = next(RingSpec(d, 2) for d in (31, 59, 61, 127)
                    if check_ring(rs, RingSpec(d, 2)).ok)
        full = full_mask(rs.rank)
        for I in range(full + 1):
            assert cohomology_v(rs, I, spec, COMPLEX_BUILT).same_modules(
                cohomology_v(rs, I, spec, CLOSED_FORM))
            for J in range(full + 1):
                assert ext_steinberg(rs, I, J, spec, COMPLEX_BUILT).same_modules(
                    ext_steinberg(rs, I, J, spec, CLOSED_FORM))
                assert ext_v_to_induced(rs, I, J, spec, COMPLEX_BUILT).same_modules(
                    ext_v_to_induced(rs, I, J, spec, CLOSED_FORM))


def test_strata_agreement_rank4():
    for name in ["A4", "D4"]:
        rs = build_root_system(*parse_type(name))
        spec = next(RingSpec(d, 2) for d in (31, 59, 61, 127)
                    if check_ring(rs, RingSpec(d, 2)).ok)
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                got = ext_induced_via_strata(rs, I, J, spec)
                assert got.same_modules(ext_induced_closed(rs, I, J, spec))


def test_gamma_zero_iff_identity_rank4():
    for name in ["A4", "B4", "D4"]:
        rs = build_root_system(*parse_type(name))
        full = full_mask(rs.rank)
        for I in range(full + 1):
            for J in range(full + 1):
                for rep in kostant_reps(rs, I, J):
                    zero = rep.gamma_exp == (0,) * rs.rank
                    assert zero == rep.w.is_identity
