import pytest

from steinberg_ext.errors import ConfigurationError
from steinberg_ext.ringcond import (
    RingSpec,
    banal_proxy_check,
    bon_check,
    check_ring,
    format_ring,
    is_unit,
    parse_ring,
    weyl_degrees,
)
from steinberg_ext.rootdata import build_root_system, parse_type

from oracles import generate_weyl


def test_ring_spec_validation():
    RingSpec(0, 2)
    RingSpec(5, 3)
    RingSpec(6, 4)
    with pytest.raises(ConfigurationError):
        RingSpec(1, 3)  # zero ring
    with pytest.raises(ConfigurationError):
        RingSpec(-5, 3)  # negative modulus
    with pytest.raises(ConfigurationError):
        RingSpec(5, 6)  # 6 is not a prime power
    with pytest.raises(ConfigurationError):
        RingSpec(5, 1)


def test_residue_char():
    assert RingSpec(5, 9).residue_char == 3
    assert RingSpec(0, 8).residue_char == 2


def test_a_ring_factors_its_residue_order_once(monkeypatch):
    """q is factored by trial division when the ring is made, and its base is
    kept; the ring is still compared and hashed by (d, q) alone."""
    import steinberg_ext.ringcond as ringcond

    factored = []
    base = ringcond._prime_power_base

    def counting(q):
        factored.append(q)
        return base(q)

    monkeypatch.setattr(ringcond, "_prime_power_base", counting)
    spec = RingSpec(5, 4294967291)
    assert [spec.residue_char, spec.residue_char] == [4294967291] * 2
    check_ring(build_root_system("A", 2), spec)
    assert factored == [4294967291]
    assert spec == RingSpec(5, 4294967291) and hash(spec) == hash((5, 4294967291))
    assert spec != RingSpec(7, 4294967291)
    with pytest.raises(AttributeError):
        spec.residue_char = 2


def test_is_unit():
    assert is_unit(2, RingSpec(5, 3))
    assert not is_unit(2, RingSpec(2, 3))
    assert not is_unit(0, RingSpec.rationals())
    assert is_unit(-7, RingSpec.rationals())
    assert not is_unit(10, RingSpec(6, 5))


def test_parse_and_format_roundtrip():
    for text in ["Q", "q=3,d=5", "q=9,d=4", "Q,q=3"]:
        spec = parse_ring(text)
        assert parse_ring(format_ring(spec)) == spec
    assert parse_ring("Q") == RingSpec(0, 2)
    assert parse_ring("d=5,q=3") == RingSpec(5, 3)
    for bad in ["", "q=3", "d=5", "x=2,d=5", "q=a,d=5", "Q,d=5"]:
        with pytest.raises(ConfigurationError):
            parse_ring(bad)


def test_a_repeated_ring_component_is_refused():
    # the last value would otherwise win: q=3,d=5,d=7 read as d = 7
    for text, component in [("q=3,d=5,d=7", "'d'"), ("Q,q=3,q=5", "'q'"), ("d=5,q=3,q=3", "'q'"),
                            ("Q,Q", "'Q'"), ("Q,d=0,d=0", "'d'")]:
        with pytest.raises(ConfigurationError, match=f"repeats its component {component}"):
            parse_ring(text)


def test_bon_examples():
    a1 = build_root_system("A", 1)
    assert bon_check(a1, RingSpec(5, 3)).ok
    report = bon_check(a1, RingSpec(2, 3))
    assert not report.ok and report.failing_exponent == 1 and report.failing_factor == 0
    assert bon_check(build_root_system("G", 2), RingSpec.rationals()).ok


def test_bon_oracle_direct_product():
    # evaluate the defining product directly for a handful of rings
    from math import gcd
    from steinberg_ext.rootdata import max_rho_coefficient
    for name in ["A1", "A2", "B2", "G2"]:
        rs = build_root_system(*parse_type(name))
        n_max = max_rho_coefficient(rs)
        for d, q in [(5, 3), (7, 2), (11, 3), (2, 3), (23, 3)]:
            product = 1
            for r in range(1, n_max + 1):
                product *= 1 - q ** r
            assert bon_check(rs, RingSpec(d, q)).ok == (gcd(product, d) == 1)


def test_banal_examples():
    a1 = build_root_system("A", 1)
    assert banal_proxy_check(a1, RingSpec(5, 3)).ok  # q^2 - 1 = 8, unit mod 5
    report = banal_proxy_check(a1, RingSpec(2, 3))
    assert not report.ok and report.failing_degree == 2
    assert banal_proxy_check(a1, RingSpec.rationals()).ok
    shared = banal_proxy_check(a1, RingSpec(9, 3))
    assert not shared.ok and shared.char_divides


# the fundamental degrees as tabulated (Humphreys, Reflection Groups and
# Coxeter Groups, §3.7): A_n 2..n+1, B_n and C_n the even 2..2n, D_n the
# even 2..2n-2 and n, and the exceptional ones
_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def _tabulated(series, rank):
    if (series, rank) in _DEGREES:
        return _DEGREES[series, rank]
    if series == "A":
        return tuple(range(2, rank + 2))
    if series in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    return tuple(sorted([*range(2, 2 * rank - 1, 2), rank]))  # D


def test_degree_tables():
    assert weyl_degrees("A", 1) == (2,)
    assert weyl_degrees("A", 2) == (2, 3)
    assert weyl_degrees("B", 2) == (2, 4)
    assert weyl_degrees("C", 3) == (2, 4, 6)
    assert weyl_degrees("D", 4) == (2, 4, 4, 6)
    assert weyl_degrees("D", 5) == (2, 4, 5, 6, 8)
    assert weyl_degrees("G", 2) == (2, 6)
    assert weyl_degrees("F", 4) == (2, 6, 8, 12)
    assert weyl_degrees("E", 6) == (2, 5, 6, 8, 9, 12)
    assert weyl_degrees("E", 7) == (2, 6, 8, 10, 12, 14, 18)
    assert weyl_degrees("E", 8) == (2, 8, 12, 14, 18, 20, 24, 30)
    for name in ("A7", "A32", "B9", "C16", "D6", "D7", "D32"):
        series, rank = parse_type(name)
        assert weyl_degrees(series, rank) == _tabulated(series, rank), name


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4"])
def test_degree_product_matches_enumeration(name):
    from math import prod
    series, rank = parse_type(name)
    rs = build_root_system(series, rank)
    assert prod(weyl_degrees(series, rank)) == len(generate_weyl(rs))


@pytest.mark.parametrize("name", ["A1", "A5", "B4", "C4", "D4", "E6", "E7", "E8", "F4", "G2"])
def test_degree_sum_matches_root_count(name):
    series, rank = parse_type(name)
    rs = build_root_system(series, rank)
    assert sum(d - 1 for d in weyl_degrees(series, rank)) == rs.num_positive


def test_banal_pass_gives_units_up_to_max_degree():
    # the certificate exponents live below the largest degree; a passing
    # proxy must make every q^m - 1 with m up to that bound a unit
    for name in ["A1", "A2", "B2"]:
        rs = build_root_system(*parse_type(name))
        degrees = weyl_degrees(rs.series, rs.rank)
        for d, q in [(5, 3), (7, 3), (11, 2), (13, 2), (23, 3)]:
            spec = RingSpec(d, q)
            if banal_proxy_check(rs, spec).ok:
                for m in range(1, max(degrees) + 1):
                    if any(deg % m == 0 for deg in degrees):
                        assert is_unit(q ** m - 1, spec)


def test_check_ring_report_shape():
    rs = build_root_system("A", 1)
    report = check_ring(rs, RingSpec(2, 3))
    data = report.to_json_dict()
    assert data["bon"] is False and data["banal_proxy"] is False
    assert data["assumption3"] is True
    assert data["witness"]["bon_failing_exponent"] == 1
    assert not report.ok
    assert check_ring(rs, RingSpec.rationals()).ok
