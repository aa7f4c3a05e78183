import pytest

from steinberg_ext.errors import ConfigurationError
from steinberg_ext.rootdata import (
    build_root_system,
    cartan_matrix,
    full_mask,
    levi_root_indices,
    mask_from_indices,
    mask_indices,
    max_rho_coefficient,
    parse_type,
    rho_coefficients,
)

import oracles

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "E6", "E7", "E8", "F4", "G2"]

EXPECTED_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16, "C2": 4, "C3": 9, "C4": 16,
    "D4": 12, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts(name):
    rs = build_root_system(*parse_type(name))
    assert rs.num_positive == EXPECTED_COUNTS[name]


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "A3", "F4"])
def test_positive_roots_match_orbit_oracle(name):
    series, rank = parse_type(name)
    rs = build_root_system(series, rank)
    assert set(rs.positive_roots) == oracles.positive_roots_oracle(cartan_matrix(series, rank))


def test_simple_roots_first_in_delta_order():
    rs = build_root_system("B", 3)
    for i in range(3):
        assert rs.positive_roots[i] == tuple(1 if j == i else 0 for j in range(3))


def test_cartan_invariants():
    for name in ALL_TYPES:
        rs = build_root_system(*parse_type(name))
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            for j in range(rs.rank):
                if i != j:
                    assert rs.cartan[i][j] <= 0


@pytest.mark.parametrize("bad", [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                                 ("E", 5), ("E", 9), ("F", 3), ("G", 3)])
def test_invalid_types_report_the_pair(bad):
    with pytest.raises(ConfigurationError):
        build_root_system(*bad)


def test_parse_type_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_type("H2")
    with pytest.raises(ConfigurationError):
        parse_type("Axy")


def _levi_roots(rs, levi):
    """The positive roots at ``levi_root_indices``, in root order."""
    return tuple(rs.positive_roots[k] for k in sorted(levi_root_indices(rs, levi)))


def test_levi_positive_roots_examples():
    rs = build_root_system("A", 2)
    assert _levi_roots(rs, 0) == ()
    assert _levi_roots(rs, 0b01) == ((1, 0),)
    assert set(_levi_roots(rs, full_mask(2))) == set(rs.positive_roots)


def test_levi_monotone():
    rs = build_root_system("B", 3)
    full = full_mask(3)
    for small in range(full + 1):
        for big in range(full + 1):
            if small & ~big:
                continue
            assert set(_levi_roots(rs, small)) <= set(_levi_roots(rs, big))


def test_rho_examples():
    assert rho_coefficients(build_root_system("A", 1)) == (1,)
    assert rho_coefficients(build_root_system("A", 2)) == (2, 2)
    g2 = build_root_system("G", 2)
    assert rho_coefficients(g2) == (10, 6)
    assert max_rho_coefficient(g2) == 10


def test_rho_matches_orbit_oracle():
    for name in ["A2", "B3", "G2", "D4"]:
        series, rank = parse_type(name)
        rs = build_root_system(series, rank)
        oracle_sum = [0] * rank
        for v in oracles.positive_roots_oracle(cartan_matrix(series, rank)):
            for i, c in enumerate(v):
                oracle_sum[i] += c
        assert rho_coefficients(rs) == tuple(oracle_sum)


def test_rho_entries_at_least_one():
    for name in ALL_TYPES:
        assert min(rho_coefficients(build_root_system(*parse_type(name)))) >= 1


def test_mask_helpers():
    assert mask_from_indices([0, 2], 3) == 0b101
    assert mask_indices(0b101) == (0, 2)
    with pytest.raises(ConfigurationError):
        mask_from_indices([3], 3)

