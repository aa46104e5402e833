"""Generators and exact verifiers: Hermite family, basic and product solutions."""

import math
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from calorics import (
    Polynomial,
    basic_hcp,
    basis,
    chain_check,
    eigen_check,
    heat_apply,
    hermite,
    hermite_relation_check,
    interlacing_check,
    is_caloric,
    parabola_factors,
    parabolic_degree,
    parse_poly,
    product_hcp,
    weighted_inner_product,
)
from calorics.caloric import gaussian_moment_rational


# ---- Hermite polynomials ----


def test_hermite_low_degrees():
    assert hermite(0) == Polynomial.constant(1, 1)
    assert hermite(1) == parse_poly("2*x", 1)
    assert hermite(2) == parse_poly("4*x^2 - 2", 1)
    assert hermite(5) == parse_poly("32*x^5 - 160*x^3 + 120*x", 1)


@pytest.mark.parametrize("d", range(0, 13))
def test_hermite_leading_coefficient(d):
    assert hermite(d).coefficient(0, (d,)) == 2 ** d


def test_hermite_recurrence():
    # H_{d+1} = 2x H_d - 2d H_{d-1}, exactly
    x = parse_poly("x", 1)
    for d in range(1, 12):
        lhs = hermite(d + 1)
        rhs = (x * hermite(d)).scale(2) - hermite(d - 1).scale(2 * d)
        assert lhs == rhs


# ---- basic one-variable solutions ----


def test_basic_degree_four():
    assert basic_hcp(4) == parse_poly("t^2 + t*x^2 + 1/12*x^4", 1)


def test_basic_low_degrees():
    assert basic_hcp(0) == Polynomial.constant(1, 1)
    assert basic_hcp(1) == parse_poly("x", 1)
    assert basic_hcp(2) == parse_poly("t + 1/2*x^2", 1)
    # twice the degree-2 polynomial is the classic 2t + x^2 example
    assert basic_hcp(2).scale(2) == parse_poly("2*t + x^2", 1)


@pytest.mark.parametrize("d", range(0, 21))
def test_basic_is_caloric_and_homogeneous(d):
    p = basic_hcp(d)
    assert heat_apply(p).is_zero
    if d > 0:
        assert parabolic_degree(p) == d


def test_hermite_relation_degree_two_by_hand():
    # p_2(x, -1) = x^2/2 - 1 and (1/2) H_2(x/2) = x^2/2 - 1
    assert basic_hcp(2).substitute_t(-1) == parse_poly("1/2*x^2 - 1", 1)
    assert hermite_relation_check(2)


@pytest.mark.parametrize("d", [0, 5] + list(range(0, 21)))
def test_hermite_relation(d):
    assert hermite_relation_check(d)


# ---- product basis ----


def test_product_two_two():
    expected = parse_poly("(t + 1/2*x^2)*(t + 1/2*y^2)", 2)
    assert product_hcp([2, 2]) == expected
    # equals 1/4 of the integer product example
    assert product_hcp([2, 2]).scale(4) == parse_poly("(2*t + x^2)*(2*t + y^2)", 2)


def test_product_trivial_cases():
    assert product_hcp([0, 0, 0]) == Polynomial.constant(3, 1)
    assert product_hcp([1, 0]) == parse_poly("x", 2)


@pytest.mark.parametrize(
    "alpha",
    [(3,), (2, 1), (4, 3), (1, 1, 2), (5, 0, 3), (0, 4, 4), (3, 3, 4)],
)
def test_products_solve_the_heat_equation(alpha):
    p = product_hcp(alpha)
    assert heat_apply(p).is_zero
    if sum(alpha):
        assert parabolic_degree(p) == sum(alpha)


def test_basis_count_n2_d3():
    polys = basis(2, 3)
    assert len(polys) == 4  # C(4, 1)


def test_basis_unique_in_one_variable():
    polys = basis(1, 7)
    assert polys == [basic_hcp(7)]


def test_basis_n3_d2_all_caloric():
    polys = basis(3, 2)
    assert len(polys) == 6  # C(4, 2)
    for p in polys:
        assert heat_apply(p).is_zero


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(0, 9)])
def test_basis_dimension(n, d):
    assert len(basis(n, d)) == math.comb(n - 1 + d, n - 1)


def test_basis_is_linearly_independent_via_gram():
    # Gram matrix of the weighted inner products is diagonal and positive
    polys = basis(2, 3)
    for i, p in enumerate(polys):
        for j, q in enumerate(polys):
            value = weighted_inner_product(p, q).rational_part
            if i == j:
                assert value > 0
            else:
                assert value == 0


# ---- verdict helpers ----


def test_is_caloric_on_printed_examples():
    n2d3 = parse_poly("150*t*(3*x + y) + 27*x^3 + 267*x^2*y + 144*x*y^2 - 64*y^3", 2)
    assert is_caloric(n2d3)
    bad = parse_poly("t + x^2", 1)
    verdict = is_caloric(bad)
    assert not verdict and verdict.reason == "heat_residual"
    assert verdict.residual == Polynomial.constant(1, -1)
    inhom = is_caloric(parse_poly("t + x", 1))
    assert not inhom and inhom.reason == "not_homogeneous"


def test_chain_check_p4():
    report = chain_check(basic_hcp(4))
    assert report and report.top_index == 2
    assert report.level_ok == (True, True, True)


def test_chain_check_purely_spatial():
    assert chain_check(parse_poly("x^2 - y^2", 2))  # harmonic
    failing = chain_check(parse_poly("x^2", 2))
    assert not failing and failing.first_failing_level == 0


def test_chain_check_on_high_dim_example():
    p = parse_poly("12*t^2 + 12*t*x^2 + x^4 + y^4 - 6*y^2*z^2 + z^4", 3)
    assert chain_check(p)


def test_eigen_check_degree_two_by_hand():
    # v = x^2/2 - 1: lap v = 1, x.grad v = x^2, 1 - x^2/2 + (x^2/2 - 1) = 0
    assert eigen_check(basic_hcp(2))


def test_eigen_check_constant():
    assert eigen_check(Polynomial.constant(1, 7))


def test_eigen_check_degree_four_example():
    p = parse_poly(
        "7500*t^2 + 150*t*(37*x^2 - 7*x*y + 13*y^2)"
        " + 192*x^4 + 176*x^3*y + 1623*x^2*y^2 - 351*x*y^3 - 108*y^4",
        2,
    )
    assert eigen_check(p)


def test_eigen_check_reports_residual():
    result = eigen_check(parse_poly("x^2", 1))  # not caloric; identity must fail
    assert not result and "residual" in result.detail


# ---- numeric factorization ----


def test_parabola_factors_degree_two():
    factors = parabola_factors(2)
    assert factors.leading_factor is None
    assert factors.coefficients[0] == pytest.approx(0.5, abs=1e-12)


def test_parabola_factors_degree_three():
    factors = parabola_factors(3)
    assert factors.leading_factor == "x"
    assert factors.coefficients[0] == pytest.approx(1 / 6, abs=1e-12)


def test_parabola_factors_degree_four_roots_of_quadratic():
    # coefficients solve b^2 - b + 1/12 = 0, i.e. b = (3 +- sqrt(6)) / 6
    lo, hi = parabola_factors(4).coefficients
    assert lo == pytest.approx((3 - math.sqrt(6)) / 6, abs=1e-12)
    assert hi == pytest.approx((3 + math.sqrt(6)) / 6, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_parabola_reconstruction_error(d):
    assert parabola_factors(d).reconstruction_error < 1e-10


def test_parabola_factors_needs_degree_two():
    with pytest.raises(ValueError):
        parabola_factors(1)


def test_interlacing_pair_three_four():
    # factor of p_3 is 1/6; factors of p_4 are ~0.0918 and ~0.9082
    assert interlacing_check(4)
    lo, hi = parabola_factors(4).coefficients
    mid = parabola_factors(3).coefficients[0]
    assert lo < mid < hi


def test_interlacing_needs_a_pair():
    with pytest.raises(ValueError):
        interlacing_check(3)


def test_interlacing_pair_five_six():
    assert interlacing_check(6)


@pytest.mark.parametrize("d", range(4, 17))
def test_interlacing_all_consecutive_pairs(d):
    assert interlacing_check(d)


# ---- weighted inner products ----


@pytest.mark.parametrize("m", range(0, 9))
def test_moment_formula_against_quadrature(m):
    """The closed-form even moments match adaptive quadrature to 10 digits."""
    exact = float(gaussian_moment_rational(m)) * math.sqrt(math.pi)
    numeric, _ = quad(lambda x: x ** (2 * m) * math.exp(-x * x / 4), -math.inf, math.inf)
    assert numeric == pytest.approx(exact, rel=1e-10)


def test_inner_product_p1_p1():
    result = weighted_inner_product(basic_hcp(1), basic_hcp(1))
    assert result.rational_part == 4
    assert result.pi_half_power == 1
    assert result.to_json_dict() == {"rational": "4", "pi_half_power": 1}


def test_inner_product_odd_pairing_vanishes():
    assert weighted_inner_product(basic_hcp(1), basic_hcp(2)).rational_part == 0


def test_inner_product_distinct_multi_indices():
    result = weighted_inner_product(product_hcp([2, 0]), product_hcp([0, 2]))
    assert result.rational_part == 0
    assert result.pi_half_power == 2


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=60)
def test_inner_product_orthogonality_property(a1, a2, b1, b2):
    left = product_hcp([a1, a2])
    right = product_hcp([b1, b2])
    value = weighted_inner_product(left, right).rational_part
    if (a1, a2) == (b1, b2):
        assert value > 0
    else:
        assert value == 0


# ---- chain and eigen over whole bases ----


@pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3)])
def test_chain_and_eigen_on_basis_samples(n, d):
    for p in basis(n, d):
        assert chain_check(p)
        assert eigen_check(p)


@given(st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=40)
def test_two_variable_products_are_caloric(a, b):
    assert heat_apply(product_hcp([a, b])).is_zero


def test_every_product_up_to_total_degree_ten_is_caloric():
    for n in (1, 2, 3):
        for alpha in _all_multi_indices(n, 10):
            assert heat_apply(product_hcp(alpha)).is_zero


def _all_multi_indices(n, max_total):
    if n == 1:
        return [(total,) for total in range(max_total + 1)]
    out = []
    for first in range(max_total + 1):
        for rest in _all_multi_indices(n - 1, max_total - first):
            out.append((first,) + rest)
    return out
