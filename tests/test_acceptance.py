"""Acceptance suite: one test per criterion, each printing a PASS line.

Every nodal count performed here is also pushed through the proven-bounds
gate (minimum of two domains by the mean-value property, Courant-type
binomial ceiling), so a counting regression anywhere trips the suite.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from calorics import (
    ConstructionSpec,
    basic_hcp,
    basis,
    bounds_report,
    chain_check,
    cluster_count,
    eigen_check,
    export_nodal_pointcloud,
    fixture,
    heat_apply,
    hermite_relation_check,
    interlacing_check,
    lewy_2mod4,
    nodal_count,
    odd_construction,
    parabola_factors,
    parabolic_degree,
    product_hcp,
    product_lower,
    scan_epsilon,
    slice_count,
    sphere_grid_count,
    weighted_inner_product,
    zero_mod4,
)
from calorics.caloric import gaussian_moment_rational
from calorics.nodal import MAX_COUNT_DEGREE


def _counted(p, schedule=None):
    """Count and enforce the suite-wide bound 2 <= N <= C(n+d, n)."""
    report = nodal_count(p, schedule)
    d = parabolic_degree(p)
    bounds_report(p.spatial_dim, d, report)
    assert report.total >= 2
    return report


def test_criterion_1_exact_identity_suite():
    for d in range(21):
        assert heat_apply(basic_hcp(d)).is_zero
        assert hermite_relation_check(d)
    for n in (1, 2, 3):
        for d in range(7):
            for p in basis(n, d):
                assert chain_check(p)
                assert eigen_check(p)
    print("ACCEPTANCE 1 exact identity suite (heat kernel, Hermite relation, chain, eigen): PASS")


def test_criterion_2_dimension_count():
    for n in range(1, 5):
        for d in range(9):
            assert len(basis(n, d)) == math.comb(n - 1 + d, n - 1)
    print("ACCEPTANCE 2 basis dimension C(n-1+d, n-1) for n <= 4, d <= 8: PASS")


def test_criterion_3_orthogonality_with_quadrature_oracle():
    # oracle first: the closed-form moments against adaptive quadrature
    for m in range(9):
        exact = float(gaussian_moment_rational(m)) * math.sqrt(math.pi)
        numeric, _ = quad(
            lambda x: x ** (2 * m) * math.exp(-x * x / 4), -math.inf, math.inf
        )
        assert numeric == pytest.approx(exact, rel=1e-10)
    indices = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]
    for alpha in indices:
        for beta in indices:
            value = weighted_inner_product(product_hcp(alpha), product_hcp(beta))
            if alpha == beta:
                assert value.rational_part > 0
            else:
                assert value.rational_part == 0
    print("ACCEPTANCE 3 weighted orthogonality (exact) + moment quadrature oracle (10 digits): PASS")


def test_criterion_4_one_dimensional_counts():
    for d in range(2, MAX_COUNT_DEGREE + 1):
        report = _counted(basic_hcp(d))
        half = math.ceil(d / 2)
        assert (report.positive, report.negative, report.stable) == (half, half, True)
        assert report.method == "cube-loop"
    print(f"ACCEPTANCE 4 one-variable counts 2*ceil(d/2) for d = 2..{MAX_COUNT_DEGREE}, exact: PASS")


def test_criterion_5_printed_fixture_counts():
    expectations = [
        ("n2d3", 2),
        ("n2d4", 3),
        ("n3d4", 2),
        ("deg2", 2),
        ("prod_n2d4", 6),
    ]
    for fid, expected in expectations:
        report = _counted(fixture(fid))
        assert report.stable, f"{fid} did not stabilize"
        assert report.total == expected, f"{fid}: {report.total} != {expected}"
    print("ACCEPTANCE 5 fixture counts (2, 3, 2, 2, 6) at default schedules, stable: PASS")


def test_criterion_6_figure_reproductions(tmp_path):
    lewy = lewy_2mod4(6, F(1, 20))
    assert _counted(lewy).total == 2
    odd = odd_construction(5, F(3, 10), math.pi / 10)
    assert _counted(odd).total == 2
    zm4 = zero_mod4(4, F(1, 5), math.pi / 10)
    assert _counted(zm4).total == 3

    for name, poly, delta in (("lewy", lewy, 0.05), ("odd", odd, 0.1)):
        points = export_nodal_pointcloud(poly, 256, delta, str(tmp_path / f"{name}.csv"))
        assert points, f"{name} cloud is empty"
    zm4_points = export_nodal_pointcloud(zm4, 256, 0.1, str(tmp_path / "zm4.csv"))
    assert zm4_points
    assert cluster_count(zm4_points, 0.05) == 2
    print("ACCEPTANCE 6 gallery reproductions (2, 2, 3) + annulus clouds, two clusters: PASS")


def test_criterion_7_scale_match_of_integer_examples():
    u3 = odd_construction(3, 1, (F(3, 5), F(4, 5)))
    n2d3 = fixture("n2d3")
    ev, coeff = u3.canonical_terms()[0]
    scale3 = n2d3.terms[ev] / coeff
    assert u3.scale(scale3) == n2d3

    u4 = zero_mod4(4, F(1, 2), (F(3, 5), F(4, 5)))
    n2d4 = fixture("n2d4")
    ev, coeff = u4.canonical_terms()[0]
    scale4 = n2d4.terms[ev] / coeff
    assert u4.scale(scale4) == n2d4
    print(
        "ACCEPTANCE 7 integer examples are exact rational multiples "
        f"(scales {scale3} and {scale4}): PASS"
    )


def test_criterion_8_bound_enforcement():
    # product-family floor bound at the stated (n, d) pairs
    schedules = {
        (2, 4): None,
        (2, 5): (96, 128, 256),
        (2, 6): None,
        (2, 8): None,
        (3, 6): None,
    }
    for (n, d), schedule in schedules.items():
        report = _counted(product_lower(n, d), schedule)
        assert report.total >= (d // n) ** n, f"product({n},{d}) broke the floor bound"

    # slice bound wherever the caveat flag is clear
    for fid in ("deg2", "basic_3", "basic_4", "basic_6", "n2d3", "n2d4", "n3d4"):
        p = fixture(fid)
        resolution = 64 if p.spatial_dim == 3 else 512
        sliced = slice_count(p, None if p.spatial_dim == 1 else 4, resolution)
        if sliced.caveat:
            continue
        schedule = (24, 48, 96) if p.spatial_dim == 3 else None
        assert nodal_count(p, schedule).total <= sliced.total, f"{fid} broke the slice bound"
    print("ACCEPTANCE 8 floor bound on products, ceiling and slice bounds on every count: PASS")


def test_criterion_9_factorization_and_interlacing():
    for d in range(2, 17):
        assert parabola_factors(d).reconstruction_error < 1e-10
    for d in range(4, 17):
        assert interlacing_check(d)
    print("ACCEPTANCE 9 parabola factor reconstruction < 1e-10 and interlacing to d = 16: PASS")


def test_criterion_10_cross_section_oracle():
    for fid in ("n2d3", "n2d4", "prod_n2d4"):
        p = fixture(fid)
        cube = nodal_count(p)
        sphere = sphere_grid_count(p, 256)
        assert (cube.total, cube.positive, cube.negative) == (
            sphere.total,
            sphere.positive,
            sphere.negative,
        ), f"{fid}: cube and sphere counts disagree"
    print("ACCEPTANCE 10 cube-exact counts equal spherical float-grid counts: PASS")


def test_epsilon_scan_finds_admissible_values():
    """Scan behavior backing the admissibility workflow (not a numbered criterion)."""
    spec = ConstructionSpec("lewy", d=6, epsilon=F(1, 20))
    result = scan_epsilon(spec, [F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 64)], target=2)
    assert result.largest_admissible is not None
    assert F(1, 16) in result.admissible  # the gallery value 1/20 sits in this range
    print(f"SCAN lewy d=6: admissible epsilons {[str(e) for e in result.admissible]}: PASS")


def test_epsilon_scan_degree_eight_zero_mod_4():
    """Degree-8 construction: a small rotation exposes an admissible epsilon.

    The default (3/5, 4/5) rotation is far too coarse an angle for d = 8; an
    exact pair at about 15 degrees in the mirror orientation stabilizes at
    the target three domains once the finest grid resolves the curve gaps.
    """
    spec = ConstructionSpec("zero_mod_4", d=8, rotation=(F(221, 229), F(-60, 229)))
    result = scan_epsilon(spec, [F(1, 4)], target=3, schedule=[512, 640, 768])
    assert result.largest_admissible == F(1, 4)
    print("SCAN zero_mod_4 d=8: epsilon 1/4 admissible at rotation ~15 degrees: PASS")
