"""Cross-section sampling, component counting, slices, polar data, bounds."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calorics import (
    BoundViolation,
    Polynomial,
    basic_hcp,
    bounds_report,
    cluster_count,
    count_components,
    cube_section_sample,
    fixture,
    harmonic_2d,
    nodal_count,
    parse_poly,
    polar_chambers,
    slice_count,
    sphere_grid_count,
    export_nodal_pointcloud,
    zero_mod4,
)
from calorics.nodal import NodalError, UnresolvedSign, _eighth_signs, _sign_mesh, _sturm_count
from calorics.polyring import NotHomogeneous
from conftest import homogeneous_polynomials


def _negate_spatial(p):
    terms = {ev: (-1) ** sum(ev.space_exps) * c for ev, c in p.terms.items()}
    return Polynomial(p.spatial_dim, terms)


# ---- exact sign evaluation ----


def test_sign_mesh_matches_exact_evaluation():
    p = fixture("n2d3")
    nums = np.array([-3, -1, 1, 3], dtype=np.int64)
    signs = _sign_mesh(p, [nums, nums, 4], 4)
    for i, mx in enumerate(nums):
        for j, my in enumerate(nums):
            value = p.evaluate((F(int(mx), 4), F(int(my), 4), 1))
            expected = (value > 0) - (value < 0)
            assert signs[i, j] == expected


def test_sign_mesh_detects_exact_zeros():
    p = parse_poly("x", 1)
    nums = np.array([-2, 0, 2], dtype=np.int64)
    signs = _sign_mesh(p, [nums, 3], 3)
    assert list(signs) == [-1, 0, 1]


def test_sign_mesh_resolves_an_exact_zero_on_a_point_mesh():
    # n = 1 stitch paths fix both axes; (x^2 + t)^2 vanishes at the cube
    # corner (1, -1), between two positive cells of the adjacent faces
    p = parse_poly("(x^2 + t)^2", 1)
    assert _sign_mesh(p, [8, -8], 8) == 0
    report = nodal_count(p, [8, 16, 32])
    assert (report.total, report.positive, report.negative) == (2, 2, 0)


def test_sign_mesh_certifies_huge_coefficient_cancellation():
    # (10^20 x - 1)(10^20 x + 1) has a sign dip invisible to naive float sums
    big = 10 ** 20
    p = parse_poly(f"{big * big}*x^2 - 1", 1)
    nums = np.array([0], dtype=np.int64)
    assert _sign_mesh(p, [nums, 1], 1)[0] == -1


def test_sign_mesh_rejects_float_overflow():
    # terms of this degree-16 input overflow to inf on these cells; an
    # inf - inf must not become a sign
    p = zero_mod4(16, F(1, 4), rotation=0.2)
    nums = np.array([-1023, -512, 0, 511, 1023], dtype=np.int64)
    with pytest.raises(NodalError, match="degree 16"):
        _sign_mesh(p, [nums, nums, 1024], 1024)


def _coordinate(n, axis):
    return Polynomial.variable(n, axis) if axis < n else Polynomial.time(n)


def _exact_sign(p, point):
    value = p.evaluate(point)
    return (value > 0) - (value < 0)


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=40, deadline=None)
def test_exact_signs_match_exact_evaluation(p, data):
    n = p.spatial_dim
    ambient = n + 1
    resolution = data.draw(st.integers(min_value=2, max_value=6))
    # cube grids use denominator r, or 6r once jittered
    den = resolution * data.draw(st.sampled_from([1, 6]))
    nums = st.lists(st.integers(-den, den), min_size=2, max_size=3)
    axis_values = [np.array(data.draw(nums), dtype=np.int64) for _ in range(ambient)]
    # faces fix one axis at +-den, stitch paths fix two, the slice fixes t = 0;
    # two fixed axes can send distinct terms to one monomial of the rest
    fixed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=ambient - 1),
            min_size=1,
            max_size=min(2, ambient - 1),
            unique=True,
        )
    )
    for axis in fixed:
        axis_values[axis] = data.draw(st.sampled_from([-den, 0, den]))
    varying = [axis for axis in range(ambient) if axis not in fixed]
    if data.draw(st.booleans()):
        # a huge term that cancels exactly on the mesh line x_a = m / den
        a, f = varying[0], fixed[0]
        line = _coordinate(n, a).scale(axis_values[f]) - _coordinate(n, f).scale(
            int(axis_values[a][0])
        )
        p = p + (line * line).scale(10 ** 20)

    def mesh_point(cell):
        point = [F(int(v), den) if axis in fixed else None for axis, v in enumerate(axis_values)]
        for axis, i in zip(varying, cell):
            point[axis] = F(int(axis_values[axis][i]), den)
        return point

    signs = _sign_mesh(p, axis_values, den)
    assert signs.shape == tuple(len(axis_values[axis]) for axis in varying)
    for cell in itertools.product(*(range(size) for size in signs.shape)):
        assert signs[cell] == _exact_sign(p, mesh_point(cell))

    slot = data.draw(st.integers(min_value=0, max_value=len(varying) - 1))
    eighth = data.draw(st.integers(min_value=1, max_value=7))
    probed = _eighth_signs(p, axis_values, den, varying[slot], eighth)
    for cell in itertools.product(*(range(size) for size in probed.shape)):
        point = mesh_point(cell)
        lo, hi = (int(m) for m in axis_values[varying[slot]][cell[slot] : cell[slot] + 2])
        point[varying[slot]] = F(lo, den) + F(eighth, 8) * F(hi - lo, den)
        assert probed[cell] == _exact_sign(p, point)


# ---- cube cross-section sampling ----


def test_sample_of_bare_time():
    p = parse_poly("t", 1)
    field = cube_section_sample(p, 4)
    # faces: (x-, x+, t-, t+); side faces split along the time axis
    assert np.array_equal(field.face_signs[3], np.ones(4, dtype=np.int8))
    assert np.array_equal(field.face_signs[2], -np.ones(4, dtype=np.int8))
    assert list(field.face_signs[0]) == [-1, -1, 1, 1]
    assert field.zero_cells == 0


def test_sample_antisymmetric_in_one_dimension():
    field = cube_section_sample(parse_poly("x", 1), 2)
    assert np.array_equal(field.face_signs[0], -field.face_signs[1])


def test_sample_requires_homogeneous_input():
    with pytest.raises(NotHomogeneous):
        cube_section_sample(parse_poly("t + x", 1), 8)


def test_sample_rejects_large_ambient_dimension():
    p = parse_poly("2*t + x1^2", 4)
    with pytest.raises(NodalError):
        cube_section_sample(p, 4)


def test_sample_degree_cap():
    with pytest.raises(NodalError, match="cap"):
        cube_section_sample(basic_hcp(66), 4)


def test_jitter_resamples_aligned_zero_sets():
    # x * t vanishes on two full coordinate planes; an odd resolution puts
    # cell centers exactly on them, forcing the jittered resample
    p = parse_poly("x*t", 1)
    field = cube_section_sample(p, 9)
    assert field.grid.jittered
    assert field.zero_cell_fraction <= 1e-3


def test_spatial_parity_in_one_dimension():
    p = basic_hcp(5)
    assert _negate_spatial(p) == p.scale(-1)  # odd in x
    field = cube_section_sample(p, 16)
    # x-faces swap and negate; t-faces reverse and negate
    assert np.array_equal(field.face_signs[0], -field.face_signs[1])
    assert np.array_equal(field.face_signs[2][::-1], -field.face_signs[2])
    assert np.array_equal(field.face_signs[3][::-1], -field.face_signs[3])


def test_spatial_parity_in_two_dimensions():
    p = fixture("n2d3")
    assert _negate_spatial(p) == p.scale(-1)
    field = cube_section_sample(p, 16)
    # sign(-x, -y, t) = -sign(x, y, t): x-faces pair up under y-reversal
    assert np.array_equal(field.face_signs[0][::-1, :], -field.face_signs[1])
    assert np.array_equal(field.face_signs[2][::-1, :], -field.face_signs[3])
    for face in (4, 5):  # t-faces map to themselves
        reversed_both = field.face_signs[face][::-1, ::-1]
        assert np.array_equal(reversed_both, -field.face_signs[face])


# ---- component counting ----


def test_count_two_domains_in_two_space_variables():
    field = cube_section_sample(fixture("deg2_n2_j1"), 32)
    report = count_components(field)
    assert (report.total, report.positive, report.negative) == (2, 1, 1)


def test_count_constant_sign_field():
    p = parse_poly("x^2 + y^2", 2)  # nonnegative; zero only on a line
    report = count_components(cube_section_sample(p, 32))
    assert (report.total, report.positive, report.negative) == (1, 1, 0)


def test_count_degree_four_in_one_dimension():
    report = count_components(cube_section_sample(basic_hcp(4), 64))
    assert report.total == 4


def test_nodal_count_schedule_validation():
    p = fixture("deg2")
    with pytest.raises(NodalError):
        nodal_count(p, [16, 32])
    with pytest.raises(NodalError):
        nodal_count(p, [32, 32, 64])


def test_nodal_count_report_shape():
    report = nodal_count(fixture("deg2"), [16, 32, 64])
    assert report.stable
    assert report.resolutions_used == (16, 32, 64)
    data = report.to_json_dict()
    assert data["method"] == "cube-exact"
    assert data["total"] == 2


def _corpus_polynomial(name):
    if name == "x*y*t":
        return parse_poly(name, 2)
    if name.startswith("hcp"):
        return basic_hcp(int(name[3:]))
    return fixture(name)


# Under-resolved counts depend on how probe-cut edges and cross-face
# stitches combine, so they pin the labeling itself, not only its limit.
@pytest.mark.parametrize(
    "name, resolution, expected",
    [
        ("n2d4", 4, (1, 4)),
        ("n2d4", 8, (1, 4)),
        ("n2d4", 12, (1, 4)),
        ("n2d4", 16, (1, 2)),
        ("prod_n2d4", 5, (2, 4)),  # needs the cross-face stitch probes
        ("prod_n2d4", 8, (2, 4)),
        ("n3d4", 8, (1, 1)),
        ("hcp8", 8, (4, 2)),
        ("hcp8", 16, (2, 4)),
        ("hcp8", 32, (4, 4)),
        ("hcp16", 8, (2, 4)),
        ("hcp16", 16, (6, 2)),
        ("hcp16", 32, (4, 6)),
        ("x*y*t", 9, (4, 4)),
    ],
)
def test_single_resolution_counts_are_pinned(name, resolution, expected):
    field = cube_section_sample(_corpus_polynomial(name), resolution)
    if name == "x*y*t":  # cell centers on the coordinate planes force a jitter
        assert field.grid.jittered
    report = count_components(field)
    assert (report.positive, report.negative) == expected


def test_mean_value_consequence_every_caloric_fixture_has_two_domains():
    for fid in ["deg2", "n2d3", "basic_3"]:
        report = nodal_count(fixture(fid), [24, 48, 96])
        assert report.total >= 2


# ---- exact root counting ----


def _coeffs_with_roots(roots):
    """Coefficients, lowest degree first, of prod (x - r)^m over (r, m) pairs."""
    coeffs = [F(1)]
    for root, multiplicity in roots:
        for _ in range(multiplicity):
            shifted = [F(0)] + coeffs
            coeffs = [hi - root * lo for hi, lo in zip(shifted, coeffs + [F(0)])]
    return coeffs


@pytest.mark.parametrize(
    "roots",
    [
        ((0, 2),),
        ((0, 3),),
        ((2, 2), (-2, 2)),
        ((1, 1),),
        ((-3, 1), (1, 2)),
        ((-1, 2), (0, 1), (3, 2)),
        ((-2, 1), (-1, 1), (1, 1), (2, 1)),
        ((-3, 2), (-1, 2), (2, 2), (3, 2)),
    ],
)
def test_sturm_counts_distinct_roots_with_multiplicity(roots):
    coeffs = _coeffs_with_roots(roots)
    assert _sturm_count(coeffs, None, None) == len(roots)
    lo, hi = F(-5, 2), F(1, 2)
    assert _sturm_count(coeffs, lo, hi) == sum(1 for r, _ in roots if lo < r <= hi)


# ---- slice diagnostic ----


def test_slice_of_degree_four():
    report = slice_count(basic_hcp(4), 4)
    assert report.total == 5
    assert not report.caveat
    assert nodal_count(basic_hcp(4), [32, 64, 128]).total <= report.total


def test_slice_of_deg2():
    report = slice_count(fixture("deg2"))
    assert report.total == 3  # roots at +-sqrt(2)
    assert not report.caveat


def test_slice_of_constant():
    report = slice_count(Polynomial.constant(2, 5), 2, 32)
    assert report.total == 1
    assert not report.caveat


def test_slice_caveat_on_escaping_box():
    # roots of p_4(x, -1) sit near +-3.3; a box of half-width 2 misses them
    report = slice_count(basic_hcp(4), 2)
    assert report.caveat


@pytest.mark.parametrize("name, expected", [("n2d4", (3, 2)), ("prod_n2d4", (5, 4))])
def test_slice_caveat_when_same_sign_components_touch_the_box(name, expected):
    report = slice_count(fixture(name), 2, 24)
    assert (report.positive, report.negative) == expected
    assert report.caveat


def test_slice_caveat_clear_for_a_double_root_pair():
    # (x^2 - 4)^2 at t = -1: the box holds both double roots
    assert slice_count(parse_poly("(x^2+4*t)^2", 1), 3, 64).caveat is False


def test_slice_high_dim_fixture_is_clean():
    report = slice_count(fixture("n3d4"), 4, 64)
    assert report.total == 2
    assert not report.caveat


# ---- polar chambers ----


def test_polar_chambers_of_sextic_harmonic():
    psi = harmonic_2d(6, "imag_part")
    report = polar_chambers(psi, "north", 0.1)
    assert report.sign_changes == 12
    assert report.n_plus == 6


def test_polar_chambers_positive_cap():
    report = polar_chambers(fixture("n2d4"), "north", 0.1)
    assert report.sign_changes == 0
    assert report.n_plus == 1


def test_polar_chambers_single_line():
    report = polar_chambers(parse_poly("y", 2), "south", 0.3)
    assert report.sign_changes == 2
    assert report.n_plus == 1


def test_polar_chambers_guard_refinement():
    # samples land exactly on the zero set of y; refinement shifts off it
    report = polar_chambers(parse_poly("y", 2), "north", 0.5, samples=64)
    assert report.sign_changes == 2


def test_polar_chambers_preconditions():
    with pytest.raises(NodalError):
        polar_chambers(parse_poly("x", 1))
    with pytest.raises(NodalError):
        polar_chambers(parse_poly("y", 2), rho=1.5)
    with pytest.raises(NodalError):
        polar_chambers(fixture("n2d4"), samples=8)


def test_polar_chambers_refuses_to_guess_unresolvable_signs():
    # every value of this polynomial on the circle sits inside the guard band
    tiny = Polynomial(2, {(0, (0, 1)): F(1, 10 ** 20)})
    with pytest.raises(UnresolvedSign):
        polar_chambers(tiny, "north", 0.1, samples=16)


# ---- export and clustering ----


def test_export_constant_yields_empty_cloud(tmp_csv):
    points = export_nodal_pointcloud(Polynomial.constant(2, 1), 32, 0.1, tmp_csv)
    assert points == []
    with open(tmp_csv) as handle:
        assert handle.read() == "x,y,t\n"


def test_export_writes_annulus_points(tmp_csv):
    p = fixture("deg2_n2_j1")
    points = export_nodal_pointcloud(p, 64, 0.2, tmp_csv)
    assert points
    for x, y, t in points:
        radius = math.sqrt(x * x + y * y + t * t)
        assert 0.8 - 1e-9 <= radius <= 1.0 + 1e-9
    with open(tmp_csv) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "x,y,t"
    assert len(lines) == len(points) + 1
    first = [float(part) for part in lines[1].split(",")]
    assert first == pytest.approx(list(points[0]), abs=0.0)


def test_cluster_count_simple():
    blob_a = [(0.0, 0.0, 0.0), (0.01, 0.0, 0.0), (0.02, 0.01, 0.0)]
    blob_b = [(1.0, 1.0, 1.0), (1.01, 1.0, 1.0)]
    assert cluster_count(blob_a + blob_b, 0.05) == 2
    assert cluster_count([], 0.05) == 0
    # edges join points strictly closer than gap
    assert cluster_count([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], 0.5) == 2


# ---- bounds ----


def test_bounds_two_eight():
    report = bounds_report(2, 8)
    assert report.min_count == 3
    assert report.product_lower_bound == 16
    assert report.courant_upper_bound == 45


def test_bounds_one_five_min_equals_max():
    report = bounds_report(1, 5)
    assert report.min_count == 6
    assert report.courant_upper_bound == 6


def test_bounds_three_seven():
    assert bounds_report(3, 7).min_count == 2


def test_bounds_violation_raises():
    with pytest.raises(BoundViolation):
        bounds_report(2, 4, 1)  # below the minimum of 3
    with pytest.raises(BoundViolation):
        bounds_report(1, 3, 7)  # above C(4, 1) = 4


def test_bounds_accept_component_report():
    report = nodal_count(fixture("deg2"), [16, 32, 64])
    bounds_report(1, 2, report)


# ---- spherical oracle ----


def test_sphere_oracle_matches_cube_on_two_domain_fixture():
    p = fixture("deg2_n2_j1")
    cube = nodal_count(p, [32, 64, 128])
    sphere = sphere_grid_count(p, 96)
    assert (cube.total, cube.positive, cube.negative) == (
        sphere.total,
        sphere.positive,
        sphere.negative,
    )
    assert sphere.method == "sphere-float"


@pytest.mark.parametrize("resolution, expected", [(8, (1, 2)), (16, (1, 4)), (32, (1, 2))])
def test_sphere_oracle_pinned_counts(resolution, expected):
    report = sphere_grid_count(fixture("n2d4"), resolution)
    assert (report.positive, report.negative) == expected
