"""Cross-section sampling, component counting, slices, bounds."""

import hashlib
import itertools
import math
from dataclasses import replace
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
    count_components,
    cube_section_sample,
    embed,
    fixture,
    high_dim,
    lewy_2mod4,
    nodal_count,
    odd_construction,
    parse_poly,
    product_count,
    product_hcp,
    product_lower,
    rotate_xy,
    slice_count,
    sphere_grid_count,
    export_nodal_pointcloud,
    zero_mod4,
)
from calorics import nodal
from calorics.nodal import (
    NodalError,
    _components,
    _contract,
    _exact_line,
    _FLOAT_EPS,
    _integer_scaled_terms,
    _kappa,
    _MeshForm,
    _probed_runs,
    _reflection_signs,
    _sign_split,
    _sphere_values,
    _sturm_count,
)
from calorics.polyring import NotHomogeneous, parabolic_degree
from calorics.univariate import sign_arcs
from conftest import _scipy_components, homogeneous_polynomials, negate_space, pythagorean_pairs, reflect_space


# ---- exact sign evaluation ----


def _form(p, faces, den):
    """The _MeshForm of p on the meshes `faces` (axis values over den), stacked on a face axis."""
    return _MeshForm(_integer_scaled_terms(p, den), faces)


def test_sign_mesh_matches_exact_evaluation():
    p = fixture("n2d3")
    nums = np.array([-3, -1, 1, 3], dtype=np.int64)
    signs = _form(p, [[nums, nums, 4]], 4).signs()[0]
    for i, mx in enumerate(nums):
        for j, my in enumerate(nums):
            value = p.evaluate((F(int(mx), 4), F(int(my), 4), 1))
            expected = (value > 0) - (value < 0)
            assert signs[i, j] == expected


def test_sign_mesh_detects_exact_zeros():
    p = parse_poly("x", 1)
    nums = np.array([-2, 0, 2], dtype=np.int64)
    signs = _form(p, [[nums, 3]], 3).signs()[0]
    assert list(signs) == [-1, 0, 1]


def test_sign_mesh_resolves_an_exact_zero_on_a_point_mesh():
    # (x^2 + t)^2 vanishes at the cube corner (1, -1), between two positive
    # cells of the adjacent faces, so the stitch of the n = 1 grid across
    # that corner must not merge them
    p = parse_poly("(x^2 + t)^2", 1)
    for resolution in (8, 16, 32):
        report = count_components(cube_section_sample(p, resolution))
        assert (report.total, report.positive, report.negative) == (2, 2, 0)


def test_sign_mesh_certifies_huge_coefficient_cancellation():
    # (10^20 x - 1)(10^20 x + 1) has a sign dip invisible to naive float sums
    big = 10 ** 20
    p = parse_poly(f"{big * big}*x^2 - 1", 1)
    nums = np.array([0], dtype=np.int64)
    assert _form(p, [[nums, 1]], 1).signs()[0, 0] == -1


def test_sign_mesh_rejects_float_overflow():
    # terms of this degree-16 input overflow to inf on these cells; an
    # inf - inf must not become a sign
    p = zero_mod4(16, F(1, 4), rotation=0.2)
    nums = np.array([-1023, -512, 0, 511, 1023], dtype=np.int64)
    with pytest.raises(NodalError, match="degree 16"):
        _form(p, [[nums, nums, 1024]], 1024).signs()


def _coordinate(n, axis):
    return Polynomial.variable(n, axis) if axis < n else Polynomial.time(n)


def _exact_sign(p, point):
    value = p.evaluate(point)
    return (value > 0) - (value < 0)


def _restriction(p, start, end):
    """Exact coefficients, lowest first, of s -> p(start + s (end - start)).

    Interpolation at s = 0..degree, independent of the module's own forms.
    """
    degree = p.algebraic_degree()
    nodes = [F(s) for s in range(degree + 1)]
    values = [p.evaluate([u + s * (v - u) for u, v in zip(start, end)]) for s in nodes]
    coeffs = [F(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        basis, scale = [F(1)], F(1)
        for j, xj in enumerate(nodes):
            if j != i:
                basis = [lo - xj * hi for lo, hi in zip([F(0)] + basis, basis + [F(0)])]
                scale *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / scale
    return coeffs


def _assert_root_free_decision(p, faces, den, axis):
    """The merge mask along `axis` of the stack `faces` against exact Sturm counts on each segment.

    An edge merges exactly when both ends share a nonzero sign and the exact
    restriction of p to the segment between them has no root.  The faces
    vary the same axes.
    """
    form = _form(p, faces, den)
    signs = form.signs()
    slot = form.varying.index(axis)
    merged = form.merge_masks(signs, {}, rim=False)[slot]
    varying = form.varying
    for face, *cell in itertools.product(*(range(size) for size in merged.shape)):
        ends = []
        for step in (0, 1):
            at = dict(zip(varying, cell))
            at[axis] += step
            ends.append(
                [F(int(v[at[i]]) if i in at else int(v), den) for i, v in enumerate(faces[face])]
            )
        near, far = _exact_sign(p, ends[0]), _exact_sign(p, ends[1])
        line = _restriction(p, *ends)
        expected = near == far != 0 and _sturm_count(line, F(0), F(1)) == 0
        assert merged[(face, *cell)] == expected, (face, cell, line)


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=40, deadline=None)
def test_exact_signs_match_exact_evaluation(p, data):
    n = p.spatial_dim
    ambient = n + 1
    resolution = data.draw(st.integers(min_value=2, max_value=6))
    # cube grids use denominator r; 6r leaves room for numerators off the grid
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

    # a stack of 1-3 faces that fix the first fixed axis at distinct values,
    # as the cube's faces do; a face where a term vanishes is padded with
    # zeros at exponents only the others have
    f = fixed[0]
    shared = data.draw(st.lists(st.sampled_from([-den, 0, den]), max_size=2, unique=True))
    faces = []
    for value in [axis_values[f]] + [v for v in shared if v != axis_values[f]]:
        faces.append(list(axis_values))
        faces[-1][f] = value

    def mesh_point(values, cell):
        point = [F(int(v), den) if axis in fixed else None for axis, v in enumerate(values)]
        for axis, i in zip(varying, cell):
            point[axis] = F(int(values[axis][i]), den)
        return point

    # in-face edges: neighbouring numerators along one varying axis
    in_face = data.draw(st.sampled_from(varying))
    # a stitch leg: a fixed axis runs from a center to the cube edge
    leg = data.draw(st.sampled_from(fixed))
    leg_values = list(axis_values)
    leg_values[leg] = np.array(
        [data.draw(st.integers(-den, den)), data.draw(st.sampled_from([-den, den]))], dtype=np.int64
    )

    # the face-wide rounding bound of each face dominates the per-cell one
    # on every cell of that face
    form = _form(p, faces, den)
    beta = form._face_bound()
    if beta is not None and any(form.coeffs):  # P = 0 on every face makes no float pass
        assert (beta[:, None] >= form._cell_bound().reshape(len(faces), -1)).all()

    # every line along every mesh axis against its exact restriction, in
    # Fractions: |c~_j - c_j| <= kappa eps a_j with K = _roundings(skip=slot),
    # the premise of merge stages (b) and (c); a face where P = 0 has an
    # all-zero line.  The one table of _lines holds every axis's lines in
    # turn, each at every power 0 .. width - 1, zero where its axis lacks one
    slots = range(len(varying) if any(form.coeffs) else 0)
    width = max([2, *(form.powers[slot][-1] for slot in slots)]) + 1
    table = form._lines(slots, width)
    line = iter(table)
    for slot in slots:
        slack = F(_kappa(form._roundings(skip=slot))) * F(_FLOAT_EPS)
        others = varying[:slot] + varying[slot + 1:]
        shape = form.shape[:1 + slot] + form.shape[2 + slot:]
        for face, *point in itertools.product(*(range(size) for size in shape)):
            coeffs = form.coeffs[face]
            ms = [int(faces[face][axis][i]) for axis, i in zip(others, point)]
            exact = _exact_line(coeffs, slot, ms) if coeffs else ()
            approx, sizes = next(line)
            for e in range(width):
                c = exact[e] if e < len(exact) else 0
                assert abs(F(approx[e]) - c) <= slack * F(sizes[e]), (face, point, e)
                assert e in form.powers[slot] or approx[e] == sizes[e] == 0, (face, point, e)
    assert next(line, None) is None

    # every draw through both tiers of the rounding certificate: the
    # face-wide tier where it certifies every cell, and the per-cell tier
    # alone, as when S_f overflows
    for per_cell in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if per_cell:
                patch.setattr(_MeshForm, "_face_bound", lambda form: None)
            signs = _form(p, faces, den).signs()
            assert signs.shape == (len(faces),) + tuple(len(axis_values[axis]) for axis in varying)
            for face, *cell in itertools.product(*(range(size) for size in signs.shape)):
                assert signs[(face, *cell)] == _exact_sign(p, mesh_point(faces[face], cell))
            _assert_root_free_decision(p, faces, den, in_face)
            _assert_root_free_decision(p, [leg_values], den, leg)

    if data.draw(st.booleans(), label="every cell exact"):
        # the exact fallback alone, one batch per face, on a stack of 1-3
        # faces that fix different axes over one numerator array, as a cube
        # group's faces do: a finite per-cell bound above every |v| leaves
        # every cell uncertain
        mesh = axis_values[varying[0]]
        stack = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            fix = data.draw(st.sets(st.sampled_from(range(ambient)), min_size=len(fixed), max_size=len(fixed)))
            values = st.sampled_from([-den, 0, den])
            stack.append([data.draw(values) if axis in fix else mesh for axis in range(ambient)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_MeshForm, "_face_bound", lambda form: None)
            patch.setattr(_MeshForm, "_cell_bound", lambda form: np.abs(_contract(form.dense, form.columns)) + 1)
            form = _form(p, stack, den)
            signs = form.signs()
        assert form.floor is None or not (form.floor > 0).any()  # None: P = 0 on every face
        for face, *cell in itertools.product(*(range(size) for size in signs.shape)):
            index = iter(cell)
            point = [F(int(v[next(index)] if isinstance(v, np.ndarray) else v), den) for v in stack[face]]
            assert signs[(face, *cell)] == _exact_sign(p, point), (face, cell)


@st.composite
def _integer_lines(draw):
    """(p, numerators, denominator): p in x alone, sampled at x = numerators / denominator.

    Roots of p sit a hair inside an edge, anywhere inside one, or outside
    the mesh, with multiplicity 1 or 2; a factor (x - c)^2 + hair^2 makes a
    near-tangency with no real root, and a 10^20 term that cancels exactly
    at one mesh point (as in the sign test above) may be added.
    """
    den = draw(st.sampled_from([2, 3, 12, 96, 576]))
    nums = sorted(set(draw(st.lists(st.integers(-den, den), min_size=2, max_size=5))))
    if len(nums) < 2:
        nums = [-den, den]
    x = Polynomial.variable(1, 0)
    p = Polynomial.constant(1, draw(st.sampled_from([1, -1, 7, -3])))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(nums) - 2))
        lo, hi = F(nums[i], den), F(nums[i + 1], den)
        hair = F(1, 10 ** draw(st.integers(1, 15)))
        kind = draw(st.sampled_from(["near_lo", "near_hi", "inside", "outside"]))
        root = {
            "near_lo": lo + hair * (hi - lo),
            "near_hi": hi - hair * (hi - lo),
            "inside": lo + F(draw(st.integers(1, 99)), 100) * (hi - lo),
            "outside": F(nums[-1], den) + hair,
        }[kind]
        factor = x - Polynomial.constant(1, root)
        p = p * factor ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(nums) - 2))
        c = (F(nums[i], den) + F(nums[i + 1], den)) / 2
        hair = F(1, 10 ** draw(st.integers(1, 8)))
        shifted = x - Polynomial.constant(1, c)
        p = p * (shifted * shifted + Polynomial.constant(1, hair * hair))
    if draw(st.booleans()):
        m = F(draw(st.sampled_from(nums)), den)
        line = x - Polynomial.constant(1, m)
        p = p + (line * line).scale(10 ** 20)
    return p, np.array(nums, dtype=np.int64), den


@given(_integer_lines(), st.integers(-6, 6))
@settings(max_examples=300, deadline=None)
def test_root_free_decision_matches_sturm_on_integer_lines(line, t_num):
    # t does not occur in p, so any fixed t numerator gives the same line
    p, nums, den = line
    _assert_root_free_decision(p, [[nums, t_num]], den, 0)


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=60, deadline=None)
def test_chord_stages_alone_merge_only_root_free_edges(p, data):
    # With the Bernstein and Sturm stages stubbed to certify nothing, every
    # merge comes from one of the two chord tests and must be right.  One
    # draw in two adds a 10^20-scaled pair of roots a quarter step either
    # side of an edge's midpoint: its ends clear h^2 / 8 max |P''| / 2 but
    # not the true chord bound, so a halved threshold merges across them.
    n = p.spatial_dim
    ambient = n + 1
    resolution = data.draw(st.integers(min_value=2, max_value=6))
    den = resolution * data.draw(st.sampled_from([1, 6]))
    nums = st.lists(st.integers(-den, den), min_size=2, max_size=4)
    axis_values = [np.array(data.draw(nums), dtype=np.int64) for _ in range(ambient)]
    fixed = data.draw(st.integers(min_value=0, max_value=ambient - 1))
    axis_values[fixed] = data.draw(st.sampled_from([-den, 0, den]))
    axis = data.draw(st.sampled_from([a for a in range(ambient) if a != fixed]))
    if data.draw(st.booleans()):
        # a huge term that cancels exactly on a mesh line, as in the sign test
        other = data.draw(st.sampled_from([a for a in range(ambient) if a != axis]))
        value = axis_values[other] if other == fixed else int(axis_values[other][0])
        line = _coordinate(n, axis).scale(int(value)) - _coordinate(n, other).scale(
            int(axis_values[axis][0])
        )
        p = p + (line * line).scale(10 ** 20)
    if data.draw(st.booleans()):
        # roots at mid +- h / 4 of the first edge: (4 den x - 4 mid)^2 - h^2
        m0, m1 = (int(m) for m in axis_values[axis][:2])
        shifted = _coordinate(n, axis).scale(4 * den) - Polynomial.constant(n, 2 * (m0 + m1))
        p = p + (shifted * shifted - Polynomial.constant(n, (m1 - m0) ** 2)).scale(10 ** 20)

    def certify_nothing(coeffs, bounds):
        return np.zeros(len(coeffs), dtype=bool), np.zeros(len(coeffs), dtype=bool)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodal, "_bernstein_decide", certify_nothing)
        patch.setattr(nodal, "_sturm_count", lambda *args: 1)
        form = _form(p, [axis_values], den)
        signs = form.signs()
        slot = form.varying.index(axis)
        merged = form.merge_masks(signs, {}, rim=False)[slot][0]
    for cell in zip(*np.nonzero(merged)):
        ends = []
        for step in (0, 1):
            at = dict(zip(form.varying, cell))
            at[axis] += step
            ends.append([F(int(v[at[i]]) if i in at else int(v), den) for i, v in enumerate(axis_values)])
        assert _exact_sign(p, ends[0]) == _exact_sign(p, ends[1]) != 0
        assert _sturm_count(_restriction(p, *ends), F(0), F(1)) == 0, (cell, ends)


@pytest.mark.parametrize("face", range(6))
def test_rim_edges_skip_the_root_free_stages(monkeypatch, face):
    # On each side face of n3d4 at r = 6 (x, y, z = -1 or +1), the rim rule
    # changes no mask on an in-face edge or a stitch leg: only edges whose
    # cells lie on the first or last layer of another mesh axis are
    # skipped, and none of them reaches _root_free, while some do without it
    resolution = 6
    grid = nodal.CrossSectionGrid(4, resolution)
    form = _form(fixture("n3d4"), [nodal._face_values(grid, grid.mesh, face)], grid.denominator)
    signs = form.signs()
    root_free = _MeshForm._root_free
    reached = []

    def spy(self, edges, signs, counts):
        # edges[slot] indexes the merge mask of that mesh axis, flat
        for slot, flat in enumerate(edges):
            shape = list(signs.shape)
            shape[1 + slot] -= 1
            cells = np.unravel_index(flat, shape)
            on_rim = np.zeros(len(flat), dtype=bool)
            for s, index in enumerate(cells[1:]):
                if s != slot:
                    on_rim |= (index == 0) | (index == resolution + 1)
            reached[-1] += int(on_rim.sum())
        return root_free(self, edges, signs, counts)

    monkeypatch.setattr(_MeshForm, "_root_free", spy)
    masks = {}
    for rim in (False, True):
        reached.append(0)
        masks[rim] = form.merge_masks(signs, {}, rim=rim)
    assert reached[0] > 0 and reached[1] == 0
    for slot, (plain, skipped) in enumerate(zip(masks[False], masks[True])):
        # every edge along the slot (in-face edges and both legs), between
        # the inner cells of the other axes
        inner = tuple(slice(None) if s == slot else slice(1, -1) for s in range(3))
        assert np.array_equal(plain[(0,) + inner], skipped[(0,) + inner]), slot


def test_overflowing_chord_threshold_certifies_nothing():
    # 2^1020 x^64 stays in the float range on [-1024, 1024], but its chord
    # threshold, 2016 times larger, does not; the edge has a root at 0
    p = parse_poly(f"{2 ** 380}*x^64", 1)
    form = _form(p, [[np.array([-1024, 1024], dtype=np.int64), 0]], 1)
    signs = form.signs()
    assert signs.tolist() == [[1, 1]]
    assert form._face_chord(0, 2048).tolist() == [[math.inf]]
    assert form.merge_masks(signs, {}, rim=False)[0].tolist() == [[False]]


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


def test_aligned_zero_sets_stay_on_the_symmetric_grid():
    # x * t vanishes on two full coordinate planes; an odd resolution puts
    # cell centers exactly on them, at x = 0 on the t faces and t = 0 on the
    # x faces.  Each is a one-cell run with no edge, so the zeros neither
    # weld the domains nor join across the nodal set
    p = parse_poly("x*t", 1)
    field = cube_section_sample(p, 9)
    assert field.zero_cells == 4
    report = count_components(field)
    assert (report.positive, report.negative) == (2, 2)


def test_spatial_parity_in_one_dimension():
    p = basic_hcp(5)
    assert negate_space(p) == p.scale(-1)  # odd in x
    field = cube_section_sample(p, 16)
    # x-faces swap and negate; t-faces reverse and negate
    assert np.array_equal(field.face_signs[0], -field.face_signs[1])
    assert np.array_equal(field.face_signs[2][::-1], -field.face_signs[2])
    assert np.array_equal(field.face_signs[3][::-1], -field.face_signs[3])


def test_spatial_parity_in_two_dimensions():
    p = fixture("n2d3")
    assert negate_space(p) == p.scale(-1)
    field = cube_section_sample(p, 16)
    # sign(-x, -y, t) = -sign(x, y, t): x-faces pair up under y-reversal
    assert np.array_equal(field.face_signs[0][::-1, :], -field.face_signs[1])
    assert np.array_equal(field.face_signs[2][::-1, :], -field.face_signs[3])
    for face in (4, 5):  # t-faces map to themselves
        reversed_both = field.face_signs[face][::-1, ::-1]
        assert np.array_equal(reversed_both, -field.face_signs[face])


@st.composite
def _products(draw):
    """product_hcp of 2-3 random degrees, scaled: even or odd in every space coordinate."""
    alpha = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=3))
    return product_hcp(tuple(alpha)).scale(draw(st.sampled_from([1, -2, F(3, 7)])))


@given(st.one_of(homogeneous_polynomials(), _products()))
@settings(max_examples=80, deadline=None)
def test_reflection_signs_match_ring_reflections(p):
    # s_R, read from the exponents, is the sign of p under rho_R composed in
    # the ring, and is 0 exactly where p(rho_R x, t) is neither p nor -p (a
    # mixed parity in R, which folds no face).  sigma, R = every space axis,
    # always has s = (-1)^d
    signs = _reflection_signs(p)
    n = p.spatial_dim
    assert len(signs) == 2 ** n and signs[0] == 1
    assert signs[-1] == (-1) ** parabolic_degree(p) and negate_space(p) == p.scale(signs[-1])
    for r, s in enumerate(signs):
        image = reflect_space(p, [b for b in range(n) if r >> b & 1])
        if s:
            assert image == p.scale(s)
        else:
            assert image not in (p, p.scale(-1))


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


@st.composite
def _permuted_pairs(draw):
    """A polynomial in n >= 2 space variables and the same one with its variables permuted."""
    p = draw(homogeneous_polynomials().filter(lambda q: q.spatial_dim >= 2))
    perm = draw(st.permutations(range(p.spatial_dim)))
    return p, embed(p, p.spatial_dim, perm)


@given(_permuted_pairs(), st.integers(min_value=2, max_value=7))
@settings(max_examples=60, deadline=None)
def test_counts_are_invariant_under_permuting_space_variables(pair, resolution):
    # a permutation of x_1..x_n maps the cube grid, its faces and the cube
    # edges between them onto themselves, and every sign and merge is exact,
    # so the stitched graph must give the same split and zero cells
    fields = [cube_section_sample(q, resolution) for q in pair]
    reports = [count_components(field) for field in fields]
    assert len({(r.positive, r.negative) for r in reports}) == 1
    assert fields[0].zero_cells == fields[1].zero_cells


def test_nodal_count_schedule_validation():
    p = fixture("deg2")
    with pytest.raises(NodalError):
        nodal_count(p, [16, 32])
    with pytest.raises(NodalError):
        nodal_count(p, [32, 32, 64])


@pytest.mark.parametrize(
    "schedule",
    [
        [16.9, 32.2, 64.7],  # int() would run it as 16, 32, 64
        np.array([16.0, 32.0, 64.0]),
        [True, 32, 64],
        ["16", "32", "64"],
    ],
)
def test_nodal_count_rejects_a_schedule_entry_that_is_not_an_integer(schedule):
    with pytest.raises(NodalError, match="integer"):
        nodal_count(fixture("n2d3"), schedule)


def test_nodal_count_accepts_numpy_integer_schedules():
    p = fixture("n2d3")
    assert nodal_count(p, np.array([16, 32, 64])) == nodal_count(p, [16, 32, 64])


# every public function that takes a resolution, called at resolution r
_AT_RESOLUTION = {
    "cube_section_sample": lambda p, r: count_components(cube_section_sample(p, r)),
    "nodal_count": lambda p, r: nodal_count(p, [r, 20, 24]),
    "slice_count": lambda p, r: slice_count(p, resolution=r),
    "export_nodal_pointcloud": lambda p, r: export_nodal_pointcloud(p, r),
    "sphere_grid_count": lambda p, r: sphere_grid_count(p, r),
}


@pytest.mark.parametrize("name", sorted(_AT_RESOLUTION))
def test_every_resolution_is_an_integer_of_at_least_two(name):
    # a float, a bool or a resolution below 2 is refused with NodalError
    # before any sampling, and a numpy integer counts as the int it holds
    call, p = _AT_RESOLUTION[name], fixture("n2d3")
    for resolution in (16.5, 8.0, True, np.bool_(True), 1, 0, -3):
        with pytest.raises(NodalError):
            call(p, resolution)
    assert call(p, np.int64(16)) == call(p, 16)


def test_mesh_size_cap_is_checked_before_sampling():
    # (40000 + 2)^2 cells of one face would take 12 GB per float array
    with pytest.raises(NodalError, match="cap"):
        cube_section_sample(fixture("n2d3"), 40000)
    with pytest.raises(NodalError, match="cap"):
        slice_count(fixture("n3d4"), 4, 256)
    side = math.isqrt(nodal.MAX_MESH_CELLS)
    assert side ** 2 <= nodal.MAX_MESH_CELLS < (side + 1) ** 2
    with pytest.raises(NodalError, match="cap"):
        slice_count(fixture("n2d3"), 4, side + 1)
    # the sphere grid is 2r x r: r = 1448 fits, 1449 does not
    assert 2 * 1448 ** 2 <= nodal.MAX_MESH_CELLS < 2 * 1449 ** 2
    for sample in (sphere_grid_count, export_nodal_pointcloud):
        with pytest.raises(NodalError, match="cap"):
            sample(fixture("n2d3"), 1449)


def test_nodal_count_report_shape():
    report = nodal_count(fixture("n2d3"), [16, 32, 64])
    assert report.stable
    assert report.resolutions_used == (16, 32, 64)
    data = report.to_json_dict()
    assert data["method"] == "cube-exact"
    assert data["total"] == 2


def test_one_dimensional_count_is_exact_on_the_cube_loop():
    # n = 1 is read off the loop around the square |x|, |t| <= 1: no grid,
    # so no resolutions and no schedule, and stable by proof
    assert nodal_count(fixture("deg2")).to_json_dict() == {
        "total": 2,
        "pos": 1,
        "neg": 1,
        "resolutions": [],
        "stable": True,
        "zero_frac": 0.0,
        "method": "cube-loop",
    }
    for schedule in ([16, 32, 64], np.array([16, 32, 64]), []):
        with pytest.raises(NodalError, match="n = 1 is counted exactly and takes no schedule"):
            nodal_count(fixture("deg2"), schedule)
    assert 2 not in nodal.DEFAULT_SCHEDULES
    # the same refusals as the grid: a constant, a degree past the cap, an inhomogeneous p
    with pytest.raises(NodalError, match="constant"):
        nodal_count(Polynomial.constant(1, 3))
    with pytest.raises(NodalError, match="counting cap"):
        nodal_count(basic_hcp(66))
    with pytest.raises(NotHomogeneous):
        nodal_count(parse_poly("t + x", 1))


# the loop against the grid, at the resolutions where the grid agrees with
# itself: every basic_hcp(d) up to d = 13, a root at the cube corner (1, -1),
# roots of even multiplicity, and roots on the side faces' t = 0 points
_LOOP_ORACLE = [f"hcp{d}" for d in range(2, 14)] + [
    "deg2", "(x^2+t)^2", "x^2", "x*(x^2+2*t)^2", "x*t", "t",
]


@pytest.mark.parametrize("name", _LOOP_ORACLE)
def test_cube_loop_matches_the_stable_grid(name):
    if name.startswith("hcp"):
        p = basic_hcp(int(name[3:]))
    else:
        p = fixture(name) if name == "deg2" else parse_poly(name, 1)
    grid = {
        (report.positive, report.negative)
        for report in (count_components(cube_section_sample(p, r)) for r in (128, 256, 512))
    }
    assert len(grid) == 1
    loop = nodal_count(p)
    assert {(loop.positive, loop.negative)} == grid
    assert (loop.stable, loop.method) == (True, "cube-loop")


def _corpus_polynomial(name):
    if name == "x*y*t":
        return parse_poly(name, 2)
    if name.startswith("hcp"):
        return basic_hcp(int(name[3:]))
    return fixture(name)


# Under-resolved counts depend on how cut edges and cross-face stitches
# combine, so they pin the labeling itself, not only its limit.
@pytest.mark.parametrize(
    "name, resolution, expected",
    [
        ("n2d4", 4, (1, 4)),
        ("n2d4", 8, (1, 4)),
        ("n2d4", 12, (1, 4)),
        ("n2d4", 16, (1, 2)),
        ("prod_n2d4", 5, (2, 4)),  # plain same-sign stitches, skipping the cube edge, miss it
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
    if name == "x*y*t":  # cell centers on the coordinate planes are exact zeros
        assert field.zero_cells > 0
    report = count_components(field)
    assert (report.positive, report.negative) == expected


_PINNED_INPUTS = {
    "n2d3": lambda: fixture("n2d3"),
    "n3d4": lambda: fixture("n3d4"),
    "product_lower(2, 8)": lambda: product_lower(2, 8),
    "zero_mod4(16, 1/4, 0.2)": lambda: zero_mod4(16, F(1, 4), 0.2),
    "basic_hcp(24)": lambda: basic_hcp(24),
    "x*y*t": lambda: parse_poly("x*y*t", 2),
    "high_dim(5)": lambda: high_dim(5),
}


# What every change to the merge stages must keep: the split, the zero
# cells and the exact signs of every face (a hash of their bytes), at two
# resolutions each; x*y*t at r = 9 has cell centers on its coordinate
# planes.  The run graph itself may change.  n2d3 at r = 256 and 257, n3d4
# at r = 47 and high_dim(5) at r = 47 take half t faces; at r = 257 the two
# zero cells are the self-symmetric centres of the t faces, and high_dim(5)
# has odd degree and 188 zero cells.
@pytest.mark.parametrize(
    "name, resolution, split, zero_cells, digest",
    [
        ("n2d3", 16, (1, 1), 0, "531c7f58f6c253dc"),
        ("n2d3", 128, (1, 1), 0, "2d439f350f8e0bb6"),
        ("n2d3", 256, (1, 1), 0, "b522d82f5efd727c"),
        ("n2d3", 257, (1, 1), 2, "3f7e896257083e31"),
        ("n3d4", 8, (1, 1), 0, "7dac1a0692f458b7"),
        ("n3d4", 24, (1, 1), 0, "f4416bcf1f2bdbe1"),
        ("n3d4", 47, (1, 1), 0, "6b864c9aef93041d"),
        ("high_dim(5)", 47, (1, 1), 188, "43b0c2ec98b26370"),
        ("product_lower(2, 8)", 16, (10, 12), 0, "87ceeab1d67953a4"),
        ("product_lower(2, 8)", 64, (10, 12), 0, "27e26c3bde9e1340"),
        ("zero_mod4(16, 1/4, 0.2)", 24, (20, 18), 0, "3e397d47c485bf4d"),
        ("zero_mod4(16, 1/4, 0.2)", 64, (21, 24), 0, "2fa2584b233ee5b2"),
        ("basic_hcp(24)", 64, (8, 6), 0, "bde69a1808a73ef8"),
        ("basic_hcp(24)", 256, (10, 10), 0, "65b4ba10b9a76828"),
        ("x*y*t", 9, (4, 4), 102, "8f0412ab8576c02f"),
        ("x*y*t", 16, (4, 4), 0, "60fab530ddf97d85"),
    ],
)
def test_sampled_outputs_are_pinned(name, resolution, split, zero_cells, digest):
    field = cube_section_sample(_PINNED_INPUTS[name](), resolution)
    report = count_components(field)
    assert (report.positive, report.negative) == split
    assert field.zero_cells == zero_cells
    signs = hashlib.sha256(b"".join(face.tobytes() for face in field.face_signs))
    assert signs.hexdigest()[:16] == digest


# The product family p_{d/n}(x_1, t) ... p_{d/n}(x_n, t) is the witness of
# the floor(d/n)^n lower bound.  At t = -1 its slice has (d/n + 1)^n cells;
# the cells that are outer on every axis join the t > 0 domain, and each
# other cell touches t = 0 only where p = 0.  Within each cusp the band of
# the other sign is about 0.2 h^2 wide, so only a merge rule that finds
# every root on an edge sees it.
@pytest.mark.parametrize(
    "n, d, expected",
    [(2, 8, (22, 10, 12)), (2, 10, (36, 18, 18)), (2, 12, (46, 22, 24)), (3, 6, (20, 7, 13))],
)
def test_product_family_counts_at_default_schedules(monkeypatch, n, d, expected):
    # stage (d) counts each distinct (integer line, ends) once per cross-section
    sections = []
    sample, sturm = nodal.cube_section_sample, nodal._sturm_count

    def recording_sample(*args):
        sections.append([])
        return sample(*args)

    def recording_sturm(line, a, b):
        sections[-1].append((tuple(line), a, b))
        return sturm(line, a, b)

    monkeypatch.setattr(nodal, "cube_section_sample", recording_sample)
    monkeypatch.setattr(nodal, "_sturm_count", recording_sturm)
    report = nodal_count(product_lower(n, d))
    assert (report.total, report.positive, report.negative) == expected
    assert report.stable
    for calls in sections:
        assert len(set(calls)) == len(calls)
    if (n, d) == (3, 6):
        # the distinct (line, ends) of the cross-sections at 12, 24 and 48: 5, 11 and 24
        assert sum(map(len, sections)) <= 40


# product_hcp(alpha) for n = 2 and 3 and small k_i, each stable on the default ladder
_PRODUCT_TABLE = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (4, 5), (5, 5), (6, 6),
                  (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 4)]


@pytest.mark.parametrize("alpha", _PRODUCT_TABLE, ids=str)
def test_product_counts_match_the_closed_form(alpha):
    # a count the closed form proves wrong must never be reported stable
    report = nodal_count(product_hcp(alpha))
    assert report.stable
    assert report.total == product_count(alpha)


def test_default_ladder_stops_at_the_first_three_agreeing_rungs():
    assert nodal.DEFAULT_SCHEDULES == {3: (32, 64, 128, 256), 4: (12, 24, 48, 96)}
    for name, rungs in (("n2d3", (32, 64, 128)), ("n3d4", (12, 24, 48))):
        report = nodal_count(fixture(name))
        assert report.stable and report.resolutions_used == rungs


@pytest.mark.parametrize(
    "make",
    [lambda: zero_mod4(16, F(1, 4), (F(99, 101), F(-20, 101))), lambda: product_lower(2, 16)],
    ids=["zero_mod4(16) rotated", "product_lower(2, 16)"],
)
def test_default_ladder_runs_every_rung_of_an_unstable_input(make):
    # its last three rungs are 64/128/256, so it gets their count and flag
    p = make()
    report = nodal_count(p)
    assert report.resolutions_used == (32, 64, 128, 256)
    fixed = nodal_count(p, [64, 128, 256])
    assert not fixed.stable
    assert replace(report, resolutions_used=fixed.resolutions_used) == fixed


# Random caloric inputs (integer combinations of basis(2, d)) that the ladder reports as
# stable at 32/64/128 with a split a stable 256/512/1024 does not give, held here as
# constants: A (d = 6) a stable 4 (2, 2) there, B (d = 7) a stable 6 (3, 3)
_LADDER_MISSES = {
    "A": (
        "9*t^3 + 11/2*t^2*x^2 - t^2*x*y + 8*t^2*y^2 + 7/12*t*x^4 - 1/2*t*x^3*y + 2*t*x^2*y^2"
        " + 1/6*t*x*y^3 + t*y^4 + 1/60*x^6 - 1/60*x^5*y + 1/24*x^4*y^2 - 1/36*x^3*y^3"
        " + 1/8*x^2*y^4 + 1/60*x*y^5 + 1/40*y^6",
        (2, 2),
    ),
    "B": (
        "t^3*x - 3*t^3*y + 1/3*t^2*x^3 - 6*t^2*x^2*y + 1/2*t^2*x*y^2 + 1/2*t^2*y^3 + 7/60*t*x^5"
        " - 11/12*t*x^4*y - 5/6*t*x^3*y^2 - 1/6*t*x^2*y^3 + 1/2*t*x*y^4 + 1/15*t*y^5"
        " + 1/280*x^7 - 1/40*x^6*y - 1/60*x^5*y^2 - 1/36*x^4*y^3 - 1/24*x^3*y^4"
        " + 1/120*x^2*y^5 + 1/40*x*y^6 + 1/840*y^7",
        (3, 3),
    ),
}


_ITEM_21 = pytest.mark.xfail(strict=True, reason="ROADMAP item 21: the ladder reports a coarse split as stable")


@pytest.mark.parametrize("name", [pytest.param(name, marks=_ITEM_21) for name in _LADDER_MISSES])
def test_a_stable_ladder_report_carries_the_fine_split(name):
    expr, fine = _LADDER_MISSES[name]
    report = nodal_count(parse_poly(expr, 2))
    assert not report.stable or (report.positive, report.negative) == fine


def test_an_explicit_schedule_runs_every_resolution():
    # n2d3 agrees at 16/32/64 already; only the default ladder stops there
    report = nodal_count(fixture("n2d3"), [16, 32, 64, 128])
    assert report.stable and report.resolutions_used == (16, 32, 64, 128)


# ---- counts that must not move: rotations, signed axis permutations, -p ----

_METAMORPHIC_INPUTS = {
    "n2d3": lambda: fixture("n2d3"),
    "n2d4": lambda: fixture("n2d4"),
    "prod_n2d4": lambda: fixture("prod_n2d4"),
    "n3d4": lambda: fixture("n3d4"),
    "lewy_2mod4(6, 1/20)": lambda: lewy_2mod4(6, F(1, 20)),
    "zero_mod4(4, 1/5) rotated": lambda: zero_mod4(4, F(1, 5), (F(221, 229), F(-60, 229))),
    "product_lower(2, 5)": lambda: product_lower(2, 5),
    "product_lower(2, 8)": lambda: product_lower(2, 8),
    "product_lower(3, 6)": lambda: product_lower(3, 6),
    "high_dim(3)": lambda: high_dim(3),
    "high_dim(4)": lambda: high_dim(4),
    "high_dim(5)": lambda: high_dim(5),
}


def _signed_permutation(p, perm, flips):
    """p with x_i moved to x_perm[i], then x_j -> -x_j for each j in flips."""
    q = embed(p, p.spatial_dim, perm)
    return Polynomial(q.spatial_dim, {
        ev: -c if sum(ev.space_exps[j] for j in flips) % 2 else c for ev, c in q.terms.items()
    })


@given(st.sampled_from(sorted(_METAMORPHIC_INPUTS)), pythagorean_pairs(), st.data())
@settings(max_examples=20, deadline=None)
def test_stable_counts_agree_under_a_rotation(name, pair, data):
    # a rotation of space maps nodal domains onto nodal domains, but not the
    # cube onto itself: the rotated p is a new input with a known answer
    p = _METAMORPHIC_INPUTS[name]()
    plane = data.draw(st.sampled_from(list(itertools.combinations(range(p.spatial_dim), 2))))
    counts = [nodal_count(q) for q in (p, rotate_xy(p, *plane, *pair))]
    if all(report.stable for report in counts):
        assert len({(report.positive, report.negative) for report in counts}) == 1


@given(st.sampled_from(sorted(_METAMORPHIC_INPUTS)), st.data())
@settings(max_examples=40, deadline=None)
def test_signed_permutations_and_negation_keep_every_single_resolution(name, data):
    # a signed permutation of the space axes maps the grid, its cube edges
    # and every segment between them onto themselves, so its split and zero
    # cells agree at each resolution, stable or not; -p samples the same grid
    # and swaps the split.  A swap of x_1 with another axis moves which half
    # of each t face is evaluated
    p = _METAMORPHIC_INPUTS[name]()
    n = p.spatial_dim
    resolution = data.draw(st.integers(min_value=2, max_value=64 if n == 2 else 24), label="resolution")
    perm = data.draw(st.permutations(range(n)), label="perm")
    flips = data.draw(st.sets(st.sampled_from(range(n))), label="flips")
    field = cube_section_sample(p, resolution)
    report = count_components(field)
    negated = cube_section_sample(p.scale(-1), resolution)
    swapped = count_components(negated)
    assert negated.zero_cells == field.zero_cells
    assert (swapped.negative, swapped.positive) == (report.positive, report.negative)
    image = cube_section_sample(_signed_permutation(p, perm, flips), resolution)
    assert image.zero_cells == field.zero_cells
    split = count_components(image)
    assert (split.positive, split.negative) == (report.positive, report.negative)


def test_mean_value_consequence_every_caloric_fixture_has_two_domains():
    for fid in ["deg2", "n2d3", "basic_3"]:
        p = fixture(fid)
        report = nodal_count(p, None if p.spatial_dim == 1 else [24, 48, 96])
        assert report.total >= 2


@st.composite
def _probed_meshes(draw):
    """(signs, merge mask per axis) of a random int8 mesh."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero = draw(st.sampled_from([0.0, 0.1, 0.3]))
    positive = draw(st.sampled_from([0.2, 0.5, 0.9]))
    signs = rng.choice(
        np.array([0, 1, -1], dtype=np.int8), size=shape,
        p=[zero, (1 - zero) * positive, (1 - zero) * (1 - positive)],
    )
    # most same-sign neighbours merge, so that runs form
    agree = draw(st.sampled_from([0.8, 0.97, 1.0]))
    merges = []
    for slot in range(signs.ndim):
        near, far = np.delete(signs, -1, axis=slot), np.delete(signs, 0, axis=slot)
        merges.append((near == far) & (near != 0) & (rng.random(near.shape) < agree))
    return signs, merges


def _assert_same_partition(labels, expected):
    # the pairs of labels form a bijection
    pairs = set(zip(labels.tolist(), expected.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == len(set(expected.tolist()))


def _cell_partition(signs, merges):
    """Component label per cell of the per-cell graph of the merge masks."""
    idx = np.arange(signs.size).reshape(signs.shape)
    rows, cols = [], []
    for slot, mask in enumerate(merges):
        rows.append(np.delete(idx, -1, axis=slot)[mask])
        cols.append(np.delete(idx, 0, axis=slot)[mask])
    return _scipy_components(signs.size, np.concatenate(rows), np.concatenate(cols))[1].reshape(signs.shape)


@given(_probed_meshes())
@settings(max_examples=300, deadline=None)
def test_probed_runs_partition_matches_per_cell_graph(mesh):
    signs, merges = mesh
    starts, node_signs, rows, cols = _probed_runs(signs, merges)
    # runs start in C order, the first cell first; a cell's node is the
    # last run that starts at or before it
    assert starts[0] == 0 and (np.diff(starts) > 0).all()
    nodes = np.searchsorted(starts, np.arange(signs.size), side="right").reshape(signs.shape) - 1
    assert np.array_equal(node_signs[nodes], signs)
    assert rows.dtype == cols.dtype == np.int64
    if signs.ndim == 1:
        assert len(rows) == 0  # runs along the only axis leave no edges
    labels = _components(len(node_signs), rows, cols)
    _assert_same_partition(labels[nodes].ravel(), _cell_partition(signs, merges).ravel())


@st.composite
def _graphs(draw):
    """(size, rows, cols): isolated nodes, self-loops, duplicate edges and either end the larger."""
    size = draw(st.integers(min_value=0, max_value=40))
    node = st.integers(min_value=0, max_value=max(size - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=len(edges)))
    return size, *(np.array([edge[end] for edge in edges], dtype=np.int64) for end in (0, 1))


@given(_graphs())
@settings(max_examples=300, deadline=None)
def test_components_match_scipy(graph):
    size, rows, cols = graph
    labels = _components(size, rows, cols)
    expected_count, expected = _scipy_components(size, rows, cols)
    assert np.count_nonzero(labels == np.arange(size)) == expected_count
    assert labels.shape == (size,)
    _assert_same_partition(labels, expected)


@pytest.mark.parametrize(
    "rows, cols",
    [
        # a path walked from its largest id down: the first round's hooks
        # form one chain of 200,000 nodes, which pointer jumping shortens in
        # log2(200,000) steps
        (np.arange(199_999, 0, -1), np.arange(199_998, -1, -1)),
        # a star whose centre has the largest id, leaves in ascending order:
        # plain hooking after the first round would take one round per leaf
        (np.arange(200_000), np.full(200_000, 200_000)),
    ],
)
def test_components_worst_cases_end_in_few_rounds(rows, cols):
    size = int(max(rows.max(), cols.max())) + 1
    labels = _components(size, rows, cols)
    assert np.count_nonzero(labels == np.arange(size)) == 1 and (labels == 0).all()


def _unique_split(labels, signs):
    """(positive, negative) counts of distinct labels by node sign: the sorting split, kept as the oracle."""
    return len(np.unique(labels[signs == 1])), len(np.unique(labels[signs == -1]))


@given(_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_sign_split_by_roots_matches_unique_labels(graph, data):
    size, rows, cols = graph
    signs = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size)), dtype=np.int8)
    # every graph that is counted joins only nodes of one sign
    same = signs[rows] == signs[cols]
    labels = _components(size, rows[same], cols[same])
    assert _sign_split(labels, signs) == _unique_split(labels, signs)
    # the components that meet some nodes, as the slice's rim caveat counts them
    node = st.integers(min_value=0, max_value=max(size - 1, 0))
    members = np.array(data.draw(st.lists(node, max_size=size)), dtype=np.int64)
    met = np.bincount(labels[members], minlength=size) > 0
    assert _sign_split(labels, signs * met) == _unique_split(labels[members], signs[members])


def _reference_split(p, field):
    """((pos, neg), runs) of the per-cell graph of `field`'s grid, from full merge masks.

    One scipy graph holds every inner cell of every face and one node per
    cube-edge point: in-face edges come from merge_masks, and each merged
    leg joins its side cell to the point beyond it, so two merged legs to
    one point join their cells.  runs counts the runs of cells that the
    masks merge along the last mesh axis, summed over the faces, as
    (positive, zero, negative) runs.
    """
    grid = field.grid
    den, mesh = grid.denominator, grid.mesh
    signs, rows, cols, leg_cells, points = [], [], [], [], []
    offset, runs = 0, [0, 0, 0]
    for face in range(grid.face_count):
        axis, sign = grid.face_axis_sign(face)
        varying = [a for a in range(grid.ambient) if a != axis]
        values = [mesh if a != axis else sign * den for a in range(grid.ambient)]
        form = _form(p, [values], den)
        face_signs = form.signs()
        masks = [mask[0] for mask in form.merge_masks(face_signs, {}, rim=False)]
        inner = (slice(1, -1),) * len(varying)
        inside = face_signs[0][inner]
        assert np.array_equal(inside, field.face_signs[face])
        ids = offset + np.arange(inside.size).reshape(inside.shape)
        offset += inside.size
        signs.append(inside.ravel())
        merged = masks[-1][inner]  # a merged edge joins two cells of its low cell's sign
        for k, s in enumerate((1, 0, -1)):
            runs[k] += int(np.count_nonzero(inside == s) - np.count_nonzero(merged & (inside[..., :-1] == s)))
        for slot, b in enumerate(varying):
            merged = masks[slot][inner]
            rows.append(np.delete(ids, -1, axis=slot)[merged])
            cols.append(np.delete(ids, 0, axis=slot)[merged])
            rest = [a for a in varying if a != b]
            for i, edge in ((0, -den), (-1, den)):
                legs = masks[slot].take(i, axis=slot)[inner[1:]]
                leg_cells.append(ids.take(i, axis=slot)[legs])
                point = np.empty((int(legs.sum()), grid.ambient), dtype=np.int64)
                point[:, axis], point[:, b] = sign * den, edge
                for a, index in zip(rest, np.indices(legs.shape)):
                    point[:, a] = mesh[1 + index[legs]]
                points.append(point)
    _, point_ids = np.unique(np.concatenate(points), axis=0, return_inverse=True)
    rows.append(np.concatenate(leg_cells))
    cols.append(offset + point_ids.ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    size = offset + (int(cols.max()) + 1 if len(cols) else 0)
    labels = _scipy_components(size, rows, cols)[1][:offset]
    signs = np.concatenate(signs)
    return tuple(len(np.unique(labels[signs == s])) for s in (1, -1)), tuple(runs)


def _node_sign_counts(field):
    """(positive, zero, negative) nodes of `field`'s run graph."""
    return tuple(int(np.count_nonzero(field.node_signs == s)) for s in (1, 0, -1))


def _assert_edges_join_like_signs(field):
    """Every edge of `field` joins two of its node ids, of one nonzero sign."""
    ends = np.concatenate([field.rows, field.cols])
    assert ends.size == 0 or (ends.min() >= 0 and ends.max() < len(field.node_signs))
    low, high = field.node_signs[field.rows], field.node_signs[field.cols]
    assert np.array_equal(low, high) and np.all(low != 0)


def _assert_cascade_graph_matches(p, resolution):
    """Under each grouping, the sampled graph's split is that of the per-cell graph.

    The group caps of cube_section_sample, in cells, are one face's cells
    (one face per pass, and batches of stages (b) and (c) a face's floats
    in size, so that one _root_free call can take several) and 2^40 (the
    whole cross-section in one pass).  Both groupings sample one grid to
    the same signs as whole faces in one pass (_whole_faces_sample), and
    each graph's nodes are the runs of the full merge masks along the last
    mesh axis: no run is cut at an edge that merges.  Each edge joins two of
    the graph's nodes of one nonzero sign.
    """
    caps = ((resolution + 2) ** p.spatial_dim, 2 ** 40)
    fields = []
    for cap in caps:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nodal, "_CASCADE_FLOATS", cap)
            fields.append(cube_section_sample(p, resolution))
    whole = _whole_faces_sample(p, resolution)
    for field in fields[1:] + [whole]:
        assert field.grid == fields[0].grid
        assert all(map(np.array_equal, fields[0].face_signs, field.face_signs))
    split, runs = _reference_split(p, fields[0])
    for cap, field in zip(caps + ("whole",), fields + [whole]):
        report = count_components(field)
        assert (report.positive, report.negative) == split, cap
        assert _node_sign_counts(field) == runs, cap
        _assert_edges_join_like_signs(field)
    return fields[-1]


def _whole_faces_sample(p, resolution):
    """cube_section_sample of p with every source face whole, in one float pass.

    Only sigma is left among p's reflections, so no side face has a fold,
    and halved t faces would take a pass of their own: under the cap 2^40
    the layout rule keeps every face whole.  This is the graph that the
    folded and halved layouts must reproduce, up to node numbering.
    """
    signs = nodal._reflection_signs(p)
    sigma_only = [s if r in (0, len(signs) - 1) else 0 for r, s in enumerate(signs)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodal, "_CASCADE_FLOATS", 2 ** 40)
        patch.setattr(nodal, "_reflection_signs", lambda _: sigma_only)
        return cube_section_sample(p, resolution)


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=60, deadline=None)
def test_cascade_graph_matches_per_cell_graph_of_full_merge_masks(p, data):
    # each group's merge masks are complete before its run graph is built,
    # and the stitches join the runs beside each cube edge: the partition
    # must be the one of the per-cell graph of full merge masks, with faces
    # sampled one per pass or all in one
    resolution = data.draw(st.integers(min_value=2, max_value=12))
    n, d = p.spatial_dim, parabolic_degree(p)
    if n >= 2 and d >= 2 and data.draw(st.booleans()):
        # a 10^20-scaled band with two roots on the stitch leg from the last
        # cell center to the cube edge x_b = x_c = 1 and none on the other
        # leg: only that leg's cut keeps the cells on either side apart
        b, c = data.draw(st.permutations(range(n)))[:2]
        xb, xc = Polynomial.variable(n, b), Polynomial.variable(n, c)
        band = (xb.scale(4 * resolution) - xc.scale(4 * resolution - 2)) ** 2 - xc * xc
        p = p + (band * xc ** (d - 2)).scale(10 ** 20)
    if n == 1 and d >= 4 and data.draw(st.booleans()):
        # each side of the square is a single cell: a 10^20-scaled band with
        # two roots on each leg from the last cell center to a corner of the
        # t = 1 face (x = (4r - 3) / 4r and (4r - 1) / 4r) and none on the
        # x = +-1 faces, so only those legs' cuts keep the faces apart
        x, t = Polynomial.variable(1, 0), Polynomial.time(1)
        square = (x * x).scale(16 * resolution ** 2)
        band = (square - t.scale((4 * resolution - 3) ** 2)) * (square - t.scale((4 * resolution - 1) ** 2))
        p = p + (band * x ** (d - 4)).scale(10 ** 20)
    _assert_cascade_graph_matches(p, resolution)


@pytest.mark.parametrize("expr, n, resolution", [("x*y*t", 2, 9), ("x*y*z*t", 3, 5), ("x*t", 1, 7)])
def test_cascade_graph_matches_per_cell_graph_with_zero_cells(expr, n, resolution):
    # at an odd resolution a cell center sits on every coordinate plane: the
    # zero cells, on mirrored faces and halved t faces alike, are one-cell
    # runs that join nothing
    field = _assert_cascade_graph_matches(parse_poly(expr, n), resolution)
    assert field.zero_cells > 0


# inputs even or odd in the coordinate x_b of some face x_a = +1, whose side
# faces go by halves along x_b: n3d4 (every face), prod_n2d4, x*y*t (odd in
# x and y, so its centre layers are zero cells), product_lower(3, 6) and
# high_dim(5), which folds x = +1 along y only (its x and z parities are
# mixed); at even and odd resolutions
_FOLDED_INPUTS = {
    "n3d4 r=24": (lambda: fixture("n3d4"), 24),
    "n3d4 r=25": (lambda: fixture("n3d4"), 25),
    "prod_n2d4 r=63": (lambda: fixture("prod_n2d4"), 63),
    "x*y*t r=9": (lambda: parse_poly("x*y*t", 2), 9),
    "product_lower(3, 6) r=24": (lambda: product_lower(3, 6), 24),
    "high_dim(5) r=13": (lambda: high_dim(5), 13),
}


@pytest.mark.parametrize("name", list(_FOLDED_INPUTS))
def test_cascade_graph_matches_per_cell_graph_on_folded_faces(monkeypatch, name):
    # each half side face takes its other half and both halves of x_a = -1
    # from its evaluated half, under rho_b, sigma and sigma rho_b; under both
    # group caps the split and runs are those of the per-cell graph, and the
    # signs those of whole faces.  The one-face cap folds every face that has
    # a parity, which takes no more passes than whole faces; the whole-face
    # reference is one pass of every source face whole
    make, resolution = _FOLDED_INPUTS[name]
    p = make()
    _assert_cascade_graph_matches(p, resolution)
    n = p.spatial_dim
    passes = _recording_passes(monkeypatch)
    _whole_faces_sample(p, resolution)
    assert [(len(group), cells) for _, group, cells in passes] == [(n + 2, (n + 2) * (resolution + 2) ** n)]
    passes.clear()
    monkeypatch.setattr(nodal, "_CASCADE_FLOATS", (resolution + 2) ** n)
    cube_section_sample(p, resolution)
    half = (resolution + 2) ** (n - 1) * (resolution + 3 - (resolution + 2) // 2)
    assert any(cells == half and group[0] < 2 * n for _, group, cells in passes)


# (input, resolution) pairs, where the faces x_a = -1 are mirrored: n = 1,
# 2, 3, even and odd degree, even and odd resolution, zero cells on the t
# faces (odd(5, 3/10)) and on the side faces (product_lower(2, 8)).  The
# entries at r = 47, 48, 256 and 257 evaluate the t faces by halves, with the
# self-symmetric centre layer of an odd r in the evaluated half: its zero
# cells (n2d3 and odd(5, 3/10) at r = 257, and high_dim(5), of odd degree)
# must be counted once.  The inputs even or odd in a coordinate (n3d4,
# product_lower(2, 8) and (3, 6), x*y*z*t, and those of _FOLDED_INPUTS) also
# fold their side faces x_a = +1 where that takes no more passes.  x*y*z*t
# at r = 9 folds 3-D side faces by reflections with s_R = -1 at an odd r,
# where each centre layer is zero cells and the images that reverse mesh
# axis 0 skip it
_MIRRORED_INPUTS = {
    "x*t": (lambda: parse_poly("x*t", 1), 8),
    "basic_hcp(7)": (lambda: basic_hcp(7), 16),
    "basic_hcp(8)": (lambda: basic_hcp(8), 9),
    "odd(5, 3/10)": (lambda: odd_construction(5, F(3, 10), (F(6555, 6893), F(-2132, 6893))), 63),
    "product_lower(2, 8)": (lambda: product_lower(2, 8), 63),
    "n3d4": (lambda: fixture("n3d4"), 24),
    "product_lower(3, 6)": (lambda: product_lower(3, 6), 24),
    "n2d3 r=257": (lambda: fixture("n2d3"), 257),
    "odd(5, 3/10) r=257": (lambda: odd_construction(5, F(3, 10), (F(6555, 6893), F(-2132, 6893))), 257),
    "product_lower(2, 8) r=256": (lambda: product_lower(2, 8), 256),
    "n3d4 r=48": (lambda: fixture("n3d4"), 48),
    "high_dim(5) r=47": (lambda: high_dim(5), 47),
    **{name: _FOLDED_INPUTS[name] for name in ("n3d4 r=25", "prod_n2d4 r=63", "x*y*t r=9", "high_dim(5) r=13")},
    "x*y*z*t r=9": (lambda: parse_poly("x*y*z*t", 3), 9),
}


@pytest.mark.parametrize("name", list(_MIRRORED_INPUTS))
def test_mirrored_faces_match_direct_evaluation(name):
    # each face x_a = -1 takes its signs, runs, edges and stitch legs from
    # x_a = +1 by p(-x, t) = (-1)^d p(x, t), and a halved face its other
    # half from the evaluated one, by its fold (sigma on a t face, rho_b on
    # x_a = +1).  _reference_split evaluates every face on its own and
    # requires the field's signs; the zero cells must be those of all faces,
    # and the split and runs those of the per-cell graph.  With sigma its
    # only reflection, in one pass of every source, each face is whole
    # (_whole_faces_sample), and that graph must have the same signs, nodes
    # and edges, up to numbering.  In both, each edge joins two nodes of one
    # nonzero sign
    make, resolution = _MIRRORED_INPUTS[name]
    p = make()
    field = cube_section_sample(p, resolution)
    split, runs = _reference_split(p, field)
    assert field.zero_cells == sum(int(np.count_nonzero(face == 0)) for face in field.face_signs)
    report = count_components(field)
    assert (report.positive, report.negative) == split
    assert _node_sign_counts(field) == runs
    whole = _whole_faces_sample(p, resolution)
    assert all(map(np.array_equal, field.face_signs, whole.face_signs))
    assert (_node_sign_counts(whole), len(whole.rows)) == (runs, len(field.rows))
    for graph in (field, whole):
        _assert_edges_join_like_signs(graph)


@pytest.mark.parametrize(
    "name, resolution, node_frac, edge_frac",
    [("n3d4", 24, 1 / 8, 1 / 2), ("n2d4", 256, 1 / 64, 1 / 32)],
)
def test_one_small_graph_per_cross_section(monkeypatch, name, resolution, node_frac, edge_frac):
    # runs along the last mesh axis: 9,760 nodes for 110,592 n3d4 cells at
    # r = 24 and 3,324 for 393,216 n2d4 cells at r = 256; a per-cell graph
    # has one node per cell
    calls = []

    def recording(size, rows, cols):
        calls.append((size, len(rows)))
        return _components(size, rows, cols)

    monkeypatch.setattr(nodal, "_components", recording)
    field = cube_section_sample(fixture(name), resolution)
    count_components(field)
    cells = sum(face.size for face in field.face_signs)
    assert len(calls) == 1
    size, edges = calls[0]
    assert size < node_frac * cells
    assert edges < edge_frac * cells


@pytest.mark.parametrize("name, resolution", [("n3d4", 24), ("n2d4", 256)])
def test_majorant_decides_nearly_every_edge(monkeypatch, name, resolution):
    # the two chord tests leave 896 of the 307,912 same-sign edges of n3d4
    # at r = 24 (0.29%) and 36 of 780,974 of n2d4 at r = 256 (0.0046%), rims
    # included; Bernstein coefficients decide the rest, and no edge needs an
    # exact Sturm count
    share = {"n3d4": 0.003, "n2d4": 0.00005}[name]
    bernstein, sturm = [], []
    decide = nodal._bernstein_decide

    def recording_bernstein(coeffs, bounds):
        bernstein.append(len(coeffs))
        return decide(coeffs, bounds)

    def recording_sturm(*args):
        sturm.append(args)
        return _sturm_count(*args)

    monkeypatch.setattr(nodal, "_bernstein_decide", recording_bernstein)
    monkeypatch.setattr(nodal, "_sturm_count", recording_sturm)
    field = cube_section_sample(fixture(name), resolution)
    count_components(field)
    same_sign = 0
    for signs in field.face_signs:
        for axis in range(signs.ndim):
            near, far = np.delete(signs, -1, axis=axis), np.delete(signs, 0, axis=axis)
            same_sign += int((near * far > 0).sum())
    assert sum(bernstein) <= share * same_sign
    assert len(sturm) == 0


def _recording_passes(monkeypatch):
    """A list that gets (grid, faces, cells) for each float pass of cube_section_sample, as it starts.

    cube_section_sample takes every face of a form's stack from _face_values
    just before it builds the form, whose float pass comes next.
    """
    passes, pending = [], []
    face_values, float_pass = nodal._face_values, _MeshForm._float_pass

    def recording_face(grid, mesh, face):
        pending.append((grid, face))
        return face_values(grid, mesh, face)

    def recording_pass(form):
        passes.append((pending[0][0], [face for _, face in pending], math.prod(form.shape)))
        pending.clear()
        return float_pass(form)

    monkeypatch.setattr(nodal, "_face_values", recording_face)
    monkeypatch.setattr(_MeshForm, "_float_pass", recording_pass)
    return passes


def _pass_counts(n, resolution, folded=0):
    """(whole, halved): float passes of the n + 2 source faces whole, and with halves.

    Each layout puts as many faces of one mesh in a pass as fit in 2^18
    cells, at least one, as the grouping of whole faces has always done.
    The halved layout takes the two t faces and `folded` faces x_a = +1 by
    halves, each its cells from index (r + 2) // 2 - 1 on its mesh axis 0
    to the cube edge, ghost layer included, and the other faces whole.
    """
    def passes(faces, cells):
        return -(-faces // max(1, 2 ** 18 // cells))

    face = (resolution + 2) ** n
    half = face // (resolution + 2) * (resolution + 3 - (resolution + 2) // 2)
    return passes(n + 2, face), passes(n - folded, face) + passes(folded + 2, half)


def _folded_faces(p):
    """The faces x_a = +1 whose terms all have exponents of one parity in x_b, b the first space axis but a."""
    n = p.spatial_dim
    return [
        2 * a + 1 for a in range(n)
        if n >= 2 and len({ev.space_exps[1 if a == 0 else 0] % 2 for ev in p.terms}) == 1
    ]


def test_float_passes_cover_each_face_once_under_the_cap(monkeypatch):
    # faces are evaluated in stacked groups: the float passes cover the n + 2
    # source faces (x_a = +1 and both t faces) once each, each whole face
    # with its mesh (its cell centers plus the cube edges around it), and no
    # pass holds a face x_a = -1, which is mirrored from x_a = +1.  The t
    # faces, and each face x_a = +1 whose terms have one parity in x_b, go by
    # halves exactly where that takes no more passes than whole faces, in
    # passes of their own; so no resolution takes more passes than the
    # grouping of whole faces.  No pass exceeds one face or 2^18 cells,
    # whichever is larger, and faces that fit twice under that cap share
    # passes
    passes = _recording_passes(monkeypatch)
    # x*y*t at r = 9, with zero cells on its coordinate planes, is mirrored like the others
    for p, resolutions in (
        (fixture("n2d3"), [64, 128, 256, 257, 512]),
        (fixture("n3d4"), [8, 24, 47, 48, 96]),
        (fixture("prod_n2d4"), [32, 63, 128, 512]),
        (high_dim(5), [13, 47, 96]),
        (parse_poly("x*y*t", 2), [9]),
    ):
        n = p.spatial_dim
        folded = _folded_faces(p)
        for resolution in resolutions:
            passes.clear()
            cube_section_sample(p, resolution)
            face = (resolution + 2) ** n
            half = face // (resolution + 2) * (resolution + 3 - (resolution + 2) // 2)
            whole, halved = _pass_counts(n, resolution, len(folded))
            faces = [f for _, group, _ in passes for f in group]
            assert sorted(faces) == [2 * a + 1 for a in range(n)] + [2 * n, 2 * n + 1]
            halves = [f for _, group, cells in passes if cells == len(group) * half for f in group]
            assert halves == (folded + [2 * n, 2 * n + 1] if halved <= whole else []), resolution
            assert all(cells == len(group) * (half if group[0] in halves else face) for _, group, cells in passes)
            assert len(passes) == min(whole, halved) <= whole
            assert max(cells for _, _, cells in passes) <= max(face, 2 ** 18)
            if 2 * face <= 2 ** 18:
                assert len(passes) < n + 2
    assert [_folded_faces(p) for p in (fixture("n2d3"), fixture("n3d4"), fixture("prod_n2d4"), high_dim(5))] == [
        [], [1, 3, 5], [1, 3], [1]
    ]


# float passes and evaluated mesh cells (the sum of prod(form.shape)) per rung of the default
# ladder, for each input of the count benchmark, and the (nodes, edges) of the run graph that
# cube_section_sample returns at each rung: deterministic counters of the work.  The 2-D
# inputs without a parity evaluate their four faces whole in one pass a rung; prod_n2d4 folds
# all four, and n3d4 all five, its t faces included
_WHOLE_2D = ((1, 4624), (1, 17424), (1, 67600))
_COUNT_WORK = {
    "n2d3": (lambda: fixture("n2d3"), _WHOLE_2D, ((330, 696), (662, 1412), (1322, 2838))),
    "n2d4": (lambda: fixture("n2d4"), _WHOLE_2D, ((412, 786), (832, 1586), (1660, 3184))),
    "prod_n2d4": (
        lambda: fixture("prod_n2d4"),
        ((1, 2448), (1, 8976), (1, 34320)),
        ((440, 810), (888, 1642), (1784, 3306)),
    ),
    "lewy_2mod4(6,1/20)": (
        lambda: lewy_2mod4(6, F(1, 20)),
        _WHOLE_2D,
        ((330, 684), (674, 1406), (1340, 2840)),
    ),
    "odd_construction(5,3/10,pi/10)": (
        lambda: odd_construction(5, F(3, 10), math.pi / 10),
        _WHOLE_2D,
        ((464, 832), (936, 1684), (1886, 3404)),
    ),
    "zero_mod4(4,1/5,pi/10)": (
        lambda: zero_mod4(4, F(1, 5), math.pi / 10),
        _WHOLE_2D,
        ((408, 780), (816, 1574), (1628, 3152)),
    ),
    "n3d4": (
        lambda: fixture("n3d4"),
        ((1, 7840), (1, 47320), (2, 325000)),
        ((2392, 7472), (9760, 31904), (39472, 131408)),
    ),
}


@pytest.mark.parametrize("name", list(_COUNT_WORK))
def test_count_inputs_do_the_pinned_work(monkeypatch, name):
    make, work, graph = _COUNT_WORK[name]
    passes = _recording_passes(monkeypatch)
    graphs, sample = {}, nodal.cube_section_sample

    def recording_sample(p, resolution):
        field = sample(p, resolution)
        graphs[resolution] = (len(field.node_signs), len(field.rows))
        return field

    monkeypatch.setattr(nodal, "cube_section_sample", recording_sample)
    report = nodal_count(make())
    assert report.stable
    rungs = [[cells for grid, _, cells in passes if grid.resolution == r] for r in report.resolutions_used]
    assert tuple((len(cells), sum(cells)) for cells in rungs) == work
    assert tuple(graphs[r] for r in report.resolutions_used) == graph


def test_face_wide_rounding_bound_leaves_one_contraction_per_float_pass(monkeypatch):
    # every group of the benchmark's count inputs clears the face-wide
    # rounding bound at the default schedules: its float pass contracts the
    # values only.  Inputs whose |P| spans many orders of magnitude on a face
    # fall back to the per-cell bound, one more contraction, and keep their
    # counts.  Only the contractions made while a float pass runs count:
    # the merge stages contract each form's mesh lines as well
    passes = _recording_passes(monkeypatch)
    contractions, running = [], []
    float_pass, contract = _MeshForm._float_pass, nodal._contract

    def counting_pass(form):
        contractions.append(0)
        running.append(form)
        try:
            return float_pass(form)
        finally:
            running.pop()

    def counting_contract(*args):
        if running:
            contractions[-1] += 1
        return contract(*args)

    monkeypatch.setattr(_MeshForm, "_float_pass", counting_pass)
    monkeypatch.setattr(nodal, "_contract", counting_contract)
    face_wide = [
        fixture("n2d3"),
        fixture("n2d4"),
        fixture("prod_n2d4"),
        lewy_2mod4(6, F(1, 20)),
        odd_construction(5, F(3, 10), math.pi / 10),
        zero_mod4(4, F(1, 5), math.pi / 10),
        fixture("n3d4"),
    ]
    for p in face_wide:
        passes.clear()
        contractions.clear()
        nodal_count(p)
        assert len(passes) > 0 and contractions == [1] * len(passes)
    # every pass of zm16 that holds a side face takes the per-cell tier (two
    # contractions).  At r = 256 the two t faces (4 and 5) share a pass of
    # their own, which clears the face-wide tier; it holds their halves, the
    # layout of no more passes
    p = zero_mod4(16, F(1, 4), 0.2)
    passes.clear()
    contractions.clear()
    report = nodal_count(p)
    assert len(contractions) == len(passes) > 0
    for (_, group, _), count in zip(passes, contractions):
        assert count == (1 if min(group) >= 4 else 2), group
    assert [group for grid, group, _ in passes if grid.resolution == 256] == [[1, 3], [4, 5]]
    assert [cells for grid, _, cells in passes if grid.resolution == 256] == [2 * 258 ** 2, 2 * 130 * 258]
    assert _pass_counts(2, 256) == (2, 2) and _pass_counts(2, 128) == (1, 2)
    assert (report.total, report.positive, report.negative, report.stable) == (49, 23, 26, False)
    # n = 1 counts on the cube loop, so its grid is sampled directly
    for resolution, expected in ((128, (8, 10)), (256, (10, 10)), (512, (12, 10))):
        passes.clear()
        contractions.clear()
        report = count_components(cube_section_sample(basic_hcp(24), resolution))
        assert len(passes) > 0 and contractions == [2] * len(passes)
        assert (report.positive, report.negative) == expected


@pytest.mark.parametrize("name, resolution", [("n2d4", 64), ("n3d4", 24)])
def test_chord_stage_runs_once_per_form(monkeypatch, name, resolution):
    # stage (b) takes the edges that stage (a) left on every mesh axis of a
    # form at once: one _edge_chord call per merge_masks, not one per axis
    # (two on a 2-D face, three on a 3-D one)
    calls = []
    merge_masks, edge_chord = _MeshForm.merge_masks, nodal._edge_chord

    def counting_masks(self, *args, **kwargs):
        calls.append(0)
        return merge_masks(self, *args, **kwargs)

    def counting_chord(*args):
        calls[-1] += 1
        return edge_chord(*args)

    monkeypatch.setattr(_MeshForm, "merge_masks", counting_masks)
    monkeypatch.setattr(nodal, "_edge_chord", counting_chord)
    cube_section_sample(fixture(name), resolution)
    assert calls == [1] * len(calls) and calls


def test_bernstein_stage_runs_each_mesh_axis_at_its_own_degree(monkeypatch):
    # the edges along one mesh axis of one form get Bernstein coefficients
    # of that axis's top exponent, not of a cross-section's union: on
    # zero_mod4(16, 1/4, 0.2) the lines along t have degree 8 and those
    # along x and y degree 16 (18,646 and 19,178 edges at the default
    # schedule), and padding every edge to degree 16 would double the work
    # on the t-axis lines
    edges = {}
    bernstein = nodal._bernstein

    def recording(top, rows, roundings, ends):
        edges[top] = edges.get(top, 0) + len(rows)
        return bernstein(top, rows, roundings, ends)

    monkeypatch.setattr(nodal, "_bernstein", recording)
    report = nodal_count(zero_mod4(16, F(1, 4), 0.2))
    assert (report.total, report.positive, report.negative) == (49, 23, 26)
    assert sorted(edges) == [8, 16]
    assert edges[8] > sum(edges.values()) / 3


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


def _times_quadratic(coeffs, scale, shift, gap):
    """Coefficients of scale * p * ((x - shift)^2 + gap); gap > 0 adds no real root."""
    quadratic = [shift * shift + gap, -2 * shift, F(1)]
    return [
        scale * sum(coeffs[i] * quadratic[k - i] for i in range(len(coeffs)) if 0 <= k - i < 3)
        for k in range(len(coeffs) + 2)
    ]


@st.composite
def _polynomials_with_known_roots(draw):
    """(coefficients, distinct real roots, their multiplicities) of c * prod (x - r)^m * ((x - s)^2 + e), e > 0.

    The coefficients are Fractions, or ints once their denominators are
    cleared, as stage (c) passes them.
    """
    roots = draw(st.lists(st.fractions(-10, 10, max_denominator=12), max_size=5, unique=True))
    multiplicities = [draw(st.integers(1, 3)) for _ in roots]
    coeffs = _times_quadratic(
        _coeffs_with_roots(list(zip(roots, multiplicities))),
        draw(st.sampled_from([F(1), F(-1), F(3), F(-2, 7)])),
        draw(st.fractions(-5, 5, max_denominator=8)),
        draw(st.fractions(F(1, 10 ** 6), 10, max_denominator=10 ** 6)),
    )
    if draw(st.booleans()):
        lcm = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [int(c * lcm) for c in coeffs]
    return coeffs, roots, multiplicities


@given(_polynomials_with_known_roots(), st.data())
@settings(max_examples=300, deadline=None)
def test_sturm_count_matches_known_roots(poly, data):
    # distinct real roots in (a, b], with infinite ends and ends on a root
    coeffs, roots, _ = poly
    anywhere = st.fractions(-12, 12, max_denominator=12)
    end = st.one_of(st.none(), anywhere, *([st.sampled_from(roots)] if roots else []))
    a, b = data.draw(end), data.draw(end)
    if a is not None and b is not None and a > b:
        a, b = b, a
    expected = sum(1 for r in roots if (a is None or a < r) and (b is None or r <= b))
    assert _sturm_count(coeffs, a, b) == expected


# Each of these Sturm chains drops from degree 3 to 1 after a negative
# leading coefficient: a pseudo-remainder multiplier lc^(delta + 1) in place
# of |lc|^(delta + 1) flips a sign there and miscounts at infinity.
@pytest.mark.parametrize(
    "roots, scale, shift, gap",
    [
        (((-5, 3), (-1, 2)), 3, -1, 6),
        (((1, 1), (0, 2)), 1, F(3, 2), F(3, 4)),
        (((1, 3), (-1, 1)), -1, -1, F(3, 2)),
        (((-3, 2), (F(-2, 3), 2)), 3, F(-1, 2), F(9, 4)),
    ],
)
def test_sturm_count_keeps_every_sign_of_the_chain(roots, scale, shift, gap):
    coeffs = _times_quadratic(_coeffs_with_roots(roots), F(scale), F(shift), F(gap))
    assert _sturm_count(coeffs, None, None) == len(roots)
    assert _sturm_count(coeffs, None, F(1, 2)) == sum(1 for r, _ in roots if r <= F(1, 2))


def _point_inside(lo, hi):
    """A rational point of the open (lo, hi); None ends are -/+ infinity."""
    if lo is None:
        return F(0) if hi is None else hi - 1
    return lo + 1 if hi is None else (lo + hi) / 2


@given(_polynomials_with_known_roots(), st.data())
@settings(max_examples=300, deadline=None)
def test_sign_arcs_match_known_roots(poly, data):
    # the arcs of (a, b) are one more than the distinct roots strictly inside,
    # with a 0 at each; the sign flips exactly at a root of odd multiplicity,
    # and a root on an end lies outside the segment
    coeffs, roots, multiplicities = poly
    anywhere = st.fractions(-12, 12, max_denominator=12)
    end = st.one_of(st.none(), anywhere, *([st.sampled_from(roots)] if roots else []))
    a, b = data.draw(end), data.draw(end)
    if a is not None and b is not None and a >= b:
        a, b = b, a + (a == b)
    inside = sorted(r for r in roots if (a is None or a < r) and (b is None or r < b))
    arcs = sign_arcs(coeffs, a, b)
    assert len(arcs) == 2 * len(inside) + 1 and arcs[1::2] == (0,) * len(inside)
    for i, root in enumerate(inside):
        odd = multiplicities[roots.index(root)] % 2 == 1
        assert (arcs[2 * i] != arcs[2 * i + 2]) == odd, (root, arcs)
    ends = [a] + inside + [b]
    for sign, lo, hi in zip(arcs[::2], ends, ends[1:]):
        # sign(c) prod sign(x - r)^m, at a point x of the arc; the quadratic factor is positive
        x = _point_inside(lo, hi)
        expected = (1 if coeffs[-1] > 0 else -1) * math.prod(
            (1 if x > r else -1) ** m for r, m in zip(roots, multiplicities)
        )
        assert sign == expected, (lo, hi, arcs)


@pytest.mark.parametrize(
    "coeffs, a, b, arcs",
    [
        ([], None, None, ()),  # the zero polynomial has no arcs
        ([F(0), F(0)], F(-1), F(1), ()),
        ([F(-3)], None, None, (-1,)),  # a constant is one arc
        ([5], F(-1), F(1), (1,)),
        ([-4, 0, 1], None, None, (1, 0, -1, 0, 1)),  # x^2 - 4 on the whole line
        ([-4, 0, 1], F(-2), F(2), (-1,)),  # roots on both ends are outside
        ([-4, 0, 1], F(-2), F(3), (-1, 0, 1)),
        ([-4, 0, 1], F(2), None, (1,)),
        ([0, 1], F(-1), F(1), (-1, 0, 1)),  # the first bisection point is the root
        ([0, 0, 1], None, None, (1, 0, 1)),  # a double root keeps the sign
        ([-4, 0, 1], F(5), F(6), (1,)),  # a segment past the root bound
        ([-4, 0, 1], None, F(-5), (1,)),
        ([0, 1], F(1), F(1), ()),  # an empty segment
    ],
)
def test_sign_arcs_on_small_cases(coeffs, a, b, arcs):
    assert sign_arcs(coeffs, a, b) == arcs


# ---- slice diagnostic ----


def test_slice_of_degree_four():
    report = slice_count(basic_hcp(4), 4)
    assert report.total == 5
    assert not report.caveat
    assert nodal_count(basic_hcp(4)).total <= report.total


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


@pytest.mark.parametrize(
    "expr, total",
    [("(x^2+4*t)^2", 3), ("x^2+10^17*t", 3)] + [(f"hcp{d}", d + 1) for d in [*range(2, 41), 64]],
)
def test_one_dimensional_slice_counts_every_root_without_caveat(expr, total):
    # v = p(x, -1) has `total - 1` distinct real roots, all inside the Cauchy
    # box, and its exact arcs there are 1 + roots components; a 512-cell mesh
    # lost roots of p_d from d = 7, and its numerators passed 2^53 from d = 21
    # and for R = 10^17 + 1
    p = basic_hcp(int(expr[3:])) if expr.startswith("hcp") else parse_poly(expr, 1)
    report = slice_count(p)
    assert (report.total, report.caveat) == (total, False)


def test_numerators_past_two_to_the_fifty_three_are_refused():
    # every mesh numerator is taken as a float, exact only up to 2^53; an
    # n = 2 slice box of R = 10^17 + 1 at 512 cells reaches R * 511, which
    # wraps in int64, and R = 10^19 + 1 does not fit one
    for radius in (10 ** 17 + 1, 10 ** 19 + 1):
        with pytest.raises(NodalError, match=r"2\^53"):
            slice_count(fixture("n2d3"), radius)
    p = parse_poly("x + t", 1)
    with pytest.raises(NodalError, match=r"2\^53"):
        _form(p, [[np.array([0, 2 ** 53 + 1], dtype=np.int64), 1]], 1)
    top = np.array([-(2 ** 53), 2 ** 53], dtype=np.int64)
    assert _form(p, [[top, 1]], 1).signs().tolist() == [[-1, 1]]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "abc", "1/0", [1]])
def test_a_half_width_that_is_not_a_finite_rational_is_refused(value):
    # inf raised OverflowError here, and nan or "abc" ValueError
    for call in (
        lambda: slice_count(basic_hcp(4), value),
        lambda: slice_count(fixture("n2d3"), value, 16),
    ):
        with pytest.raises(NodalError, match="finite rational"):
            call()


def test_slice_high_dim_fixture_is_clean():
    report = slice_count(fixture("n3d4"), 4, 64)
    assert report.total == 2
    assert not report.caveat


# ---- the sphere evaluator ----


def _per_term_values(p, xs, ys, ts):
    """Float values of p (n = 2) at the points (xs, ys, ts), term by term with elementwise powers.

    The package's evaluator before the sphere contraction, kept as its
    oracle: it is slow where a base is negative, not wrong.
    """
    out = np.zeros(np.broadcast(xs, ys, ts).shape)
    for ev, coeff in p.terms.items():
        ex, ey = ev.space_exps
        out += float(coeff) * xs ** ex * ys ** ey * ts ** ev.t_exp
    return out


@st.composite
def _sphere_axes(draw):
    """cos and sin arrays of one grid axis: drawn angles, and the axis directions where one of them is 0 or +-1.

    The angles are multiples of 1/1000, so every nonzero cos or sin is at
    least 1e-4 in size and no power of degree 12 underflows, which the
    relative rounding bound does not cover.
    """
    angles = draw(st.lists(st.integers(min_value=-4000, max_value=4000).map(lambda k: k / 1000), max_size=5))
    exact = draw(st.lists(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]), min_size=1, max_size=4))
    pairs = draw(st.permutations([(math.cos(a), math.sin(a)) for a in angles] + exact))
    return tuple(np.array(part) for part in zip(*pairs))


@st.composite
def _wide_polynomials(draw):
    """n = 2 polynomials of degree at most 12 with coefficients of either sign from 1e-6 to 1e6."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        degree = draw(st.integers(min_value=0, max_value=12))
        t_exp = draw(st.integers(min_value=0, max_value=degree))
        x_exp = draw(st.integers(min_value=0, max_value=degree - t_exp))
        size = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
        terms[(t_exp, (x_exp, degree - t_exp - x_exp))] = F(draw(st.sampled_from([-1, 1])) * size)
    return Polynomial(2, terms)


@given(_wide_polynomials(), _sphere_axes(), _sphere_axes(), st.floats(min_value=0.5, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_sphere_values_match_the_per_term_oracle(p, longitude, latitude, radius):
    (cos_theta, sin_theta), (cos_phi, sin_phi) = longitude, latitude
    values = _sphere_values(p, longitude, latitude, radius)
    assert values.shape == (len(cos_theta), len(cos_phi))
    # the points, one rounding per product
    xs = radius * np.multiply.outer(cos_theta, cos_phi)
    ys = radius * np.multiply.outer(sin_theta, cos_phi)
    ts = radius * sin_phi
    expected = _per_term_values(p, xs, ys, ts)
    magnitudes = Polynomial(2, {ev: abs(c) for ev, c in p.terms.items()})
    sizes = _per_term_values(magnitudes, np.abs(xs), np.abs(ys), np.abs(ts))
    # Each result is a sum over the N terms of p, each term carrying at most
    # K_i roundings, so it is within gamma_(K_i) of the exact value times
    # the sum of |terms| (Higham, Sec. 3.1), with gamma_K about K eps / 2;
    # a pow counts as 2 roundings (within one ulp).  At degree D:
    # - the contraction: 1 converting the coefficient, 2 in radius^k and 1
    #   multiplying the two, at most D in each power column (cumulative
    #   products and one product of the cos and sin columns), and 2
    #   products and 2 sums of at most N terms in U D W^T: K_1 = 6 + 2D + 2N;
    # - the oracle: 2 forming x and y and 1 forming t, raised to at most D
    #   in all (2D), 2 in each of its three pows, 1 converting the
    #   coefficient, 3 products and a sum of N terms: K_2 = 10 + 2D + N.
    # K = K_1 + K_2 bounds their distance with a factor 2 to spare, which
    # covers the second-order terms of gamma and the roundings of `sizes`.
    degree = max(ev.algebraic_degree for ev in p.terms)
    roundings = 16 + 4 * degree + 3 * len(p.terms)
    bound = roundings * _FLOAT_EPS * sizes
    assert (np.abs(values - expected) <= bound).all()
    clear = np.abs(expected) > bound
    assert (np.sign(values[clear]) == np.sign(expected[clear])).all()


def test_sphere_values_of_the_poles_and_the_zero_polynomial():
    # p = t + x^2 y: the poles are exact inputs, cos = 0 and sin = +-1
    p = parse_poly("t + x^2*y", 2)
    poles = np.zeros(2), np.array([1.0, -1.0])
    assert _sphere_values(p, (np.ones(1), np.zeros(1)), poles).tolist() == [[1.0, -1.0]]
    values = _sphere_values(Polynomial(2, {}), (np.ones(3), np.zeros(3)), (np.ones(2), np.zeros(2)))
    assert values.shape == (3, 2) and not values.any()
    with pytest.raises(NodalError, match="a coefficient exceeds the largest float"):
        _sphere_values(parse_poly("9" * 400 + "*y + t", 2), (np.ones(1), np.zeros(1)), poles)


# the rows of the criterion-6 clouds (tests/test_acceptance.py), as the
# per-term evaluator gave them; zero_mod4's cloud is the export of the cli
# benchmark workload
@pytest.mark.parametrize(
    "name, delta, rows",
    [("lewy", 0.05, 19372), ("odd", 0.1, 13156), ("zero_mod4", 0.1, 8756)],
)
def test_gallery_cloud_rows_are_pinned(name, delta, rows):
    p = {
        "lewy": lambda: lewy_2mod4(6, F(1, 20)),
        "odd": lambda: odd_construction(5, F(3, 10), math.pi / 10),
        "zero_mod4": lambda: zero_mod4(4, F(1, 5), math.pi / 10),
    }[name]()
    assert len(export_nodal_pointcloud(p, 256, delta)) == rows


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
    report = nodal_count(fixture("deg2"))
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
