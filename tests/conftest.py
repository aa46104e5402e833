"""Shared strategies and helpers for the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from calorics import Polynomial


def small_rationals(max_abs=9, max_den=9):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_abs, max_value=max_abs),
        st.integers(min_value=1, max_value=max_den),
    )


@st.composite
def polynomials(draw, max_dim=3, max_terms=5, max_exp=3):
    """Random sparse polynomials with small rational coefficients."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    count = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(count):
        k = draw(st.integers(min_value=0, max_value=max_exp))
        alpha = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(n))
        coeff = draw(small_rationals())
        terms[(k, alpha)] = terms.get((k, alpha), Fraction(0)) + coeff
    return Polynomial(n, terms)


@st.composite
def homogeneous_polynomials(draw, max_dim=3, max_degree=6):
    """Random nonzero parabolically homogeneous polynomials."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    d = draw(st.integers(min_value=1, max_value=max_degree))
    # all exponent vectors of parabolic weight d
    candidates = []
    for total in range(d % 2, d + 1, 2):
        k = (d - total) // 2
        for alpha in _alphas(n, total):
            candidates.append((k, alpha))
    chosen = draw(
        st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True)
    )
    terms = {}
    for ev in chosen:
        coeff = draw(small_rationals().filter(lambda c: c != 0))
        terms[ev] = coeff
    return Polynomial(n, terms)


def reflect_space(p, axes):
    """p with x_i -> -x_i for each space axis i in `axes`, composed in the ring: x_i is replaced by the polynomial -x_i."""
    n = p.spatial_dim
    xs = [Polynomial.variable(n, i).scale(-1 if i in axes else 1) for i in range(n)]
    out = Polynomial.zero(n)
    for ev, coeff in p.terms.items():
        term = Polynomial.time(n) ** ev.t_exp
        for x, a in zip(xs, ev.space_exps):
            term = term * x ** a
        out = out + term.scale(coeff)
    return out


def negate_space(p):
    """p(-x, t), composed in the ring: each x_i is replaced by the polynomial -x_i."""
    return reflect_space(p, range(p.spatial_dim))


def _alphas(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _alphas(n - 1, total - first):
            out.append((first,) + rest)
    return out


@st.composite
def pythagorean_pairs(draw):
    """Exact rational points (c, s) on the unit circle, c^2 + s^2 = 1."""
    m = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=m - 1))
    hyp = m * m + k * k
    c = Fraction(m * m - k * k, hyp)
    s = Fraction(2 * m * k, hyp)
    if draw(st.booleans()):
        c, s = s, c
    if draw(st.booleans()):
        s = -s
    return c, s


@st.composite
def rational_points(draw, length=2):
    return tuple(draw(small_rationals()) for _ in range(length))


def _scipy_close_pairs(arr, gap):
    """Each pair of rows of the (k, 3) array strictly closer than gap, from scipy's cKDTree."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(arr).query_pairs(gap * (1 + 1e-9), output_type="ndarray")
    diff = arr[pairs[:, 0]] - arr[pairs[:, 1]]
    close = (diff[:, None, :] @ diff[:, :, None]).ravel() < gap * gap
    return pairs[close]


def _scipy_components(size, rows, cols):
    """(count, label per node) of the undirected graph on size nodes, from scipy."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(size, size))
    return connected_components(graph, directed=False)


@pytest.fixture
def tmp_csv(tmp_path):
    return str(tmp_path / "cloud.csv")
