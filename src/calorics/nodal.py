"""Nodal domain counting for parabolically homogeneous polynomials.

Counting reduces to a compact cross-section: every parabolic ray
{(lambda x, lambda^2 t) : lambda > 0} through a nonzero point crosses the
cube boundary of [-1, 1]^{n+1} exactly once (max(lambda |x_i|, lambda^2 |t|)
is strictly increasing in lambda), and sign(p) is constant along rays, so
nodal domains of p biject with sign components on the cube surface.  Unlike
the unit sphere, the cube has cell centers with exact rational coordinates,
so every sampled sign is exact and only the connectivity (grid resolution)
is heuristic.  Counts are therefore reported as HEURISTIC-STABILIZED: a
count is `stable` when the last three resolutions of a schedule agree on the
(positive, negative) split, never certified.

Sign evaluation clears denominators and works on integers.  The fixed
coordinates of a mesh are substituted exactly; a float pass then evaluates
the mesh as a chain of tensor contractions with one Vandermonde matrix per
varying axis (V_a C V_b^T on a 2-D face), together with a rigorous
rounding-error bound.  Cells whose |value| falls under the bound (in
particular all exact zeros) are re-evaluated with exact integer arithmetic,
so no sign is ever trusted to floating point.  Exact zeros are excluded
from every component; if more than 0.1% of cells are zero the grid is
jittered by 1/(6r) and resampled once.

Adjacency is conservative: two same-sign cells sharing a facet merge only
when the exact signs at the seven interior eighth-points of the segment
joining their centers agree as well (for cross-face stitching, along the
bent path through the shared cube edge).  Plain same-sign adjacency would
weld distinct nodal domains across the thin wedges where nodal sheets cross
-- e.g. the two positive domains of (2t + x^2)(2t + y^2) -- and no amount of
refinement repairs that; the probes detect any wedge wider than an eighth
of a cell, while the under-merging they can introduce is exactly what the
multi-resolution stability gate corrects.  Tangencies of higher order stay
below any fixed probe density, so counts remain estimates guarded by the
proven bounds, never certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components

from .polyring import Polynomial, parabolic_degree

DEFAULT_SCHEDULES: Dict[int, Tuple[int, ...]] = {
    2: (128, 256, 512),
    3: (64, 128, 256),
    4: (24, 48, 96),
}
MAX_COUNT_DEGREE = 64
_JITTER_ZERO_FRACTION = 1e-3
_FLOAT_EPS = float(np.finfo(np.float64).eps)


class NodalError(Exception):
    """Base class for counting-layer errors."""


class BoundViolation(NodalError):
    """A counted value escaped a proven bound; signals a counting bug."""


class UnresolvedSign(NodalError):
    """A guarded float evaluation could not be refined to a definite sign."""


# ---------------------------------------------------------------------------
# Exact sign evaluation on integer-numerator meshes
# ---------------------------------------------------------------------------


def _integer_scaled_terms(p: Polynomial, denominator: int):
    """Rewrite p(m/denominator) as an integer form sum C_T * prod m^e.

    Returns (exponent tuples, exact int coefficients); exponents are ordered
    (x_1, ..., x_n, t).  The rewrite multiplies by the positive constant
    lcm(denominators) * denominator^degree, so signs match.
    """
    degree = p.algebraic_degree()
    lcm = 1
    for coeff in p.terms.values():
        lcm = lcm * coeff.denominator // math.gcd(lcm, coeff.denominator)
    exps: List[Tuple[int, ...]] = []
    ints: List[int] = []
    for ev, coeff in p.terms.items():
        e = ev.space_exps + (ev.t_exp,)
        scaled = coeff.numerator * (lcm // coeff.denominator) * denominator ** (degree - sum(e))
        exps.append(e)
        ints.append(scaled)
    return exps, ints


AxisValues = Union[int, np.ndarray]


def _sign_mesh(p: Polynomial, axis_values: Sequence[AxisValues], denominator: int) -> np.ndarray:
    """Exact signs of p on the mesh spanned by the varying axes.

    axis_values has one entry per coordinate (x_1..x_n, t): either a scalar
    integer numerator or a 1-D integer array of numerators; every coordinate
    equals numerator / denominator.  The result is an int8 array shaped by
    the varying axes in coordinate order, with values in {-1, 0, +1}.
    """
    ambient = p.spatial_dim + 1
    if len(axis_values) != ambient:
        raise ValueError(f"need {ambient} axis value specs, got {len(axis_values)}")
    varying = [i for i, v in enumerate(axis_values) if isinstance(v, np.ndarray)]
    shape = tuple(len(axis_values[i]) for i in varying)
    degree = p.algebraic_degree()

    # substitute the fixed axes exactly: integer coefficients of the
    # monomials in the varying axes, keyed by their exponents
    coeffs: Dict[Tuple[int, ...], int] = {}
    for e, c in zip(*_integer_scaled_terms(p, denominator)):
        for axis, v in enumerate(axis_values):
            if axis not in varying:
                c *= int(v) ** e[axis]
        key = tuple(e[axis] for axis in varying)
        coeffs[key] = coeffs.get(key, 0) + c
    coeffs = {key: c for key, c in coeffs.items() if c}
    if not coeffs:
        return np.zeros(shape, dtype=np.int8)

    # dense C over the exponents that occur on each varying axis; an unused
    # power column could overflow and bring inf * 0 = nan into the mesh
    powers = [sorted({key[s] for key in coeffs}) for s in range(len(varying))]
    dense = np.zeros(tuple(len(pw) for pw in powers))
    try:
        for key, c in coeffs.items():
            dense[tuple(pw.index(e) for pw, e in zip(powers, key))] = float(c)
    except OverflowError as exc:
        raise NodalError(
            f"degree {degree}: a scaled integer coefficient exceeds the float range"
        ) from exc

    # contract one varying axis at a time with its Vandermonde matrix
    # V[c, j] = m_c^(e_j) (V_a C V_b^T on a 2-D mesh); an overflow becomes
    # inf or nan here and the guard below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        vals, mags = dense, np.abs(dense)
        for axis, pw in zip(varying, powers):
            vander = np.vander(axis_values[axis].astype(np.float64), pw[-1] + 1, increasing=True)
            vander = vander[:, pw]
            vals = np.tensordot(vals, vander, axes=(0, 1))
            mags = np.tensordot(mags, np.abs(vander), axes=(0, 1))
        # flat views; a 0-d mesh (the stitch points of n = 1) becomes 1-D
        vals, mags = vals.reshape(-1), mags.reshape(-1)
        # int8 signs without a float temporary: the meshes are large
        signs = (vals > 0).view(np.int8) - (vals < 0).view(np.int8)

    # Certificate (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., Lemma 3.1 and (3.4)-(3.5)): with u = eps/2, a length-k inner
    # product in any summation order, with or without FMA, has
    # |fl(a.b) - a.b| <= gamma_k |a|.|b|, gamma_k = k u / (1 - k u).
    # Expanded, vals is a sum of products C_T * prod_s m_s^e, and each
    # product carries at most K = 1 + sum_s (degree + k_s) roundings:
    #   1       converting its coefficient to float (the fixed axes were
    #           substituted exactly before);
    #   degree  per varying axis for m^e (np.vander multiplies cumulatively,
    #           e - 1 roundings; integer m is exact and nothing underflows);
    #   k_s     for stage s, an inner product over the k_s exponents of axis s.
    # So |vals - p| <= gamma_K * S, S = sum |products|, and mags, the same
    # chain on |C| and |V|, is at least (1 - gamma_K) S.  The bound
    # 16 (K + 4) u * mags is over 16 times gamma_K / (1 - gamma_K) * mags.
    kappa = 8.0 * (1 + sum(degree + len(pw) for pw in powers) + 4)
    # in place: vals becomes |vals| and mags the bound
    bound = np.multiply(mags, kappa * _FLOAT_EPS, out=mags)
    uncertain = ~(np.abs(vals, out=vals) > bound)  # overflowed cells are uncertain
    if uncertain.any():
        if not np.isfinite(bound[uncertain]).all():
            raise NodalError(f"degree {degree}: the float pass of sign evaluation overflows")
        for flat in np.flatnonzero(uncertain):
            cell = np.unravel_index(flat, shape)
            ms = [int(axis_values[axis][i]) for axis, i in zip(varying, cell)]
            total = sum(
                c * math.prod(m ** e for m, e in zip(ms, key)) for key, c in coeffs.items()
            )
            signs[flat] = (total > 0) - (total < 0)
    return signs.reshape(shape)


# ---------------------------------------------------------------------------
# Cube cross-section sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossSectionGrid:
    """Cell-center layout on the boundary surface of [-1, 1]^ambient.

    Face f = 2*axis + (1 if the positive side) is the facet {v_axis = +-1};
    its cells are indexed by the remaining coordinates in ascending axis
    order, with exact centers numerators[i] / denominator.
    """

    ambient: int
    resolution: int
    jittered: bool

    @property
    def denominator(self) -> int:
        return 6 * self.resolution if self.jittered else self.resolution

    @property
    def numerators(self) -> np.ndarray:
        base = 2 * np.arange(self.resolution, dtype=np.int64) + 1 - self.resolution
        if self.jittered:
            return 6 * base + 1
        return base

    @property
    def face_count(self) -> int:
        return 2 * self.ambient

    def face_axis_sign(self, face: int) -> Tuple[int, int]:
        return face // 2, (1 if face % 2 else -1)


@dataclass(frozen=True)
class SignField:
    """Exact signs of one polynomial at every cell center of a cube grid."""

    grid: CrossSectionGrid
    face_signs: Tuple[np.ndarray, ...]
    zero_cells: int
    polynomial: Polynomial

    @property
    def zero_cell_fraction(self) -> float:
        total = self.grid.face_count * self.grid.resolution ** (self.grid.ambient - 1)
        return self.zero_cells / total


@dataclass(frozen=True)
class ComponentReport:
    """Nodal-domain count with its positive/negative split and stability flag."""

    total: int
    positive: int
    negative: int
    resolutions_used: Tuple[int, ...]
    stable: bool
    zero_cell_fraction: float
    method: str = "cube-exact"

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "pos": self.positive,
            "neg": self.negative,
            "resolutions": list(self.resolutions_used),
            "stable": self.stable,
            "zero_frac": self.zero_cell_fraction,
            "method": self.method,
        }


def _face_values(grid: CrossSectionGrid, face: int) -> List[AxisValues]:
    """_sign_mesh axis values of one face's cell centers over grid.denominator."""
    axis, sign = grid.face_axis_sign(face)
    axis_values: List[AxisValues] = [grid.numerators] * grid.ambient
    axis_values[axis] = sign * grid.denominator
    return axis_values


def _sample_faces(p: Polynomial, grid: CrossSectionGrid) -> Tuple[np.ndarray, ...]:
    return tuple(
        _sign_mesh(p, _face_values(grid, face), grid.denominator)
        for face in range(grid.face_count)
    )


def cube_section_sample(p: Polynomial, resolution: int) -> SignField:
    """Exact signs of p at all cell centers on the cube cross-section.

    Requires a parabolically homogeneous p of degree >= 1 in ambient
    dimension 2..4.  If sampled zeros exceed 0.1% of cells the grid is
    jittered once by the fixed rational offset 1/(6*resolution).
    """
    degree = parabolic_degree(p)  # raises NotHomogeneous / ZeroPolynomialError
    if degree < 1:
        raise NodalError("constant polynomials have no cross-section sign structure")
    if degree > MAX_COUNT_DEGREE:
        raise NodalError(f"degree {degree} exceeds the counting cap {MAX_COUNT_DEGREE}")
    ambient = p.spatial_dim + 1
    if not 2 <= ambient <= 4:
        raise NodalError(f"counting supports ambient dimension 2..4, got {ambient}")
    if resolution < 2:
        raise NodalError("resolution must be >= 2")

    for jittered in (False, True):
        grid = CrossSectionGrid(ambient, resolution, jittered)
        signs = _sample_faces(p, grid)
        zeros = int(sum(int((face == 0).sum()) for face in signs))
        field = SignField(grid, signs, zeros, p)
        if field.zero_cell_fraction <= _JITTER_ZERO_FRACTION:
            break
    return field


# ---------------------------------------------------------------------------
# Component labeling with probed adjacency
# ---------------------------------------------------------------------------


_PROBE_STEPS = (1, 2, 3, 4, 5, 6, 7)  # eighth-points of the segment between centers


def _probed_edges(signs: np.ndarray, idx: np.ndarray, probe) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs of neighbouring same-sign cells whose probes all agree.

    Runs over every axis of `signs`; idx holds each cell's node id in the
    same shape.  probe(slot, eighth) returns the signs at the eighth-point
    between neighbours along axis `slot`, shaped like `signs` with that axis
    shortened by one.  Zero cells get no edges.
    """
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for slot in range(signs.ndim):
        lo = [slice(None)] * signs.ndim
        hi = [slice(None)] * signs.ndim
        lo[slot] = slice(None, -1)
        hi[slot] = slice(1, None)
        s_lo = signs[tuple(lo)]
        mask = (s_lo == signs[tuple(hi)]) & (s_lo != 0)
        for eighth in _PROBE_STEPS:
            if not mask.any():
                break
            mask &= probe(slot, eighth) == s_lo
        rows.append(idx[tuple(lo)][mask])
        cols.append(idx[tuple(hi)][mask])
    return np.concatenate(rows), np.concatenate(cols)


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> Tuple[int, np.ndarray]:
    """(count, label per node) of the undirected graph on `size` nodes."""
    graph = coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(size, size))
    return _graph_components(graph, directed=False)


def _sign_split(labels: np.ndarray, signs: np.ndarray) -> Tuple[int, int]:
    """(positive, negative) counts of distinct labels, by the sign of each node."""
    return len(np.unique(labels[signs == 1])), len(np.unique(labels[signs == -1]))


def _eighth_signs(
    p: Polynomial, axis_values: Sequence[AxisValues], denominator: int, axis: int, eighth: int
) -> np.ndarray:
    """Signs at eighth-point `eighth` (1..7) between neighbours along `axis`
    of a _sign_mesh mesh; shaped like that mesh with `axis` shortened by one."""
    scaled = [8 * v for v in axis_values]
    nums = axis_values[axis]
    scaled[axis] = (8 - eighth) * nums[:-1] + eighth * nums[1:]
    return _sign_mesh(p, scaled, 8 * denominator)


def _mesh_axes(grid: CrossSectionGrid, face: int) -> List[int]:
    axis, _ = grid.face_axis_sign(face)
    return [ax for ax in range(grid.ambient) if ax != axis]


def _stitch_path(grid: CrossSectionGrid, a: int, sa: int, b: int, sb: int) -> List[Tuple[int, int]]:
    """(axis-a, axis-b) numerators over 8 * denominator of the stitch path.

    The path bends from a face-(a, sa) edge cell center through the shared
    cube edge to the face-(b, sb) center: three quarter-points per leg and
    the cube-edge point between them.
    """
    nums = grid.numerators
    edge_a, edge_b = sa * grid.denominator, sb * grid.denominator
    last_a = int(nums[-1] if sa > 0 else nums[0])
    last_b = int(nums[-1] if sb > 0 else nums[0])
    return (
        [(8 * edge_a, 2 * ((4 - j) * last_b + j * edge_b)) for j in (1, 2, 3)]
        + [(8 * edge_a, 8 * edge_b)]
        + [(2 * ((4 - j) * edge_a + j * last_a), 8 * edge_b) for j in (1, 2, 3)]
    )


def _edge_stitches(field: SignField, labels: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Label pairs to merge across each shared cube edge of two faces."""
    grid = field.grid
    res = grid.resolution
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for fa in range(grid.face_count):
        a, sa = grid.face_axis_sign(fa)
        axes_a = _mesh_axes(grid, fa)
        for fb in range(fa + 1, grid.face_count):
            b, sb = grid.face_axis_sign(fb)
            if b == a:
                continue
            slot_b_in_a = axes_a.index(b)
            slot_a_in_b = _mesh_axes(grid, fb).index(a)
            idx_b = res - 1 if sb > 0 else 0
            idx_a = res - 1 if sa > 0 else 0
            sign_a = np.atleast_1d(np.take(field.face_signs[fa], idx_b, axis=slot_b_in_a))
            sign_b = np.atleast_1d(np.take(field.face_signs[fb], idx_a, axis=slot_a_in_b))
            mask = (sign_a == sign_b) & (sign_a != 0)
            axis_values: List[AxisValues] = [8 * grid.numerators] * grid.ambient
            for value_a, value_b in _stitch_path(grid, a, sa, b, sb):
                if not mask.any():
                    break
                axis_values[a], axis_values[b] = value_a, value_b
                mask &= _sign_mesh(field.polynomial, axis_values, 8 * grid.denominator) == sign_a
            rows.append(np.atleast_1d(np.take(labels[fa], idx_b, axis=slot_b_in_a))[mask])
            cols.append(np.atleast_1d(np.take(labels[fb], idx_a, axis=slot_a_in_b))[mask])
    return np.concatenate(rows), np.concatenate(cols)


def count_components(field: SignField) -> ComponentReport:
    """Count same-sign components on a sampled cross-section.

    Each face is labeled with probed adjacency; the labels then become the
    nodes of a second graph whose edges are the probed cross-face stitches.
    Single-resolution result: the stability flag is left False because
    stabilization is only meaningful across a schedule (see nodal_count).
    """
    grid = field.grid
    shape = field.face_signs[0].shape
    idx = np.arange(field.face_signs[0].size, dtype=np.int64).reshape(shape)
    labels: List[np.ndarray] = []
    offset = 0
    for face, signs in enumerate(field.face_signs):
        face_values = _face_values(grid, face)
        mesh_axes = _mesh_axes(grid, face)

        def probe(slot: int, eighth: int) -> np.ndarray:
            return _eighth_signs(
                field.polynomial, face_values, grid.denominator, mesh_axes[slot], eighth
            )

        count, local = _components(signs.size, *_probed_edges(signs, idx, probe))
        labels.append(local.reshape(shape) + offset)
        offset += count
    # components never mix signs; zero cells are singleton labels of sign 0
    label_sign = np.zeros(offset, dtype=np.int8)
    for face_labels, signs in zip(labels, field.face_signs):
        label_sign[face_labels] = signs
    _, merged = _components(offset, *_edge_stitches(field, labels))
    positive, negative = _sign_split(merged, label_sign)
    return ComponentReport(
        total=positive + negative,
        positive=positive,
        negative=negative,
        resolutions_used=(grid.resolution,),
        stable=False,
        zero_cell_fraction=field.zero_cell_fraction,
    )


def nodal_count(p: Polynomial, schedule: Optional[Sequence[int]] = None) -> ComponentReport:
    """Multi-resolution nodal-domain count on the cube cross-section.

    Runs count_components at each resolution of the schedule (default per
    ambient dimension); the reported counts come from the finest level and
    `stable` records whether the last three levels agree on the
    (positive, negative) split.  Instability is reported, never raised.
    """
    ambient = p.spatial_dim + 1
    if schedule is None:
        if ambient not in DEFAULT_SCHEDULES:
            raise NodalError(f"no default schedule for ambient dimension {ambient}")
        schedule = DEFAULT_SCHEDULES[ambient]
    schedule = [int(r) for r in schedule]
    if len(schedule) < 3:
        raise NodalError("schedule needs at least three resolutions")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise NodalError("schedule must be strictly increasing")
    reports = [count_components(cube_section_sample(p, res)) for res in schedule]
    tail = [(r.positive, r.negative) for r in reports[-3:]]
    last = reports[-1]
    return ComponentReport(
        total=last.total,
        positive=last.positive,
        negative=last.negative,
        resolutions_used=tuple(schedule),
        stable=len(set(tail)) == 1,
        zero_cell_fraction=last.zero_cell_fraction,
    )


# ---------------------------------------------------------------------------
# Negative-time slice diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceReport:
    """Components of {x in [-R, R]^n : p(x, -1) != 0} with a trust flag.

    caveat = True means the count may misrepresent the plane: either distinct
    same-sign components touch the box boundary (they could merge outside) or,
    for n = 1, the exact root isolation shows roots beyond the box.  The
    nodal-count comparison N <= slice total is only meaningful when clear.
    """

    total: int
    positive: int
    negative: int
    caveat: bool
    half_width: Fraction
    resolution: int


def _univariate_coeffs(v: Polynomial) -> List[Fraction]:
    degree = max((ev.space_exps[0] for ev in v.terms), default=0)
    coeffs = [Fraction(0)] * (degree + 1)
    for ev, c in v.terms.items():
        coeffs[ev.space_exps[0]] = c
    return coeffs


def _poly_trim(c: List[Fraction]) -> List[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_derivative(c: Sequence[Fraction]) -> List[Fraction]:
    return _poly_trim([c[i] * i for i in range(1, len(c))])


def _poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> Tuple[List[Fraction], List[Fraction]]:
    """(quotient, remainder) of a / b; b must have a nonzero leading coefficient."""
    rem = _poly_trim(list(a))
    quotient = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quotient[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        rem = _poly_trim(rem)
    return quotient, rem


def _poly_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _squarefree(coeffs: List[Fraction]) -> List[Fraction]:
    gcd = _poly_gcd(list(coeffs), _poly_derivative(coeffs))
    if len(gcd) <= 1:
        return list(coeffs)
    return _poly_divmod(coeffs, gcd)[0]


def _sturm_chain(coeffs: List[Fraction]) -> List[List[Fraction]]:
    coeffs = _squarefree(coeffs)  # chain stays valid for multiple roots
    chain = [list(coeffs), _poly_derivative(coeffs)]
    while chain[-1]:
        nxt = [-c for c in _poly_divmod(chain[-2], chain[-1])[1]]
        if not nxt:
            break
        chain.append(nxt)
    return [c for c in chain if c]


def _poly_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for coeff in reversed(c):
        total = total * x + coeff
    return total


def _variations(signs: List[int]) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def _sturm_count(coeffs: List[Fraction], a: Optional[Fraction], b: Optional[Fraction]) -> int:
    """Distinct real roots in (a, b]; None endpoints mean -/+ infinity."""
    if len(_poly_trim(list(coeffs))) <= 1:
        return 0
    chain = _sturm_chain(coeffs)

    def signs_at(x: Optional[Fraction], positive_end: bool) -> List[int]:
        out = []
        for c in chain:
            if x is None:
                lead = c[-1]
                degree = len(c) - 1
                value = lead if positive_end or degree % 2 == 0 else -lead
            else:
                value = _poly_eval(c, x)
            out.append(1 if value > 0 else (-1 if value < 0 else 0))
        return out

    va = _variations(signs_at(a, positive_end=a is not None))
    vb = _variations(signs_at(b, positive_end=True))
    return va - vb


def slice_count(
    p: Polynomial,
    box_half_width: Optional[Union[Fraction, int, str]] = None,
    resolution: int = 512,
) -> SliceReport:
    """Count components of the t = -1 slice inside the box [-R, R]^n.

    The default R is the exact Cauchy root bound for n = 1, which certifies
    that no slice structure lies outside the box (the caveat flag is then
    settled by exact Sturm root counting), and 4 otherwise.  Labeling uses
    the same exact-sign probed adjacency as the cross-section counter.
    """
    n = p.spatial_dim
    v = p.substitute_t(-1)
    if box_half_width is None:
        if n == 1 and not v.is_zero:
            coeffs = _univariate_coeffs(v)
            lead = coeffs[-1]
            box_half_width = Fraction(1) + max(
                (abs(c / lead) for c in coeffs[:-1]), default=Fraction(0)
            )
        else:
            box_half_width = Fraction(4)
    radius = Fraction(box_half_width)
    if radius <= 0:
        raise NodalError("box half-width must be positive")
    if resolution < 2:
        raise NodalError("resolution must be >= 2")

    nums = radius.numerator * (2 * np.arange(resolution, dtype=np.int64) + 1 - resolution)
    den = radius.denominator * resolution
    axis_values: List[AxisValues] = [nums] * n + [0]
    signs = _sign_mesh(v, axis_values, den)

    if v.is_zero or not (signs != 0).any():
        return SliceReport(0, 0, 0, True, radius, resolution)

    def probe(slot: int, eighth: int) -> np.ndarray:
        return _eighth_signs(v, axis_values, den, slot, eighth)

    idx = np.arange(signs.size, dtype=np.int64).reshape(signs.shape)
    _, labels = _components(signs.size, *_probed_edges(signs, idx, probe))
    labels = labels.reshape(signs.shape)
    positive, negative = _sign_split(labels, signs)

    if n == 1:
        coeffs = _univariate_coeffs(v)
        inside = _sturm_count(coeffs, -radius, radius)
        everywhere = _sturm_count(coeffs, None, None)
        caveat = inside != everywhere
    else:
        rim = np.ones(signs.shape, dtype=bool)
        rim[(slice(1, -1),) * n] = False
        caveat = max(_sign_split(labels[rim], signs[rim])) >= 2
    return SliceReport(positive + negative, positive, negative, caveat, radius, resolution)


# ---------------------------------------------------------------------------
# Polar chamber diagnostic (n = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarChamberReport:
    """Sign-change data on a small circle around a pole of the unit sphere."""

    pole: str
    radius: float
    sign_changes: int
    n_plus: int


def polar_chambers(
    p: Polynomial,
    pole: str = "north",
    rho: float = 0.1,
    samples: Optional[int] = None,
) -> PolarChamberReport:
    """Evaluate p on the circle x^2 + y^2 = rho^2, t = +-sqrt(1 - rho^2).

    Values inside the guard band |p| < 1e-12 are refined by shifting the
    sample angle in up to 40 halving steps; a sign that never resolves raises
    UnresolvedSign rather than guessing.  sign_changes counts cyclic sign
    alternations and n_plus the maximal positive arcs.
    """
    if p.spatial_dim != 2:
        raise NodalError("polar chambers are defined for n = 2")
    if not 0.0 < rho < 1.0:
        raise NodalError("rho must lie strictly between 0 and 1")
    if pole not in ("north", "south"):
        raise NodalError("pole must be 'north' or 'south'")
    degree = max((ev.algebraic_degree for ev in p.terms), default=1)
    if samples is None:
        samples = max(8 * degree, 64)
    if samples < 8 * degree:
        raise NodalError(f"need at least {8 * degree} samples for degree {degree}")

    guard = 1e-12
    tval = math.sqrt(1.0 - rho * rho) * (1.0 if pole == "north" else -1.0)
    step = 2.0 * math.pi / samples

    def value_at(theta: float) -> float:
        return p.evaluate_float((rho * math.cos(theta), rho * math.sin(theta), tval))

    signs: List[int] = []
    for j in range(samples):
        theta = j * step
        value = value_at(theta)
        shift = step / 2.0
        refinements = 0
        while abs(value) < guard and refinements < 40:
            theta += shift
            shift /= 2.0
            value = value_at(theta)
            refinements += 1
        if abs(value) < guard:
            raise UnresolvedSign(
                f"sample {j} at the {pole} pole stayed within the guard band after 40 refinements"
            )
        signs.append(1 if value > 0 else -1)

    changes = sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)
    if changes == 0:
        n_plus = 1 if signs[0] > 0 else 0
    else:
        n_plus = sum(1 for j in range(samples) if signs[j] > 0 and signs[j - 1] < 0)
    return PolarChamberReport(pole=pole, radius=rho, sign_changes=changes, n_plus=n_plus)


# ---------------------------------------------------------------------------
# Point-cloud export and clustering (n = 2)
# ---------------------------------------------------------------------------


def _float_mesh_eval(p: Polynomial, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    out = np.zeros(xs.shape, dtype=np.float64)
    for ev, coeff in p.terms.items():
        term = float(coeff) * np.ones_like(out)
        ex, ey = ev.space_exps
        if ex:
            term = term * xs ** ex
        if ey:
            term = term * ys ** ey
        if ev.t_exp:
            term = term * ts ** ev.t_exp
        out += term
    return out


def _sphere_points(thetas: np.ndarray, phis: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Unit-sphere (x, y, t) at every (longitude, latitude) pair of the mesh."""
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    return np.cos(tg) * np.cos(pg), np.sin(tg) * np.cos(pg), np.sin(pg)


def export_nodal_pointcloud(
    p: Polynomial,
    resolution: int = 256,
    annulus_delta: float = 0.1,
    path: Optional[str] = None,
    shells: int = 8,
) -> List[Tuple[float, float, float]]:
    """Sample the nodal set of p inside the spherical shell B_1 \\ B_{1-delta}.

    On each of `shells` concentric sphere radii a longitude/latitude grid is
    evaluated; midpoints of sign changes between neighboring samples are
    emitted as (x, y, t) rows, suitable for external plotting.  When `path`
    is given the rows are also written as CSV with 17 significant digits.
    """
    if p.spatial_dim != 2:
        raise NodalError("point-cloud export is defined for n = 2")
    if not 0.0 < annulus_delta < 1.0:
        raise NodalError("annulus delta must lie strictly between 0 and 1")
    if resolution < 2:
        raise NodalError("resolution must be >= 2")
    thetas = (np.arange(2 * resolution) + 0.5) * (2.0 * np.pi / (2 * resolution))
    phis = -np.pi / 2 + (np.arange(resolution) + 0.5) * (np.pi / resolution)
    ux, uy, ut = _sphere_points(thetas, phis)

    points: List[Tuple[float, float, float]] = []
    for radius in np.linspace(1.0 - annulus_delta, 1.0, shells):
        values = _float_mesh_eval(p, radius * ux, radius * uy, radius * ut)
        signs = np.sign(values)

        def emit(mask: np.ndarray, sx: np.ndarray, sy: np.ndarray, st: np.ndarray) -> None:
            mx, my, mt = sx[mask], sy[mask], st[mask]
            norm = np.sqrt(mx * mx + my * my + mt * mt)
            norm[norm == 0] = 1.0
            for px, py, pt in zip(mx / norm * radius, my / norm * radius, mt / norm * radius):
                points.append((float(px), float(py), float(pt)))

        flip_theta = (signs * np.roll(signs, -1, axis=0)) < 0
        emit(
            flip_theta,
            (ux + np.roll(ux, -1, axis=0)) / 2,
            (uy + np.roll(uy, -1, axis=0)) / 2,
            (ut + np.roll(ut, -1, axis=0)) / 2,
        )
        flip_phi = (signs[:, :-1] * signs[:, 1:]) < 0
        emit(
            flip_phi,
            (ux[:, :-1] + ux[:, 1:]) / 2,
            (uy[:, :-1] + uy[:, 1:]) / 2,
            (ut[:, :-1] + ut[:, 1:]) / 2,
        )

    if path is not None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("x,y,t\n")
            for px, py, pt in points:
                handle.write(f"{px:.17g},{py:.17g},{pt:.17g}\n")
    return points


def cluster_count(points: Sequence[Tuple[float, float, float]], gap: float) -> int:
    """Number of single-linkage clusters when edges join points closer than gap."""
    if not points:
        return 0
    # deferred: scipy.spatial would add to the import time of every CLI run
    from scipy.spatial import cKDTree

    arr = np.asarray(points, dtype=np.float64)
    # the tree only preselects (its rounding differs by ulps); the strict
    # squared-distance test below, one dot product per pair, decides
    pairs = cKDTree(arr).query_pairs(gap * (1 + 1e-9), output_type="ndarray")
    diff = arr[pairs[:, 0]] - arr[pairs[:, 1]]
    close = (diff[:, None, :] @ diff[:, :, None]).ravel() < gap * gap
    count, _ = _components(len(arr), pairs[close, 0], pairs[close, 1])
    return count


# ---------------------------------------------------------------------------
# Proven bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Known nodal-count bounds for time-dependent degree-d solutions in n+1 dims."""

    n: int
    d: int
    min_count: int
    product_lower_bound: int
    courant_upper_bound: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "min_domains": self.min_count,
            "max_lower_bound": self.product_lower_bound,
            "max_upper_bound": self.courant_upper_bound,
        }


def min_nodal_domains(n: int, d: int) -> int:
    """Minimum nodal-domain count over time-dependent degree-d solutions."""
    if n == 1:
        return 2 * ((d + 1) // 2)
    if n == 2:
        return 3 if d % 4 == 0 else 2
    return 2


def bounds_report(n: int, d: int, counted: Optional[Union[int, ComponentReport]] = None) -> BoundsReport:
    """Bounds m_{n,d} <= N <= C(n+d, n), enforced when a count is supplied.

    The lower bound floor(d/n)^n applies to the maximal count and is reported
    for product-family comparisons.  A supplied count outside
    [min, binomial] raises BoundViolation: that signals a counting bug, not
    an interesting polynomial.
    """
    if n < 1 or d < 2:
        raise NodalError("bounds need n >= 1 and d >= 2")
    report = BoundsReport(
        n=n,
        d=d,
        min_count=min_nodal_domains(n, d),
        product_lower_bound=(d // n) ** n,
        courant_upper_bound=math.comb(n + d, n),
    )
    if counted is not None:
        value = counted.total if isinstance(counted, ComponentReport) else int(counted)
        if not report.min_count <= value <= report.courant_upper_bound:
            raise BoundViolation(
                f"counted {value} nodal domains outside "
                f"[{report.min_count}, {report.courant_upper_bound}] for (n, d) = ({n}, {d})"
            )
    return report


# ---------------------------------------------------------------------------
# Spherical-grid oracle (float path, n = 2)
# ---------------------------------------------------------------------------


def sphere_grid_count(p: Polynomial, resolution: int = 256) -> ComponentReport:
    """Independent nodal count on a longitude/latitude sphere grid (float signs).

    This is the cross-check oracle for the cube-exact pipeline: same
    reduction to the unit sphere, entirely different sampling surface and
    arithmetic.  Near-zero values (relative 1e-12) count as zero cells, and
    the same eighth-point probing guards same-sign adjacency.
    """
    if p.spatial_dim != 2:
        raise NodalError("the spherical oracle is defined for n = 2")
    m, k = 2 * resolution, resolution
    d_theta = 2.0 * np.pi / m
    d_phi = np.pi / k
    thetas = (np.arange(m) + 0.5) * d_theta
    phis = -np.pi / 2 + (np.arange(k) + 0.5) * d_phi

    def grid_values(theta_vals: np.ndarray, phi_vals: np.ndarray) -> np.ndarray:
        return _float_mesh_eval(p, *_sphere_points(theta_vals, phi_vals))

    def grid_signs(values: np.ndarray) -> np.ndarray:
        out = np.sign(values).astype(np.int8)
        out[np.abs(values) < 1e-12 * scale] = 0
        return out

    base_values = grid_values(thetas, phis)
    scale = float(np.abs(base_values).max()) or 1.0
    signs = grid_signs(base_values)

    # theta wraps around: repeating row 0 after the last row makes the seam
    # one more edge along axis 0
    wrap = np.append(np.arange(m), 0)

    def probe(slot: int, eighth: int) -> np.ndarray:
        if slot == 0:
            return grid_signs(grid_values(thetas + eighth * d_theta / 8.0, phis))
        return grid_signs(grid_values(thetas, phis[:-1] + eighth * d_phi / 8.0))[wrap]

    idx = np.arange(signs.size, dtype=np.int64).reshape(signs.shape)
    edges = [_probed_edges(signs[wrap], idx[wrap], probe)]
    # poles join every same-sign cell of the adjacent latitude row
    for pole_point, row_index in (((0.0, 0.0, 1.0), k - 1), ((0.0, 0.0, -1.0), 0)):
        pole_value = p.evaluate_float(pole_point)
        if abs(pole_value) < 1e-12 * scale:
            continue
        members = idx[:, row_index][signs[:, row_index] == (1 if pole_value > 0 else -1)]
        edges.append((np.repeat(members[:1], len(members)), members))
    rows, cols = (np.concatenate(part) for part in zip(*edges))
    _, labels = _components(signs.size, rows, cols)
    positive, negative = _sign_split(labels, signs.ravel())
    return ComponentReport(
        total=positive + negative,
        positive=positive,
        negative=negative,
        resolutions_used=(resolution,),
        stable=False,
        zero_cell_fraction=float((signs == 0).sum()) / signs.size,
        method="sphere-float",
    )
