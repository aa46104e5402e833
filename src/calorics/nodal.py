"""Nodal domain counting for parabolically homogeneous polynomials.

Counting reduces to a compact cross-section: every parabolic ray
{(lambda x, lambda^2 t) : lambda > 0} through a nonzero point crosses the
cube boundary of [-1, 1]^{n+1} exactly once (max(lambda |x_i|, lambda^2 |t|)
is strictly increasing in lambda), and sign(p) is constant along rays, so
nodal domains of p biject with sign components on the cube surface.

For n = 1 the surface is the loop around the square |x|, |t| <= 1, and the
count is exact: _loop_signs gives the exact sign at each corner and the
sign_arcs of each side, and each nodal domain is one maximal arc of nonzero
sign (method "cube-loop", no schedule).  polar_chambers reads the same loop
around a pole of an n = 2 face.

For n >= 2 the surface is sampled on a grid.  Unlike the unit sphere, the
cube has cell centers with exact rational coordinates, so every sampled
sign is exact and only the connectivity (grid resolution) is heuristic.
Those counts are therefore reported as HEURISTIC-STABILIZED: a count is
`stable` when the last three resolutions of a schedule agree on the
(positive, negative) split, never certified.  With no schedule given,
nodal_count climbs the x2 ladder of DEFAULT_SCHEDULES and stops at the
first three rungs that agree; an input that never agrees runs every rung.
cube_section_sample and count_components take n = 1 too, as the loop's
test oracle.

Sign evaluation clears denominators and works on integers.  Every mesh is
a face of a stack (_MeshForm): the faces share their mesh numerators, each
at most 2^53 so that it converts to a float exactly, and the coordinates a
face fixes are substituted exactly.  A float pass then evaluates the stack
as a chain of tensor contractions with one Vandermonde matrix per mesh
axis (V_a C V_b^T on a 2-D face), together with a rigorous
rounding-error bound in two tiers.  The face-wide tier takes one exact
integer per face, S_f = sum_T |C_T| prod_s top_s^(e_s) with top_s the
largest |numerator| of axis s, which bounds the sum of |terms| of P on
every cell; times kappa eps (Higham, Accuracy and Stability of Numerical
Algorithms, Sec. 3.1) it bounds every cell's rounding error.  When every
cell of a group clears it, the pass makes one contraction, and no cell is
zero.  Otherwise, and when S_f leaves the float range, a second contraction
of |C| with |m| gives each cell its own bound.  Cells whose |value| falls
under the bound (in particular all exact zeros) are re-evaluated with exact
integer arithmetic, in one batch per face, so no sign is ever trusted to
floating point.  An exact zero is a one-cell run with no edge: a cell
center on the nodal set neither welds two domains nor joins across a zero.
cube_section_sample evaluates a piece of each orbit of faces under the
signed reflections of p and copies the rest.  rho_R flips the space axes
in a set R and keeps t; p(rho_R x, t) = s_R p(x, t) exactly when the
exponents in R of every term of p add up to one parity, s_R = (-1)^that
parity.  sigma: x -> -x always qualifies, with s = (-1)^d, since every
term x^alpha t^k has |alpha| + 2k = d; it maps the face x_a = +1 onto
x_a = -1 and each t face onto itself.  rho_R maps the cell centers
(2i + 1 - r)/r and the cube edges onto themselves, and each segment between
them onto a segment, so each sign of an image is s_R times its source's,
and each root-free decision (stitch legs included) is its source's.  A face
goes by halves where that adds no float pass: a t face along x_1, folded
onto itself by sigma, and a face x_a = +1 along x_b (b the first space axis
other than a) by rho_b, where every term has exponents of one parity in x_b,
as products of 1-D heat polynomials have in every coordinate.  A half runs
from its centre to the cube edge, after one ghost layer, the image of an
evaluated one: the seam edges between the halves are decided in the half's
own form, and each ghost run takes the id of the image of a source run, so
the ghost adds no node.  The evaluated faces go in stacked groups of at
most 2^18 cells (one face when a face alone is larger), each face on its
cell centers plus the cube edges around it, and slice_count evaluates an
n >= 2 box as a stack of one face.  Each group is one form: it gives the
group's exact signs, its complete merge masks (_MeshForm.merge_masks), and
one graph of runs, which the images copy into the face signs and a table
of node ids per (face, mesh axis, end) side: an image that reverses mesh
axis 0 starts that axis and any other ends it.  Once the last group is in,
one gather reads each stitch across a cube edge from the two sides there.

Adjacency is certified: two same-sign cells sharing a facet merge only when
the segment joining their centers is proven free of roots of p.  Four
stages decide each edge, the first that can:

  (a) the face-wide chord test, min(|P(lo)|, |P(hi)|) > h^2 / 8 * D2_s, on
      each face as its group is evaluated;
  (b) the same chord test per edge, with D2 from the edge's own line;
  (c) the Bernstein coefficients of the restriction of p to the segment,
      all of one sign by a certified margin, after up to four de Casteljau
      halvings (Descartes' rule in Bernstein form; Collins & Akritas 1976,
      Farouki & Rajan 1987);
  (d) an exact Sturm count on the integer restriction (a primitive
      pseudo-remainder sequence in Python ints, from univariate), once per
      distinct line and ends.

_MeshForm.merge_masks runs them once per form, while the form is alive,
each stage on the edges the one before it left: (a) on each mesh axis,
(b) and (d) on every axis's edges at once, and (c) on each axis that
still has edges, at its own degree (axes of one degree, side by side,
in one call).  So each group's graph of runs is built from complete
merge masks and its partition is that of the per-cell graph.

The chord bound: on a segment of step h whose ends share a sign, the chord
between the end values stays min(|P(lo)|, |P(hi)|) from zero, and P leaves
it by at most |P''(xi)| (z - lo)(hi - z) / 2 <= h^2 / 8 max |P''|.  Stage
(a) bounds |P''| along axis s once per face and axis, in exact ints,
D2_s = sum_T |C_T| e_s (e_s - 1) prod top^(e - 2 delta_s) with top the
largest |numerator| of each axis, takes the largest step of the axis and
compares every cell's certified lower bound on |P| with the one threshold,
rounded up: no contraction.  Where D2_s = 0, P is affine along the axis and
every edge between cells of one nonzero sign merges.  Stage (b) bounds
|P''| per edge from the float line coefficients that (c) uses too, each
widened by its rounding bound once per mesh line, and rounds the threshold
up by a _kappa slack over the roundings of its own evaluation;
O(edges x exponents).  A threshold that overflows is inf, and one that
meets inf * 0 is nan: either certifies nothing.  Each line's coefficients
are laid out over every power 0 .. U of the form, U its top exponent on
any mesh axis (a padded zero adds nothing, or a nan that certifies
nothing), Bernstein coefficients take the top exponent of the edge's own
axis as their degree, and each rounding count K covers the form's number
of terms in each sum, padded to the union of its faces' exponents.

A cross-face stitch bends through the shared cube edge: each of its two
legs runs from an edge cell center to the cube edge, and both must be
certified in the same way.  Every merge therefore has a proof, and each
graph component lies inside one true nodal domain, so the count is at least
the number of domains that the cells meet; the proven bounds still check
it.  What stays heuristic is the other direction -- one domain whose cells
join only through paths the grid misses counts more than once -- and that
under-merging is what the multi-resolution stability gate corrects.  Plain
same-sign adjacency would weld distinct nodal domains across the thin
wedges where nodal sheets cross, e.g. the two positive domains of
(2t + x^2)(2t + y^2), or across the thin sign bands at the parabolic cusps
of the product family, and no amount of refinement repairs that.

The exact paths (the n = 1 loop and slice, the bounds) never touch numpy:
the module global np is a stand-in that imports numpy at the first float
operation and rebinds np to it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .polyring import Polynomial, parabolic_degree
from .univariate import Rational, _poly_trim, _sturm_count, sign_arcs


class _LazyNumpy:
    """Stands in for numpy until the first float operation reads an attribute.

    That read imports numpy and rebinds the module global np to it, so the
    exact paths never import numpy and every later lookup is numpy's own.
    """

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

# the x2 ladder, per ambient dimension, that nodal_count climbs when no
# schedule is given, up to the first three rungs that agree
DEFAULT_SCHEDULES: Dict[int, Tuple[int, ...]] = {
    3: (32, 64, 128, 256),
    4: (12, 24, 48, 96),
}
MAX_COUNT_DEGREE = 64
# the most digits of a bound of bounds_report: C(2n, n) has 6,019 at n = 10^4,
# past Python's default int-to-str limit, and takes minutes at n = 3 * 10^6
MAX_BOUND_DIGITS = 4000
# The most cells one sampled mesh may hold: a cube face with the cube edges
# around it ((r + 2)^(n) for n space variables), the slice box (r^n), or the
# 2r x r sphere grid of export and the float oracle.  Each float array of such
# a mesh takes 8 bytes a cell, 32 MiB at the cap; it admits r = 2046 for a
# cube face at n = 2, r = 159 at n = 3 and r = 1448 on the sphere, far past
# the defaults.
MAX_MESH_CELLS = 2 ** 22
_EXPORT_SHELLS = 8  # sphere radii sampled across the export annulus
_FLOAT_EPS = sys.float_info.epsilon  # 2^-52, numpy.finfo(numpy.float64).eps


class NodalError(Exception):
    """Base class for counting-layer errors."""


def _check_mesh_cells(side: int, ndim: int) -> None:
    """Raise NodalError before a mesh of side^ndim cells beyond MAX_MESH_CELLS is allocated."""
    if side ** ndim > MAX_MESH_CELLS:
        raise NodalError(f"a mesh of {side}^{ndim} cells exceeds the cap MAX_MESH_CELLS = {MAX_MESH_CELLS}")


def _check_resolution(resolution) -> int:
    """resolution as an int; NodalError unless it is an integer (not a bool) of at least 2."""
    # int() would truncate 16.9 to 16 silently; a plain int never reads np
    if isinstance(resolution, bool) or not (
        isinstance(resolution, int) or isinstance(resolution, np.integer)
    ):
        raise NodalError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise NodalError("resolution must be >= 2")
    return int(resolution)


def _check_numerator(top: int) -> None:
    """Raise NodalError for a mesh numerator of size `top` past 2^53, where floats lose integers."""
    if top > 2 ** 53:
        raise NodalError(
            f"a mesh numerator of {top.bit_length()} bits exceeds 2^53, "
            "past which floats do not hold every integer exactly"
        )


def _check_rational(value, name: str) -> Fraction:
    """value as an exact Fraction (a float at its exact value); NodalError unless it is a finite rational."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise NodalError(f"{name} must be a finite rational, got {value!r}") from exc


class BoundViolation(NodalError):
    """A counted value escaped a proven bound; signals a counting bug."""


# ---------------------------------------------------------------------------
# Exact sign evaluation on integer-numerator meshes
# ---------------------------------------------------------------------------


def _integer_scaled_terms(p: Polynomial, denominator: int):
    """Rewrite p(m/denominator) as an integer form sum C_T * prod m^e.

    Returns (algebraic degree, exponent tuples, exact int coefficients);
    exponents are ordered (x_1, ..., x_n, t).  The rewrite multiplies by the
    positive constant lcm(denominators) * denominator^degree, so signs match.
    """
    degree = p.algebraic_degree()
    lcm = math.lcm(*(coeff.denominator for coeff in p.terms.values()))
    exps = [ev.space_exps + (ev.t_exp,) for ev in p.terms]
    ints = [
        coeff.numerator * (lcm // coeff.denominator) * denominator ** (degree - sum(e))
        for e, coeff in zip(exps, p.terms.values())
    ]
    return degree, exps, ints


AxisValues = Union[int, "np.ndarray"]

_BERNSTEIN_SPLITS = 4  # de Casteljau halvings of an edge before the exact fallback
# floats in each array of one batch of merge stages (b) and (c), 2 MB: a batch
# takes 2^18 / (2 (U + 1)) edges with lines over the powers 0 .. U, and holds
# about ten such arrays at a time, whatever the number of edges
_CASCADE_FLOATS = 2 ** 18
# multiply-adds in one block of _contract's last matrix product: OpenBLAS runs
# a dgemm of at most 2^18 of them on one thread, and a large product with an
# inner dimension of 3-5 otherwise swings 10-30x in time from process to
# process with the start-up of its threads
_GEMM_BLOCK = 2 ** 18


def _kappa(roundings: int) -> float:
    """kappa with kappa * eps over 16 times gamma_K / (1 - gamma_K), K = roundings.

    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.1
    and (3.4)-(3.5): with u = eps/2, a sum of products in any summation order,
    with or without FMA, where each product carries at most K roundings on
    its way to the result, is off by at most gamma_K = K u / (1 - K u) times
    the same sum of |products|.  The same chain on absolute values computes
    that sum to within a factor 1 - gamma_K.
    """
    return 8.0 * (roundings + 4)


def _contract(dense: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis 1 + s of dense with axis 1 of columns[s], into a new array.

    The leading batch axis stays in front, and there is at least one column.
    Each axis but the last is a batch of matrix products, and the last one
    matrix product, issued in row blocks of at most _GEMM_BLOCK
    multiply-adds: no step transposes a mesh-sized array.
    """
    shape = dense.shape[:1] + tuple(len(column) for column in columns)
    batch = len(dense)
    for column in columns[:-1]:
        dense = np.matmul(column, dense.reshape(batch, column.shape[1], -1))
        batch *= len(column)
    last = columns[-1]
    dense = dense.reshape(-1, last.shape[1])
    out = np.empty((len(dense), len(last)))
    rows = max(1, _GEMM_BLOCK // last.size)
    for first in range(0, len(dense), rows):
        np.matmul(dense[first:first + rows], last.T, out=out[first:first + rows])
    return out.reshape(shape)


def _edge_slices(slot: int) -> Tuple[tuple, tuple]:
    """Indices of the low and the high cell of each edge along axis `slot`."""
    lo = (slice(None),) * slot + (slice(None, -1),)
    hi = (slice(None),) * slot + (slice(1, None),)
    return lo, hi


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base^0 .. base^(count - 1) along a new last axis, count >= 1, by cumulative products.

    Each power is the one before it times base, so base^e carries at most
    e - 1 roundings.
    """
    out = base[..., None].repeat(count, axis=-1)
    out[..., 0] = 1
    return np.multiply.accumulate(out, axis=-1, out=out)


@functools.lru_cache(maxsize=None)
def _bernstein_tables(degree: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of Bernstein coefficients of one degree D (= degree).

    (C(j, k) at [j, k]; C(b, k) / C(D, k) at [k, b]; the de Casteljau
    halving at 1/2, C(i, j) / 2^i at [j, i] for the left half and
    C(D - i, j - i) / 2^(D - i) at [j, D + 1 + i] for the right.)  Each
    float is rounded once: a binomial on its conversion, and a power of two
    divides exactly.
    """
    span = range(degree + 1)
    binomials = np.array([[float(math.comb(j, k)) for k in span] for j in span])
    change = np.array([[math.comb(b, k) / math.comb(degree, k) for b in span] for k in span])
    halves = np.array([
        [float(math.comb(i, j)) / 2 ** i for i in span]
        + [float(math.comb(degree - i, j - i)) / 2 ** (degree - i) if j >= i else 0.0 for i in span]
        for j in span
    ])
    for table in (binomials, change, halves):
        table.flags.writeable = False
    return binomials, change, halves


class _MeshForm:
    """p on a stack of meshes of integer numerators over one denominator, as integer forms.

    scaled is _integer_scaled_terms(p, denominator).  faces holds one mesh
    per face, with one entry per coordinate (x_1..x_n, t): either a scalar
    integer numerator or a 1-D integer array of numerators; every coordinate
    equals numerator / denominator.  The faces have one shape and one set of
    numerators: the same arrays, in order, on the axes each face varies (at
    least one), while the axes they fix may differ, as on the faces of the
    cube, or take different values.  Every array has a leading face axis.
    The fixed axes are substituted exactly, so `coeffs[f]` maps exponents of
    face f's varying axes (in coordinate order) to the integer coefficients
    of its P, a positive multiple of p in the numerators.  The dense
    coefficients of all faces are laid out over the union of their exponents
    on each mesh axis, zero where a face has none, and each mesh axis takes
    its power columns from _powers of its numerators.  `terms` holds C and
    |C|, and `tables[s]` m^e and |m^e| on mesh axis s, each on a leading
    axis of two.

    Float evaluation is one chain of tensor contractions, one Vandermonde
    matrix per mesh axis (V_a C V_b^T on a 2-D face), with a rounding bound
    that is tiered (_float_pass): one bound per face, from the exact S_f of
    _top_sums, wherever every cell clears it, else a bound per cell from a
    second contraction.  `signs()` makes the one float pass, and
    `merge_masks` decides every same-sign edge from its lower bound on |P|
    per cell and from the mesh lines of `_lines`, while the form is alive.
    The rounding count K covers the padded number of terms.
    """

    def __init__(self, scaled: tuple, faces: Sequence[Sequence[AxisValues]]):
        self.degree, exps, ints = scaled
        self.varying = [i for i, v in enumerate(faces[0]) if isinstance(v, np.ndarray)]
        self.nums = [faces[0][i] for i in self.varying]
        # the largest |numerator| of each mesh axis, or 1 if that is larger
        self.tops = [max(1, int(np.abs(m).max())) for m in self.nums]
        _check_numerator(max(self.tops))  # the float pass takes every numerator as a float
        self.shape = (len(faces),) + tuple(len(m) for m in self.nums)
        self.coeffs: List[Dict[Tuple[int, ...], int]] = []
        for values in faces:
            varying = [i for i, v in enumerate(values) if isinstance(v, np.ndarray)]
            fixed = [(i, int(v)) for i, v in enumerate(values) if i not in varying]
            coeffs: Dict[Tuple[int, ...], int] = {}
            for e, c in zip(exps, ints):
                for axis, v in fixed:
                    c *= v ** e[axis]
                key = tuple(e[axis] for axis in varying)
                coeffs[key] = coeffs.get(key, 0) + c
            self.coeffs.append({key: c for key, c in coeffs.items() if c})
        # dense over the exponents that occur on each mesh axis; an unused
        # power column could overflow and bring inf * 0 = nan into the mesh.
        # A face is padded with zeros at exponents only other faces have;
        # where such a column overflows, the face that has the exponent
        # overflows on the same cells, and the pass raises either way
        keys = [key for coeffs in self.coeffs for key in coeffs]
        self.powers = [sorted({key[s] for key in keys}) for s in range(len(self.nums))]
        ranks = [{e: k for k, e in enumerate(pw)} for pw in self.powers]
        # C and |C| on a leading axis of two, as are m^e and |m^e| on each mesh axis
        self.terms = np.zeros((2, len(faces)) + tuple(len(pw) for pw in self.powers))
        self.dense = self.terms[0]
        try:
            for face, coeffs in zip(self.dense, self.coeffs):
                for key, c in coeffs.items():
                    face[tuple(rank[e] for rank, e in zip(ranks, key))] = float(c)
        except OverflowError as exc:
            raise NodalError(
                f"degree {self.degree}: a scaled integer coefficient exceeds the float range"
            ) from exc
        np.abs(self.dense, out=self.terms[1])
        self.tables = []
        with np.errstate(over="ignore"):
            for m, pw in zip(self.nums, self.powers):
                # m^e for e = 0 .. the axis's top exponent, one row per numerator
                table = np.empty((2, len(m), len(pw)))
                table[0] = _powers(m.astype(np.float64), max(pw, default=0) + 1)[:, pw]
                np.abs(table[0], out=table[1])
                self.tables.append(table)
        self.columns = [table[0] for table in self.tables]
        self.magnitudes = [table[1] for table in self.tables]
        self.floor: Optional[np.ndarray] = None
        self.nonzero = False  # set by the float pass: the face-wide tier certified every cell; only signs() reads it

    def _roundings(self, skip: Optional[int] = None) -> int:
        # Each product C_T * prod_s m_s^e of a contraction carries at most
        # 1 + sum_s (degree + k_s) roundings: 1 converting its coefficient to
        # float (the fixed axes were substituted exactly before), degree per
        # axis for m^e (_powers multiplies cumulatively, e - 1 roundings;
        # m is an integer of at most 2^53, checked at construction, so exact,
        # and nothing underflows) and k_s for stage s, an
        # inner product over the k_s exponents of axis s (padded ones
        # included).  An edge's line skips its slot axis, which it does not
        # contract.
        return 1 + sum(self.degree + len(pw) for s, pw in enumerate(self.powers) if s != skip)

    @functools.cached_property
    def _term_tops(self) -> List[List[Tuple[int, Tuple[int, ...]]]]:
        """Per face, each term T as (|C_T| prod_r top_r^(e_r), e), in exact Python ints."""
        span = range(self.degree + 1)
        powers = [[top ** e for e in span] for top in self.tops]
        return [
            [(abs(c) * math.prod(pw[e] for pw, e in zip(powers, key)), key) for key, c in coeffs.items()]
            for coeffs in self.coeffs
        ]

    def _top_sums(self, order: int, slot: int = 0) -> List[int]:
        """Per face, sum_T |C_T| e_s! / (e_s - order)! prod_r top_r^(e_r - order delta_rs), s = slot.

        top_r is the largest |numerator| on mesh axis r, or 1 if that is
        larger.  Every cell of the mesh, and every point of a segment
        between two of them, has |m_r| <= top_r, so the sum bounds the
        order-th derivative along axis s of sum_T |C_T prod m^e| there.
        Order 0 is the face's S_f (the slot plays no part), order 2 its
        D2_s: the same sum, with the slot's powers top^e replaced by their
        order-th derivatives.  Exact Python ints: each term of _term_tops
        times e_s! / (e_s - order)!, which is zero unless e_s >= order, and
        then the term holds top_s^order, so the sum divides by it exactly.
        """
        scale = self.tops[slot] ** order
        return [sum(top * math.perm(key[slot], order) for top, key in terms) // scale for terms in self._term_tops]

    def _face_bound(self) -> Optional[np.ndarray]:
        """beta_f per face, a float at least (1 + (K + 2) u) kappa eps S_f; None if some S_f >= 2^1023.

        S_f = sum_T |C_T| prod_r top_r^(e_r) (_top_sums) bounds the sum of
        |terms| of P on every cell, so beta_f >= kappa eps S_f bounds the
        rounding error of the float pass on every cell of face f (_kappa).
        The factor 1 + (K + 2) u, u = eps / 2, covers the roundings of the
        per-cell bound of _cell_bound, which computes the same sum on one
        cell at most (1 + u)(1 + gamma_K) <= 1 + (K + 2) u times too high:
        beta_f is at least that bound on every cell.  It is taken from the
        exact int S_f kappa (2^53 + K + 2) by one correctly rounded division
        by 2^105 and one step up.
        """
        sums = self._top_sums(0)
        if max(sums).bit_length() > 1023:
            return None
        roundings = self._roundings()
        scale = int(_kappa(roundings)) * (2 ** 53 + roundings + 2)
        return np.array([math.nextafter(s * scale / 2 ** 105, math.inf) for s in sums])

    def _cell_bound(self) -> np.ndarray:
        """Each cell's rounding bound of the float pass: kappa eps times the contraction of |C| with |m|."""
        with np.errstate(over="ignore", invalid="ignore"):
            bound = _contract(self.terms[1], self.magnitudes)
            bound *= _kappa(self._roundings()) * _FLOAT_EPS
        return bound

    def _float_pass(self) -> Tuple[np.ndarray, np.ndarray]:
        """(signs, floor): int8 signs of float P on the mesh and a lower bound on |P|.

        floor is |P| in floats less a rounding bound: positive exactly where
        the float sign is certified, and -inf or nan where the pass
        overflowed.  The bound is tiered.  The face-wide tier contracts the
        values only and certifies a cell when beta_f < |v| (_face_bound).
        If every cell of the mesh clears it, floor = |v| - beta_f, and
        `nonzero` records that no cell is zero.  Otherwise, or if some S_f
        reaches 2^1023, floor takes the per-cell bound (_cell_bound), one
        more contraction.

        No float of the face-wide tier overflows.  Each rounded power
        fl(m^e) is at most (1 + gamma_K) top^e, and each product, partial
        sum and intermediate of the contraction chain is at most
        (1 + gamma_K) times a sum of |C_T| prod_r top_r^(e_r) over some terms
        T of one face (top_r >= 1 covers the axes not yet contracted), so at
        most (1 + gamma_K) S_f < 2^1024.  So |v| < inf needs no test, and a
        padded zero coefficient meets only finite powers.
        """
        # an overflow becomes inf or nan here; no bound certifies it
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _contract(self.dense, self.columns)
            # int8 signs without a float temporary, the meshes are large:
            # [|v| > 0] - 2 [v < 0], which is 0 where v is 0 or nan
            signs = (vals < 0).view(np.int8)
            signs *= -2
            floor = np.abs(vals, out=vals)
            beta = self._face_bound()
            self.nonzero = beta is not None and bool((floor.reshape(len(beta), -1).min(axis=1) > beta).all())
            if self.nonzero:  # every |v| > beta_f >= 0
                signs += 1
                floor -= beta.reshape((-1,) + (1,) * len(self.nums))
                return signs, floor
            signs += (floor > 0).view(np.int8)
            return signs, np.subtract(floor, self._cell_bound(), out=floor)

    def signs(self) -> np.ndarray:
        """Exact signs of p on the mesh, an int8 array in {-1, 0, +1}.

        Cells whose float sign is not certified (in particular all exact
        zeros) are re-evaluated in exact integer arithmetic, one batch of
        Python ints per face with that face's P.  When the face-wide tier
        certifies every cell, no cell is looked at again.
        """
        if not any(self.coeffs):
            return np.zeros(self.shape, dtype=np.int8)
        signs, self.floor = self._float_pass()
        if self.nonzero:
            return signs
        # flat views: the exact signs of uncertain cells replace the float
        # ones in place
        flat, floor = signs.reshape(-1), self.floor.reshape(-1)
        uncertain = ~(floor > 0)  # overflowed cells are uncertain
        if uncertain.any():
            if not np.isfinite(floor[uncertain]).all():
                raise NodalError(f"degree {self.degree}: the float pass of sign evaluation overflows")
            index = np.flatnonzero(uncertain)
            face, *cell = np.unravel_index(index, self.shape)
            for k, coeffs in enumerate(self.coeffs):  # each face's cells at once, in Python ints
                ms = [m.astype(object)[i[face == k]] for m, i in zip(self.nums, cell)]
                total = sum(c * math.prod(m ** e for m, e in zip(ms, key)) for key, c in coeffs.items())
                flat[index[face == k]] = np.sign(total)
        return signs

    def merge_masks(self, signs: np.ndarray, counts: Dict[tuple, bool], rim: bool) -> List[np.ndarray]:
        """The merge mask of each mesh axis: its same-sign edges proven root-free.

        signs are the exact signs of `signs()`; the mask of mesh axis s is
        shaped like them with axis 1 + s shortened by one.  Stage (a)
        (chord_mask) decides what it can on each axis, and _root_free's
        stages (b)-(d) take what it leaves on every axis, once per form, each
        stage what the one before it left.  With `rim`, edges whose cells lie
        on the first or last layer of another mesh axis (a cube face's rim, in
        no graph) skip stages (b)-(d).  `counts` keeps stage (d)'s Sturm counts
        across one cross-section.
        """
        masks, edges = [], []
        # an overflow becomes inf or nan in stages (b) and (c), which certifies nothing
        with np.errstate(over="ignore", invalid="ignore"):
            for slot in range(len(self.nums)):
                merged, left = self.chord_mask(slot, signs)
                if rim:
                    for s in range(1, signs.ndim):
                        if s != slot + 1:
                            left[(slice(None),) * s + (0,)] = left[(slice(None),) * s + (-1,)] = False
                masks.append(merged)
                edges.append(left.ravel().nonzero()[0])
            del left  # before the edges' lines are contracted
            free = self._root_free(edges, signs, counts)
        first = 0
        for merged, low in zip(masks, edges):
            merged.reshape(-1)[low[free[first:first + len(low)]]] = True
            first += len(low)
        return masks

    def chord_mask(self, slot: int, signs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(merged, left): the same-sign edges along `slot` that stage (a) certifies, and the others.

        Both masks are shaped like the masks of `merge_masks`.  Stage (a) is
        the face-wide chord test: one threshold per face, at the mesh's
        largest step along the slot, and every candidate edge between two
        cells whose floors clear it merges.
        """
        lo, hi = _edge_slices(1 + slot)
        candidates = signs[lo] * signs[hi] > 0
        if not candidates.any():
            return candidates, np.zeros_like(candidates)
        steps = self.nums[slot][1:] - self.nums[slot][:-1]
        clear = self.floor > self._face_chord(slot, int(np.abs(steps).max()))
        merged = clear[lo] & clear[hi]
        merged &= candidates
        return merged, candidates ^ merged

    def _face_chord(self, slot: int, step: int) -> np.ndarray:
        """A float at least step^2 / 8 * D2_s, with D2_s >= |d^2 P / dm_s^2| on the whole mesh.

        D2_s = sum_T |C_T| e_s (e_s - 1) prod_r top_r^(e_r - 2 delta_rs), with
        top_r the largest |numerator| on axis r (s = slot), bounds the second
        derivative along the slot wherever every |m_r| <= top_r, so on every
        segment of the mesh.  It is an exact Python int; the one rounding of
        the division is undone by one step up.  A threshold beyond the float
        range is inf, which certifies nothing.  Where D2_s = 0, P is affine
        along the slot: two cells of one nonzero sign have no root between
        them, and the threshold is -inf.  One threshold per face, shaped to
        broadcast over the stack.
        """
        chords = []
        for d2 in self._top_sums(2, slot):
            try:
                chords.append(math.nextafter(step * step * d2 / 8, math.inf) if d2 else -math.inf)
            except OverflowError:
                chords.append(math.inf)
        return np.array(chords).reshape((-1,) + (1,) * len(self.nums))

    def _lines(self, slots: Sequence[int], width: int) -> np.ndarray:
        """(c, a) of P on every mesh line along the axes `slots`, once per form, shape (lines, 2, width).

        The lines of each axis in `slots` come in turn, each axis's (face,
        point of the other mesh axes) raveled in order, and each line holds
        its coefficients at their powers 0 .. width - 1, zero where the axis
        lacks one.  Each other axis is contracted in turn over all its
        numerators, which leaves the restriction q(m) = sum_j c_j m^j of each
        line along axis s, and a is the same contraction of |C| with |m|, a
        float of the sum A_j of the |terms| of c_j: in any summation order,
        c_j is within gamma_K A_j of its exact value, and
        A_j <= a_j / (1 - gamma_K), K = _roundings(skip=s).
        """
        cells = math.prod(self.shape)
        table = np.zeros((sum(cells // self.shape[1 + s] for s in slots), 2, width))
        first = 0
        for slot in slots:
            others = [s for s in range(len(self.nums)) if s != slot]
            # the slot's exponents last; each other axis k_s -> m_s in its place
            values = self.terms.transpose(0, 1, *(2 + s for s in others), 2 + slot)
            shape = list(values.shape)
            for k, s in enumerate(others):
                block = values.reshape(2, -1, shape[2 + k], math.prod(shape[3 + k:]))
                values = np.matmul(self.tables[s][:, None], block)
                shape[2 + k] = len(self.nums[s])
            last = first + cells // self.shape[1 + slot]
            exps = self.powers[slot]
            if exps[-1] == len(exps) - 1:  # every power 0 .. top: a slice, not a scatter
                exps = slice(len(exps))
            table[first:last, :, exps] = values.reshape(2, -1, shape[-1]).transpose(1, 0, 2)
            first = last
        return table

    def _root_free(self, edges: Sequence[np.ndarray], signs: np.ndarray, counts: Dict[tuple, bool]) -> np.ndarray:
        """Root-free mask of the edges that stage (a) left: stages (b)-(d), once per form.

        edges[s] holds flat indices into the merge mask of mesh axis s, and
        the returned mask covers every axis's edges in turn.  Each edge reads
        its line from the table of _lines, laid out over every power 0 .. U,
        U >= 2 at least the top exponent of every mesh axis, zero where its
        own axis lacks one.  In batches of at most _CASCADE_FLOATS floats per
        array, which bounds their float temporaries, (b) takes the edges of
        every axis at once and (c) the edges of each run of axes of one top
        exponent at that degree, so each axis at its own; (d) takes what (c)
        leaves.
        """
        sizes = [len(q) for q in edges]
        free = np.zeros(sum(sizes), dtype=bool)
        slots = [s for s, size in enumerate(sizes) if size]
        if not slots:
            return free
        shape = signs.shape
        points = np.concatenate(self.nums)
        # per mesh axis: its stride in signs, its length less one, and the offsets of its
        # lines in the table of _lines (which holds the lines of `slots` in turn) and of
        # its numerators in points; each edge reads those of its axis
        line_counts = [math.prod(shape) // shape[1 + s] for s in slots]
        lines = [0] * len(sizes)
        for s, first in zip(slots, itertools.accumulate(line_counts, initial=0)):
            lines[s] = first
        stride, layers, line, at = np.array([
            [math.prod(shape[2 + s:]) for s in range(len(sizes))], [length - 1 for length in shape[1:]],
            lines, [0, *itertools.accumulate(map(len, self.nums[:-1]))],
        ]).repeat(sizes, axis=1)
        # each edge's lower cell, flat in signs (an index into its axis's mask skips the
        # axis's last layer), its line, and the index of the cell's numerator in points
        low = np.concatenate([edges[s] for s in slots])
        outer, inner = np.divmod(low, stride)
        outer, index = np.divmod(outer, layers)
        outer *= stride
        low += outer
        line += outer
        line += inner
        at += index
        floor = self.floor.reshape(-1)
        floor = np.minimum(floor[low], floor[low + stride])
        signs = signs.reshape(-1)[low]
        # per numerator m0: m0, |m0|, the step h to the next numerator, |h|, and the reach
        # max(|m0|, |m0 + h|), in floats; each edge reads them at its lower end
        steps = np.empty((5, len(points)))
        steps[0] = points
        steps[4, :-1] = steps[0, 1:]
        steps[4, -1] = steps[0, -1]
        np.subtract(steps[4], steps[0], out=steps[2])
        np.abs(steps[0], out=steps[1])
        np.abs(steps[2], out=steps[3])
        np.maximum(steps[1], np.abs(steps[4]), out=steps[4])
        width = max(2, *(self.powers[s][-1] for s in slots)) + 1
        table = self._lines(slots, width)
        # the K of each axis's lines (_lines); stage (b)'s bound on each line: j (j - 1)
        # times |c~_j| + kappa eps a_j >= |c_j| for j = 2 .. U (_edge_chord)
        ks = [float(self._roundings(skip=s)) for s in range(len(sizes))]
        scales = np.array([_kappa(ks[s]) * _FLOAT_EPS for s in slots]).repeat(line_counts)
        curvature = table[:, 1, 2:] * scales[:, None]
        curvature += np.abs(table[:, 0, 2:])
        curvature *= _bernstein_tables(width - 1)[0][2:, 2] * 2  # j (j - 1) = 2 C(j, 2), exact
        roundings = np.array(ks).repeat(sizes)  # each edge's K, as a float
        # stage (c) takes the axes with edges in runs of one top exponent, side by side, each
        # run at that degree: [degree, end of its edges]
        bounds = [0, *itertools.accumulate(sizes)]
        runs = []
        for s in slots:
            top = self.powers[s][-1]
            if runs and runs[-1][0] == top:
                runs[-1][1] = bounds[s + 1]
            else:
                runs.append([top, bounds[s + 1]])

        left = []
        size = max(1, _CASCADE_FLOATS // (2 * width))
        for first in range(0, len(free), size):
            last = min(first + size, len(free))
            # (b) on every edge of the batch, over the powers 0 .. U
            batch = slice(first, last)
            chord = _edge_chord(curvature[line[batch]], floor[batch], steps[2::2, at[batch]])
            free[batch] = chord
            # (c) on what (b) leaves, run by run, each at its own degree
            rest = (~chord).nonzero()[0]
            if not len(rest):
                continue
            cuts = rest.searchsorted([min(max(end - first, 0), last - first) for _, end in runs]).tolist()
            rest += first
            rows = table[line[rest]]
            rows[:, 0] *= signs[rest, None]  # orient: both ends positive
            decided = np.empty((2, len(rest)), dtype=bool)  # root-free, rooted
            for (top, _), i, j in zip(runs, [0, *cuts], cuts):
                if i < j:
                    edge = rest[i:j]
                    coeffs = _bernstein(top, rows[i:j, :, :top + 1], roundings[edge], steps[:4, at[edge]].T)
                    decided[:, i:j] = _bernstein_decide(*coeffs)
            free[rest[decided[0]]] = True
            left.append(rest[~(decided[0] | decided[1])])

        # (d) on what (c) leaves: one exact line per line of the table, and one Sturm count
        # per distinct line and ends
        left = np.concatenate(left) if left else ()
        if not len(left):
            return free
        exact: Dict[int, Tuple[int, ...]] = {}
        for e, key, cell, near, far in zip(
            left.tolist(), line[left].tolist(), low[left].tolist(), points[at[left]].tolist(), points[at[left] + 1].tolist()
        ):
            if key not in exact:
                slot = bisect.bisect_right(bounds, e) - 1
                face, *cell = np.unravel_index(cell, shape)
                ms = [int(m[i]) for s, (m, i) in enumerate(zip(self.nums, cell)) if s != slot]
                exact[key] = _exact_line(self.coeffs[face], slot, ms)
            # ends are nonzero: no root sits on one
            args = (exact[key], *sorted((near, far)))
            if args not in counts:
                counts[args] = _sturm_count(*args) == 0
            free[e] = counts[args]
        return free


def _halves(coeffs: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of each row on the two halves of its interval (de Casteljau), left then right.

    Row e of coeffs gives rows 2e and 2e + 1, one matrix product with the
    halving table of _bernstein_tables.
    """
    return (coeffs @ _bernstein_tables(coeffs.shape[1] - 1)[2]).reshape(-1, coeffs.shape[1])


def _bernstein_decide(coeffs: np.ndarray, bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(root-free, rooted) masks of edges from their oriented Bernstein coefficients.

    Row e holds the Bernstein coefficients of a polynomial that is positive
    at both ends of its edge, each within bounds[e] of its exact value.  A
    piece of an edge is root-free when all its coefficients are certified
    positive: the polynomial is a convex combination of them (Descartes'
    rule in Bernstein form).  An edge has a root when a piece end, an exact
    value of the polynomial, is certified negative.  Pieces that are neither
    are halved, up to _BERNSTEIN_SPLITS times; an edge left undecided is in
    neither mask.
    """
    width = coeffs.shape[1]
    ends = slice(None, None, max(width - 1, 1))  # the first and the last coefficient
    rooted = np.zeros(len(coeffs), dtype=bool)
    owner = np.arange(len(coeffs))
    radius = bounds
    for split in range(_BERNSTEIN_SPLITS + 1):
        if split:
            # each halved coefficient is a convex combination of the piece's
            # (the halving weights of a row sum to 1), whose errors it
            # carries at most max radius, and it rounds by at most gamma_K
            # max |b|, K = width + 1: 1 converting its weight, 1 multiplying
            # and width - 1 adding.  gamma_K <= width * eps for width >= 2,
            # and a width of 1 is exact, so one radius per piece grows by
            # width * eps * max |b|
            spread = np.abs(coeffs).max(axis=1, keepdims=True)
            radius = (radius.max(axis=1, keepdims=True) + width * _FLOAT_EPS * spread).repeat(2, axis=0)
            coeffs = _halves(coeffs)
            owner = owner.repeat(2)
        rooted[owner[(coeffs[:, ends] < -radius[:, ends]).any(axis=1)]] = True
        open_piece = ~((coeffs > radius).all(axis=1) | rooted[owner])
        coeffs, radius, owner = coeffs[open_piece], radius[open_piece], owner[open_piece]
        if not len(owner):
            break
    free = ~rooted
    free[owner] = False
    return free, rooted


def _exact_line(coeffs: Dict[tuple, Rational], slot: int, ms: Sequence[Rational]) -> Tuple[Rational, ...]:
    """Coefficients of P (coeffs) along slot, with the other axes at ms in order: ints from ints, or rationals."""
    line = [0] * (1 + max((key[slot] for key in coeffs), default=-1))
    for key, c in coeffs.items():
        line[key[slot]] += c * math.prod(m ** e for m, e in zip(ms, key[:slot] + key[slot + 1:]))
    return tuple(line)


def _edge_chord(curvature: np.ndarray, floor: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Stage (b): the chord test of each edge, with D2 from the edge's own line.

    curvature[e, j - 2] is j (j - 1) times the bound |c~_j| + kappa eps a_j
    on |c_j| of edge e's line (see _MeshForm._lines), for j = 2 .. U, zero
    where its axis lacks j; floor[e] is the smaller lower bound on |P| at
    its ends, and steps[:, e] its step h along the line and M, the larger
    |m| of its two ends.  On the segment |m| <= M, so |q''| <= D2 =
    sum_j j (j - 1) |c_j| M^(j-2).  c~_j is within gamma_K A_j of c_j, and
    A_j <= a_j / (1 - gamma_K), so |c_j| <= |c~_j| + kappa eps a_j: kappa
    eps is at least 16 times gamma_K / (1 - gamma_K).  Unlike D2_s, the c_j
    carry the cancellation between the terms of P across the other axes.
    """
    width = curvature.shape[1]  # the powers M^0 .. M^(top-2)
    top = width + 1
    # Each product of the sum carries 2 roundings in the bound on |c_j|, 1
    # multiplying it by j (j - 1), at most top in M^(j-2) (_powers
    # multiplies cumulatively), 1 multiplying the two, width - 1 in the sum
    # over the powers and 3 in the factor h * h * slack / 8 and its product
    # with the sum (/8 is exact; slack is exact, 1 plus a multiple of eps).
    # Every term is positive, so the computed threshold is at least
    # (1 - gamma_K) slack times the exact one, K = top + width + 6, and
    # kappa's margin makes that at least the exact one
    slack = 1 + _kappa(top + width + 6) * _FLOAT_EPS
    threshold = np.einsum("ej,ej->e", curvature, _powers(steps[1], width))
    threshold *= steps[0] * steps[0] * (slack / 8)
    # nan certifies nothing: an overflowed line, or an overflowed power of M
    # against an exponent that the edge's line lacks (a zero)
    return floor > threshold


def _bernstein(
    top: int, rows: np.ndarray, roundings: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bernstein coefficients of P on each edge, with error bounds.

    rows[e] holds c~_j and a_j of edge e's line at every power j = 0 .. D,
    D = top, zero where the line lacks one, roundings[e] the K of its
    line, and ends[e] m0, |m0|, h and |h| for its lower end m0 and its step
    h.  With q(m0 + h s) = sum_k a_k s^k,
    a_k = h^k sum_t C(k + t, k) m0^t c_(k+t), the Bernstein coefficients of
    degree D on [0, 1] are b_i = sum_k C(i, k) / C(D, k) a_k (an edge whose
    line has a lower degree gets its degree-elevated coefficients).  Each
    a_k is one product-sum for all edges at once, so the only loop is over
    k; the sizes a_j go through the same steps with |m0| and |h|.
    """
    binomials, change, _ = _bernstein_tables(top)
    rows = np.ascontiguousarray(rows)
    starts = _powers(ends[:, :2], top + 1)  # m0^t and |m0|^t
    taylor = np.empty(rows.shape)
    for k in range(top + 1):
        taylor[:, :, k] = np.einsum("eit,eit,t->ei", starts[:, :, :top + 1 - k], rows[:, :, k:], binomials[k:, k])
    taylor *= _powers(ends[:, 2:], top + 1)  # h^k, and |h|^k for the sizes
    out = (taylor.reshape(-1, top + 1) @ change).reshape(taylor.shape)
    # Each product C_T prod m^e C(k + t, k) m0^t h^k C(b, k) / C(D, k)
    # carries, past the roundings of its line coefficient: at most D - 1
    # in the powers of m0 and h, 2 converting the two binomial factors,
    # 4 products, D in the sum over t and D in the sum over k
    out[:, 1] *= (_kappa(roundings + 3 * top + 5) * _FLOAT_EPS)[:, None]
    return out[:, 0], out[:, 1]


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
    # always False, and not a field: only the benchmark's tracer
    # (bench/tracing.py) reads it
    jittered = False

    @property
    def denominator(self) -> int:
        return self.resolution

    @property
    def numerators(self) -> np.ndarray:
        return 2 * np.arange(self.resolution, dtype=np.int64) + 1 - self.resolution

    @property
    def mesh(self) -> np.ndarray:
        """The numerators of every mesh axis of a face: the cell centers and the cube edges -den, +den."""
        den = self.denominator
        return np.concatenate([[-den], self.numerators, [den]])

    @property
    def face_count(self) -> int:
        return 2 * self.ambient

    @property
    def cell_count(self) -> int:
        return self.face_count * self.resolution ** (self.ambient - 1)

    def face_axis_sign(self, face: int) -> Tuple[int, int]:
        return face // 2, (1 if face % 2 else -1)


@dataclass(frozen=True)
class SignField:
    """Exact signs of one polynomial at every cell center of a cube grid, and its run graph."""

    grid: CrossSectionGrid
    face_signs: Tuple[np.ndarray, ...]
    # the exact zeros, an image's with its source's, read from the run graph: each is a
    # one-cell run of sign 0
    zero_cells: int
    # every face's runs and the stitches across cube edges (cube_section_sample)
    node_signs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @property
    def zero_cell_fraction(self) -> float:
        return self.zero_cells / self.grid.cell_count


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


def _face_values(grid: CrossSectionGrid, mesh: np.ndarray, face: int) -> List[AxisValues]:
    """_MeshForm axis values of one face's cell centers plus the cube edges around them (mesh = grid.mesh)."""
    axis, sign = grid.face_axis_sign(face)
    axis_values: List[AxisValues] = [mesh] * grid.ambient
    axis_values[axis] = sign * grid.denominator
    return axis_values


def _check_countable(p: Polynomial) -> int:
    """The ambient dimension of p, once p is known to be countable on the cube, or NodalError."""
    degree = parabolic_degree(p)  # raises NotHomogeneous / ZeroPolynomialError
    if degree < 1:
        raise NodalError("constant polynomials have no cross-section sign structure")
    if degree > MAX_COUNT_DEGREE:
        raise NodalError(f"degree {degree} exceeds the counting cap {MAX_COUNT_DEGREE}")
    ambient = p.spatial_dim + 1
    if not 2 <= ambient <= 4:
        raise NodalError(f"counting supports ambient dimension 2..4, got {ambient}")
    return ambient


def cube_section_sample(p: Polynomial, resolution: int) -> SignField:
    """Exact signs of p at all cell centers on the cube cross-section, with its run graph.

    Requires a parabolically homogeneous p of degree >= 1 in ambient
    dimension 2..4.  Only pieces of the source faces, x_a = +1 for each
    space axis a and both t faces, are evaluated; the rest of the surface
    is their images under the signed reflections rho_R of p (module
    docstring), p(rho_R x, t) = s_R p(x, t).  rho_R maps the mesh
    numerators (2i + 1 - r) and the cube edges -den, +den of every axis onto
    themselves, so it maps cells onto cells and each segment between two of
    them onto a segment: every exact sign of an image is s_R times its
    source's, and every root-free decision (stages (a)-(d), stitch legs
    included) is its source's.  One rule gives every image from R: it maps
    x_a = +1 onto x_a = -1 if a is in R, and every other source face onto
    itself; it reverses the mesh axes of the coordinates in R (never t, the
    last mesh axis of a side face) and takes its source's signs times s_R,
    and its runs, in-face edges and stitch legs under ids of their own.

    A face goes by halves along its mesh axis 0, mesh indices h .. r + 1
    with h = (r + 2) // 2, wherever that takes no more float passes than
    whole faces.  Its fold, which swaps its halves (mesh index i maps to
    r + 1 - i), is sigma on a t face (mesh axis 0 is x_1), and rho_b on
    x_a = +1 (mesh axis 0 is x_b, b the first space axis other than a) when
    s_b exists; x_a = +1 without s_b stays whole, and n = 1 keeps every face
    whole, its one mesh axis being the run axis.  The half's images are the
    group that its fold and, on x_a = +1, sigma generate: rho_b, sigma and
    sigma rho_b.  The centre layer h of an odd r is its own image under the
    fold, so the images that reverse mesh axis 0 take the layers past it.
    The half is evaluated with the ghost layer h - 1 before it, the fold's
    image of layer r + 2 - h, so each seam edge between the layers h - 1 and
    h is decided in the half's own form; runs go along the last mesh axis
    and never cross the seam.  The rim rule leaves the ghost layer's own
    edges to stage (a), so its run mask is its source layer's under the
    fold: each ghost run is the fold's image of a source run, and takes that
    run's id in the image composed with the fold.  So the ghost adds no
    node, its in-layer edges (images of the source layer's) are dropped, and
    the graph is the one a whole evaluation builds, up to node numbering.  A
    half cannot share a form with a whole face, whose numerators on mesh
    axis 0 differ, so halves go in groups of their own.

    The sources are evaluated in stacked groups of even size, as many faces
    as fit in _CASCADE_FLOATS = 2^18 cells (at least one), each face on its
    cell centers plus the cube edges around it (_face_values).  Every mesh
    axis of every face of a group has the same numerators, so each group is
    one _MeshForm: it gives the group's exact signs and the merge mask of
    each in-face edge and stitch leg (merge_masks, with its rim edges
    skipped), and its float arrays are dropped before the next group.  The
    group's runs come from its complete masks, and every group numbers them
    one way, from per-run id arrays, one per image: each image's runs take
    the next ids in order, and a ghost run its source's image's id.  Every
    image is written in place (_place) into two arrays allocated once: the
    signs of each face, and the node ids of each side (f, s, e), face f's
    cells at end e of mesh axis s, -1 where a stitch leg is cut.  An image
    that reverses mesh axis 0 starts that axis, any other ends it, and one
    that reverses mesh axis s swaps the ends of s.  Side (f, s, e) meets side
    (2c + e, the mesh axis of f's coordinate, f % 2), c the coordinate of s,
    cell for cell: after the last group one gather reads each cube edge
    once, and two cells beside it stitch when both of their legs merge.
    """
    ambient = _check_countable(p)
    resolution = _check_resolution(resolution)
    _check_mesh_cells(resolution + 2, ambient - 1)
    n = ambient - 1
    face_cells = (resolution + 2) ** n
    # the ghost layer's mesh index on a half face, which runs from there to the cube edge
    low = (resolution + 2) // 2 - 1
    t_faces = [2 * n, 2 * n + 1]
    grid = CrossSectionGrid(ambient, resolution)
    mesh = grid.mesh
    parity = _reflection_signs(p)
    # the sources, x_a = +1 and the t faces, lead by the faces x_a = +1.  A half face runs
    # along its mesh axis 0 and has a fold, the reflection that swaps its halves: rho_b, b
    # the first space axis other than a (bit 1 << b: x_2 on x_1 = +1, else x_1), on
    # x_a = +1 where s_b exists, and sigma on a t face
    sources = [2 * a + 1 for a in range(n)] + t_faces
    folds = {f: 1 << (f < 2) for f in sources[:n] if n >= 2 and parity[1 << (f < 2)]}
    folds.update((f, 2 ** n - 1) for f in t_faces)
    # (faces, first index on their mesh axis 0) per float pass; faces go by halves where
    # that takes no more passes
    layout = [(faces, 0) for faces in _groups(sources, face_cells)]
    if n >= 2:
        half_cells = face_cells // (resolution + 2) * (resolution + 2 - low)
        folded = [(faces, 0) for faces in _groups([f for f in sources if f not in folds], face_cells)]
        folded += [(faces, low) for faces in _groups([f for f in sources if f in folds], half_cells)]
        if len(folded) <= len(layout):
            layout = folded
    scaled = _integer_scaled_terms(p, grid.denominator)
    counts: Dict[tuple, bool] = {}  # stage (d)'s Sturm counts, kept across the groups
    # every face's signs, and per (face, mesh axis, end) side the node ids of its cells, flat,
    # -1 where a stitch leg is cut; mesh axis 0 is the slowest axis of both
    face_signs = np.empty((grid.face_count,) + (resolution,) * n, dtype=np.int8)
    sides = np.empty((grid.face_count, n, 2, resolution ** (n - 1)), dtype=np.int64)
    node_signs, edges = [], []
    offset = 0
    for faces, start in layout:
        # a half face leads with a ghost layer, the image of its layer `first` under its
        # fold; on a whole face every layer has an image
        ghost = int(start > 0)
        first = 1 + resolution % 2 if ghost else 0
        values = [_face_values(grid, mesh, face) for face in faces]
        if ghost:  # mesh axis 0 is x_1, or x_2 on x_1 = +1
            for face, axis_values in zip(faces, values):
                axis_values[face < 2] = mesh[start:]
        form = _MeshForm(scaled, values)
        signs = form.signs()
        inner = (slice(None), slice(1 - ghost, -1)) + (slice(1, -1),) * (n - 1)
        inside = signs[inner]
        # per mesh axis: the in-face edges, and the stitch legs from a side cell to the cube edge
        masks = form.merge_masks(signs, counts, rim=True)
        del form  # its per-cell floats, before the group's graph is built
        images = [_orbit(ambient, face, folds[face] if ghost else 0) for face in faces]
        if ghost:
            # the rim rule left the ghost layer to stage (a): its runs are taken from layer
            # `first`, whose images they are, and its other edges, images of that layer's, go
            for k, orbit in enumerate(images):
                masks[-1][k, 0] = masks[-1][k, first][orbit[1][3][1:]]
            for mask in masks[1:-1]:
                mask[:, 0] = False
        starts, runs, rows, cols = _probed_runs(inside, [m[inner] for m in masks])
        # per face and image, the runs it holds: a half's evaluated runs, its ghost runs'
        # images and, under an image that reverses mesh axis 0, those from layer `first`
        # on; a whole face's runs.  Each image's runs take the next ids in order.  A fold
        # reverses every axis of a layer (sigma on a t face) or none (rho_b), so the ghost
        # runs are the images of layer `first`'s in reverse order or in order, and in an
        # image that keeps mesh axis 0 each takes the id of its source in the image
        # composed with the fold.  An edge joins two runs of one face, the lower run first,
        # and is in each image that holds its lower run.  A last column of -1 stands for
        # no run
        size = inside[0].size
        plane = size // inside.shape[1]
        cells = np.add.outer(np.arange(len(faces)) * size, [0, ghost * plane, first * plane, size])
        bounds = np.searchsorted(starts, cells).tolist()
        ids = np.full((max(map(len, images)), len(runs) + 1), -1)
        for k, (a, g, m, e) in enumerate(bounds):
            for slot, (r, _, flips, _) in enumerate(images[k]):
                lo = m if ghost and 0 in flips else g
                ids[slot, lo:e] = np.arange(offset, offset + e - lo)
                offset += e - lo
                node_signs.append(runs[lo:e] if parity[r] == 1 else -runs[lo:e])
            if g > a:
                fold, _, _, rev = images[k][1]
                order = [r for r, *_ in images[k]]
                for slot, (r, _, flips, _) in enumerate(images[k]):
                    if 0 not in flips:
                        ids[slot, a:g] = ids[order.index(r ^ fold), m:m + g - a][rev[-1]]
        edges.append((ids[0, rows], ids[0, cols]))
        for slot_ids in ids[1:]:
            lower = slot_ids[rows]
            held = lower >= 0
            edges.append((lower[held], slot_ids[cols[held]]))
        # a side of a face is one layer of `inside` along a mesh axis.  Runs never cross a
        # row along the last axis, so a side's runs follow from each row's first run and
        # the merges along the rows
        row_first = _run_ids(starts, np.arange(0, inside.size, inside.shape[-1]))
        row_first = row_first.reshape(inside.shape[:-1])
        row_last = np.append(row_first.ravel()[1:], len(runs)).reshape(row_first.shape) - 1
        run_merges = masks[-1][inner]
        for slot, merged in enumerate(masks):
            axis = slot + 1
            side = inner[:axis] + inner[axis + 1:]
            for i in (-1,) if ghost and not slot else (0, -1):  # the low side of axis 0 is the ghost layer
                layer = (slice(None),) * axis + (i,)
                if axis == n:  # the row ends
                    local = row_last if i else row_first
                else:
                    start = np.ones(inside[layer].shape, dtype=bool)
                    start[..., 1:] = ~run_merges[layer]
                    local = np.cumsum(start, axis=-1) + (row_first[layer][..., None] - 1)
                # each image's node id of each side cell, -1 where its stitch leg is cut
                held = ids.take(np.where(merged[layer][side], local, -1), axis=1)
                # an image takes its layers along mesh axis 0 (axis 0 of the side unless
                # it is the slot), reverses the axes in R, and swaps the ends of the slot
                # if R reverses it
                for k, orbit in enumerate(images):
                    for s, (_, target, flips, rev) in enumerate(orbit):
                        part = held[s, k, first if 0 in flips else ghost:] if slot else held[s, k]
                        end = int((i == -1) != (slot in flips))  # an int: a bool index is a mask
                        _place(sides[target, slot, end], part[rev[:slot] + rev[axis:]].ravel(), 0 in flips)
        for k, orbit in enumerate(images):
            for r, target, flips, rev in orbit:
                image = inside[k, first if 0 in flips else ghost:][rev]
                _place(face_signs[target], image if parity[r] == 1 else -image, 0 in flips)
        del masks, merged, starts, rows, cols, held  # before the next group's form is built
    # side (f, s, e) meets side (2c + e, the mesh axis of f's coordinate, f % 2), c the
    # coordinate of s; each cube edge is read once, from its higher face, and two cells
    # beside it stitch where both of their legs merge: neither id is -1
    f, s, e = np.indices(sides.shape[:3]).reshape(3, -1)
    c = s + (s >= f // 2)
    f, s, e, c = (v[2 * c + e < f] for v in (f, s, e, c))
    near, far = sides[f, s, e], sides[2 * c + e, f // 2 - (f // 2 > c), f % 2]
    both = (near >= 0) & (far >= 0)
    edges.append((near[both], far[both]))
    del sides, inside, values  # before the edges are joined, where memory peaks
    rows, cols = (np.concatenate(part) for part in zip(*edges))
    node_signs = np.concatenate(node_signs)
    return SignField(grid, tuple(face_signs), int(np.count_nonzero(node_signs == 0)), node_signs, rows, cols)


def _place(out: np.ndarray, piece: np.ndarray, head: bool) -> None:
    """Write piece into out along axis 0: at the start if head (its image reverses that axis), else at the end."""
    if head:
        out[:len(piece)] = piece
    else:
        out[len(out) - len(piece):] = piece


def _reflection_signs(p: Polynomial) -> List[int]:
    """s_R with p(rho_R x, t) = s_R p(x, t) for each set R of space axes, a bitmask; 0 where none.

    rho_R flips the space axes in R and keeps t.  The identity holds exactly
    when the exponents in R of every term of p add up to one parity, and
    then s_R = (-1)^that parity.
    """
    parities = {sum((e & 1) << b for b, e in enumerate(ev.space_exps)) for ev in p.terms}
    found = [{(m & r).bit_count() & 1 for m in parities} for r in range(2 ** p.spatial_dim)]
    return [(-1) ** f.pop() if len(f) == 1 else 0 for f in found]


@functools.lru_cache(maxsize=None)
def _orbit(ambient: int, face: int, fold: int) -> Tuple[Tuple[int, int, Tuple[int, ...], tuple], ...]:
    """The images of the evaluated piece of a source face under the reflections that it takes.

    Each is (R, target face, the mesh axes that rho_R reverses, the index
    that reverses them), R a bitmask of space axes.  They are the group
    generated by the piece's fold (0 on a whole face) and, on x_a = +1, by
    sigma, which maps it onto x_a = -1 (sigma maps a t face onto itself, so
    a whole t face has no image): the identity first, then the fold.
    """
    n = ambient - 1
    axis = face // 2
    coords = [c for c in range(ambient) if c != axis]
    group = [0]
    for gen in [fold] * bool(fold) + [2 ** n - 1] * (axis < n):
        group += [r ^ gen for r in group]
    return tuple(
        (
            r,
            face - (r >> axis & 1),
            tuple(j for j, c in enumerate(coords) if r >> c & 1),
            tuple(slice(None, None, -1 if r >> c & 1 else 1) for c in coords),
        )
        for r in group
    )


def _groups(faces: List[int], cells: int) -> List[List[int]]:
    """faces in float passes of even size, each as many as fit in _CASCADE_FLOATS cells, at least one."""
    if not faces:
        return []
    per_group = max(1, _CASCADE_FLOATS // cells)
    per_group = -(-len(faces) // -(-len(faces) // per_group))
    return [faces[first:first + per_group] for first in range(0, len(faces), per_group)]


# ---------------------------------------------------------------------------
# Component labeling with certified adjacency
# ---------------------------------------------------------------------------


def _probed_runs(signs: np.ndarray, merges: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Same-sign graph of a sign mesh whose nodes are runs of cells.

    merges[k] marks the neighbouring cells that merge along the k-th of the
    last len(merges) axes (shaped like `signs` with that axis shortened by
    one); only cells of one nonzero sign may be marked, and nothing merges
    along the leading axes before them (a stack's face axis).  Cells merged
    along the last axis form a run, one node; merges along the other axes
    are edges between runs.  An edge repeats the one before it along the
    last axis when that one exists and no run starts at either end, and only
    the others are kept (other repeats are harmless).  Zero cells are
    single-cell runs with no edges.  Returns (run starts, sign per node,
    edge rows, edge cols), a graph with the per-cell graph's components.
    Node k is the run that starts at the flat (C-order) cell index
    starts[k]; _run_ids finds the node of any cell, so only the kept edge
    ends get one.
    """
    start = np.ones(signs.shape, dtype=bool)
    start[..., 1:] = ~merges[-1]
    starts = np.flatnonzero(start)
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for slot, mask in enumerate(merges[:-1], signs.ndim - len(merges)):
        lo, hi = _edge_slices(slot)
        fresh = start[lo] | start[hi]
        fresh[..., 1:] |= ~mask[..., :-1]
        fresh &= mask
        # flat index of each kept edge's low cell: the edge mesh has one
        # layer fewer along the slot for every index of the axes before it
        stride = math.prod(signs.shape[slot + 1:])
        edges = np.flatnonzero(fresh)
        low = edges + edges // ((signs.shape[slot] - 1) * stride) * stride
        rows.append(_run_ids(starts, low))
        cols.append(_run_ids(starts, low + stride))
    return starts, signs[start], np.concatenate(rows), np.concatenate(cols)


def _run_ids(starts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Node id of each flat cell index: its run is the last one starting at or before it."""
    return np.searchsorted(starts, cells, side="right") - 1


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> Tuple[int, np.ndarray]:
    """(count, label per node) of the undirected graph on `size` nodes.

    Hook and jump (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
    hooks the higher root of every edge whose ends have different roots
    onto the lower one, then jumps pointers until every node points at a
    root.  A hook always points to a smaller id, so no cycle forms.  The
    first round hooks the ends themselves, since every node starts as its
    own root, and takes any of several hooks onto one node.  Later rounds
    hook each root onto its smallest neighbour root, which at least halves
    the roots that still have an edge every two rounds; a plain assignment
    there can take one round per leaf of a star whose centre has the
    largest id.  A label is the id of the node's root, not a number in
    0..count-1.
    """
    parent = np.arange(size)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    parent[hi] = lo
    while True:
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        lo, hi = parent[lo], parent[hi]
        live = lo != hi
        if not live.any():
            return int(np.count_nonzero(parent == np.arange(size))), parent
        lo, hi = np.minimum(lo[live], hi[live]), np.maximum(lo[live], hi[live])
        np.minimum.at(parent, hi, lo)


def _sign_split(labels: np.ndarray, signs: np.ndarray) -> Tuple[int, int]:
    """(positive, negative) counts of the components of _components' labels, by the signs of their roots.

    A root is its component's one node labelled with its own id, and every
    edge counted here joins nodes of one sign.
    """
    roots = labels == np.arange(len(labels))
    return int(np.count_nonzero(roots & (signs == 1))), int(np.count_nonzero(roots & (signs == -1)))


def count_components(field: SignField) -> ComponentReport:
    """Count same-sign components on a sampled cross-section.

    One _components call labels the field's run graph, stitched across the
    cube edges by cube_section_sample.  Single-resolution result: the
    stability flag is left False because stabilization is only meaningful
    across a schedule (see nodal_count).
    """
    _, labels = _components(len(field.node_signs), field.rows, field.cols)
    positive, negative = _sign_split(labels, field.node_signs)
    return ComponentReport(
        total=positive + negative,
        positive=positive,
        negative=negative,
        resolutions_used=(field.grid.resolution,),
        stable=False,
        zero_cell_fraction=field.zero_cell_fraction,
    )


def nodal_count(p: Polynomial, schedule: Optional[Sequence[int]] = None) -> ComponentReport:
    """Nodal-domain count on the cube cross-section.

    For n = 1 the cross-section is the loop around the square |x|, |t| <= 1,
    and the count is exact: each nodal domain is one maximal arc of nonzero
    sign on it (_loop_signs), so the report is `stable` by proof, with method
    "cube-loop" and no resolutions.  It takes no schedule; passing one
    raises NodalError.  For n >= 2 it runs count_components at each
    resolution of the schedule; the reported counts come from the finest
    level run and `stable` records whether the last three levels agree on
    the (positive, negative) split.  An explicit schedule runs every level.
    With none, the levels are the rungs of DEFAULT_SCHEDULES[n + 1], 32, 64,
    128, 256 for n = 2 and 12, 24, 48, 96 for n = 3, and the count stops at
    the first rung whose last three agree.  An input that never agrees runs
    every rung and is decided by 64/128/256 or 24/48/96.  The 2-D ladder
    starts at 32, not 16: a 2-D rung costs mostly fixed overhead at these
    sizes, so a rung at 16 saves little, and it would add a second wasted
    rung to every unstable input.  resolutions_used lists the levels run.
    Instability is reported, never raised.
    """
    ambient = _check_countable(p)
    if ambient == 2:
        if schedule is not None:
            raise NodalError("n = 1 is counted exactly and takes no schedule")
        signs = _loop_signs(p, lambda u, v: (u, v), Fraction(1))
        # an arc starts after each root; a loop with no root is one arc
        arcs = [s for k, s in enumerate(signs) if s and not signs[k - 1]] or signs[:1]
        positive, negative = arcs.count(1), arcs.count(-1)
        return ComponentReport(positive + negative, positive, negative, (), True, 0.0, "cube-loop")
    ladder = schedule is None
    if ladder:
        schedule = DEFAULT_SCHEDULES[ambient]
    schedule = [_check_resolution(r) for r in schedule]
    if len(schedule) < 3:
        raise NodalError("schedule needs at least three resolutions")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise NodalError("schedule must be strictly increasing")
    reports = []
    for res in schedule:
        reports.append(count_components(cube_section_sample(p, res)))
        stable = len(reports) >= 3 and len({(r.positive, r.negative) for r in reports[-3:]}) == 1
        if ladder and stable:
            break
    return replace(reports[-1], resolutions_used=tuple(schedule[: len(reports)]), stable=stable)


# ---------------------------------------------------------------------------
# Negative-time slice and polar chamber diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceReport:
    """Components of {x in [-R, R]^n : p(x, -1) != 0} with a trust flag.

    caveat = True means the count may misrepresent the slice: for n = 1 the
    segment (-R, R) misses a real root of p(x, -1), or p(x, -1) = 0; for
    n >= 2 distinct same-sign components touch the box boundary (they could
    merge outside).  N <= total is only meaningful when it is clear.  n = 1
    takes no mesh, so its resolution is only recorded.
    """

    total: int
    positive: int
    negative: int
    caveat: bool
    half_width: Fraction
    resolution: int


def _line(p: Polynomial, point: Sequence[Optional[Fraction]]) -> List[Fraction]:
    """Trimmed coefficients, lowest degree first, of p along the one None coordinate of point (x1..xn, t)."""
    terms = {ev.space_exps + (ev.t_exp,): c for ev, c in p.terms.items()}
    return _poly_trim(list(_exact_line(terms, list(point).index(None), [v for v in point if v is not None])))


def _loop_signs(p: Polynomial, frame: Callable[..., tuple], h: Fraction) -> List[int]:
    """Exact signs of p counterclockwise around the boundary of the square |u|, |v| <= h.

    frame(u, v) is the point of p's coordinates (x1..xn, t) at the square's
    coordinates (u, v), with None for a side's free coordinate.  Each corner
    gives its exact sign, and the side that leaves it its sign_arcs on
    (-h, h), in the loop's direction: a 0 stands for each root.
    """
    signs: List[int] = []
    for u, v, du, dv in ((-h, -h, 1, 0), (h, -h, 0, 1), (h, h, -1, 0), (-h, h, 0, -1)):
        value = p.evaluate(frame(u, v))
        side = frame(None if du else u, None if dv else v)
        signs += [(value > 0) - (value < 0), *sign_arcs(_line(p, side), -h, h)[:: du + dv]]
    return signs


def slice_count(
    p: Polynomial,
    box_half_width: Optional[Union[Fraction, int, str]] = None,
    resolution: Optional[int] = None,
) -> SliceReport:
    """Count components of the t = -1 slice inside the box [-R, R]^n.

    R is a positive exact rational (a float at its exact value), or
    NodalError is raised.  For n = 1 the count is exact, the sign_arcs of
    p(x, -1) on (-R, R), and the default R, the Cauchy root bound, holds
    every root.  For n >= 2 the default R is 4, and the box is a mesh of
    `resolution` cells per axis (default 512 for n = 2 and 64 for n >= 3,
    where 512^3 cells would not fit in memory; MAX_MESH_CELLS refuses larger
    boxes) whose numerators, R's numerator times the odd integers up to
    resolution - 1, must stay within 2^53, or NodalError is raised.  Cells
    are labeled as on the cube: runs (_probed_runs) of the complete merge
    masks (_MeshForm.merge_masks), and one _components call.
    """
    n = p.spatial_dim
    if resolution is None:
        resolution = 512 if n <= 2 else 64
    resolution = _check_resolution(resolution)
    line = _line(p, (None, Fraction(-1))) if n == 1 else []
    if box_half_width is None:
        box_half_width = 1 + max((abs(c / line[-1]) for c in line[:-1]), default=0) if line else 4
    radius = _check_rational(box_half_width, "box half-width")
    if radius <= 0:
        raise NodalError("box half-width must be positive")
    if n == 1:
        arcs = sign_arcs(line, -radius, radius)
        caveat = not arcs or arcs.count(0) != _sturm_count(line, None, None)
        return SliceReport(len(arcs) - arcs.count(0), arcs.count(1), arcs.count(-1), caveat, radius, resolution)
    _check_mesh_cells(resolution, n)
    # the largest |numerator|, in Python ints: an int64 array of it could wrap
    _check_numerator(radius.numerator * (resolution - 1))

    v = p.substitute_t(-1)
    nums = radius.numerator * (2 * np.arange(resolution, dtype=np.int64) + 1 - resolution)
    den = radius.denominator * resolution
    form = _MeshForm(_integer_scaled_terms(v, den), [[nums] * n + [0]])
    signs = form.signs()  # a stack of one face

    if not (signs != 0).any():
        return SliceReport(0, 0, 0, True, radius, resolution)

    starts, node_signs, rows, cols = _probed_runs(signs, form.merge_masks(signs, {}, rim=False))
    _, labels = _components(len(node_signs), rows, cols)
    positive, negative = _sign_split(labels, node_signs)
    rim = np.ones(signs.shape, dtype=bool)
    rim[(0,) + (slice(1, -1),) * n] = False
    met = np.bincount(labels[_run_ids(starts, np.flatnonzero(rim))], minlength=len(labels)) > 0
    caveat = max(_sign_split(labels, node_signs * met)) >= 2  # the roots of the components that meet the rim
    return SliceReport(positive + negative, positive, negative, caveat, radius, resolution)


@dataclass(frozen=True)
class PolarChamberReport:
    """Sign changes on the loop around a pole: radius is the square's exact half-width rho."""

    pole: str
    radius: Fraction
    sign_changes: int
    n_plus: int


def polar_chambers(
    p: Polynomial,
    pole: str = "north",
    rho: Union[Fraction, int, float, str] = Fraction(1, 10),
) -> PolarChamberReport:
    """Exact signs of p on the boundary of the square |x|, |y| <= rho of the cube face t = +1 or -1.

    p must be parabolically homogeneous, so that its sign is constant along
    the rays (lambda x, lambda^2 t), and each ray near the pole crosses the
    loop once.  rho is an exact rational in (0, 1), a float at its exact
    value.  The signs come from _loop_signs, the loop that nodal_count reads
    for n = 1.
    sign_changes counts the cyclic alternations of the nonzero signs around
    the loop (a root of even multiplicity makes none), n_plus their positive
    runs; a loop inside the zero set gives (0, 0).
    """
    if p.spatial_dim != 2:
        raise NodalError("polar chambers are defined for n = 2")
    rho = _check_rational(rho, "rho")
    if not 0 < rho < 1:
        raise NodalError("rho must lie strictly between 0 and 1")
    t = {"north": Fraction(1), "south": Fraction(-1)}.get(pole)
    if t is None:
        raise NodalError("pole must be 'north' or 'south'")
    if len({ev.parabolic_weight for ev in p.terms}) != 1:
        raise NodalError("polar chambers need a nonzero parabolically homogeneous p")

    signs = [s for s in _loop_signs(p, lambda x, y: (x, y, t), rho) if s]
    changes = sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)
    n_plus = changes // 2 if changes else int(1 in signs)
    return PolarChamberReport(pole=pole, radius=rho, sign_changes=changes, n_plus=n_plus)


# ---------------------------------------------------------------------------
# Point-cloud export and clustering (n = 2)
# ---------------------------------------------------------------------------


def _sphere_values(
    p: Polynomial, longitude: Sequence[np.ndarray], latitude: Sequence[np.ndarray], radius: float = 1.0
) -> np.ndarray:
    """p (n = 2) at radius (cos th cos ph, sin th cos ph, sin ph), one row per longitude th.

    longitude and latitude are (cos, sin) pairs of 1-D arrays, so the poles
    are exact inputs.  There x^a y^b t^c = radius^(a+b+c) (cos^a th sin^b th)
    (cos^(a+b) ph sin^c ph): the grid is U D W^T, with D the coefficients times
    radius^(a+b+c) over the distinct longitude monomials (a, b) and latitude
    monomials (a + b, c), and U and W their columns, from cumulative powers
    of the 1-D arrays; no power is taken on a grid.  Raises NodalError for a
    coefficient past the largest float.
    """
    monomials: Tuple[Dict[Tuple[int, int], int], ...] = ({}, {})  # each one's row or column of D
    rows, columns, values = [], [], []
    for ev, coeff in p.terms.items():
        try:
            value = float(coeff)
        except OverflowError as exc:
            raise NodalError(f"a coefficient exceeds the largest float, {sys.float_info.max:.6g}") from exc
        (a, b), c = ev.space_exps, ev.t_exp
        rows.append(monomials[0].setdefault((a, b), len(monomials[0])))
        columns.append(monomials[1].setdefault((a + b, c), len(monomials[1])))
        values.append(value * radius ** (a + b + c))
    if not values:
        return np.zeros((len(longitude[0]), len(latitude[0])))
    dense = np.zeros((1, len(monomials[0]), len(monomials[1])))
    dense[0, rows, columns] = values
    powers = []
    for pair, keys in zip((longitude, latitude), monomials):
        cos, sin = (np.vander(u, e.max() + 1, increasing=True)[:, e] for u, e in zip(pair, np.array(list(keys)).T))
        powers.append(cos * sin)
    return _contract(dense, powers)[0]


def _sphere_angles(resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cell-center longitudes (2r) and latitudes (r) of the sphere grid at resolution r.

    Its 2r x r mesh is checked against MAX_MESH_CELLS before any allocation.
    """
    if 2 * resolution ** 2 > MAX_MESH_CELLS:
        cells = f"{2 * resolution} x {resolution} cells"
        raise NodalError(f"a sphere grid of {cells} exceeds the cap MAX_MESH_CELLS = {MAX_MESH_CELLS}")
    thetas = (np.arange(2 * resolution) + 0.5) * (2.0 * np.pi / (2 * resolution))
    phis = -np.pi / 2 + (np.arange(resolution) + 0.5) * (np.pi / resolution)
    return thetas, phis


def export_nodal_pointcloud(
    p: Polynomial,
    resolution: int = 256,
    annulus_delta: float = 0.1,
    path: Optional[str] = None,
) -> List[Tuple[float, float, float]]:
    """Sample the nodal set of p inside the spherical shell B_1 \\ B_{1-delta}.

    On each of the `_EXPORT_SHELLS` concentric sphere radii a longitude/latitude grid is
    evaluated; midpoints of sign changes between neighboring samples are
    emitted as (x, y, t) rows, suitable for external plotting.  When `path`
    is given the rows are also written as CSV with 17 significant digits.
    """
    if p.spatial_dim != 2:
        raise NodalError("point-cloud export is defined for n = 2")
    if not 0.0 < annulus_delta < 1.0:
        raise NodalError("annulus delta must lie strictly between 0 and 1")
    resolution = _check_resolution(resolution)
    thetas, phis = _sphere_angles(resolution)
    # only 1-D arrays live across the shells: the blocks are evaluated from
    # them, and each midpoint's ends are products of them
    cos_theta, sin_theta, cos_phi, ut = np.cos(thetas), np.sin(thetas), np.cos(phis), np.sin(phis)

    def unit(i: np.ndarray, j: np.ndarray) -> Tuple[np.ndarray, ...]:
        return cos_theta[i] * cos_phi[j], sin_theta[i] * cos_phi[j], ut[j]

    # every longitude's neighbour, the last one's wrapping around to the first
    after = np.roll(np.arange(len(thetas)), -1)
    # shells are evaluated a block of longitudes at a time, so that the
    # float temporaries take _CASCADE_FLOATS cells each, not the grid's
    block = max(1, _CASCADE_FLOATS // resolution)
    signs = np.empty((len(thetas), len(phis)), dtype=np.int8)

    points: List[Tuple[float, float, float]] = []
    for radius in np.linspace(1.0 - annulus_delta, 1.0, _EXPORT_SHELLS):
        for first in range(0, len(thetas), block):
            rows = slice(first, first + block)
            values = _sphere_values(p, (cos_theta[rows], sin_theta[rows]), (cos_phi, ut), radius)
            signs[rows] = (values > 0).view(np.int8) - (values < 0).view(np.int8)
        # sign changes to the next longitude, then to the next latitude; the
        # midpoints are computed at those cells only
        i, j = np.nonzero(signs * signs[after] < 0)
        k, m = np.nonzero(signs[:, :-1] * signs[:, 1:] < 0)
        for low, high in ((unit(i, j), unit(after[i], j)), (unit(k, m), unit(k, m + 1))):
            mx, my, mt = ((a + b) / 2 for a, b in zip(low, high))
            norm = np.sqrt(mx * mx + my * my + mt * mt)
            norm[norm == 0] = 1.0
            points.extend(zip(*((u / norm * radius).tolist() for u in (mx, my, mt))))

    if path is not None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("x,y,t\n")
            for px, py, pt in points:
                handle.write(f"{px:.17g},{py:.17g},{pt:.17g}\n")
    return points


def cluster_count(points: Sequence[Tuple[float, float, float]], gap: float) -> int:
    """Number of single-linkage clusters when edges join points closer than gap.

    Raises NodalError unless gap is finite and positive and the points are
    finite (x, y, t) triples.
    """
    if not (math.isfinite(gap) and gap > 0):
        raise NodalError(f"cluster gap must be finite and positive, got {gap!r}")
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise NodalError("points must be finite (x, y, t) triples") from exc
    if arr.size == 0:
        return 0
    if arr.ndim != 2 or arr.shape[1] != 3 or not np.isfinite(arr).all():
        raise NodalError("points must be finite (x, y, t) triples")
    count, _ = _components(len(arr), *_close_pairs(arr, gap))
    return count


def _close_pairs(arr: np.ndarray, gap: float) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols): each pair of points of the (k, 3) array closer than gap, once.

    Points go into cubic buckets of side gap (1 + 1e-9), so that a rounded
    floor cannot put a close pair two buckets apart; each point meets its
    own bucket and the 13 neighbours after it in key order, and the strict
    squared-distance test, one dot product per pair, decides.  A bucket's
    coordinate on an axis is the rank of its floor among the points' floors
    there: ranks keep adjacent buckets adjacent (and may make distant ones
    adjacent, which only adds candidates), and the key, padded by one rank
    on each side so that no neighbour wraps, stays below (k + 2)^3.
    """
    side = gap * (1 + 1e-9)
    key = np.zeros(len(arr), dtype=np.int64)
    widths = []
    for column in arr.T:
        floors, rank = np.unique(np.floor(column / side), return_inverse=True)
        widths.append(len(floors) + 2)
        if math.prod(widths) > np.iinfo(np.int64).max:
            raise NodalError(f"{len(arr)} points spread over too many buckets to key in int64")
        key = key * widths[-1] + rank + 1
    order = np.argsort(key)
    key = key[order]
    buckets, first, bucket, sizes = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    ends = first + sizes
    # own bucket: the points after each one; then the 13 forward neighbours
    at = np.arange(len(key))
    starts, stops = [at + 1], [ends[bucket]]
    forward = [step for step in itertools.product((-1, 0, 1), repeat=3) if step > (0, 0, 0)]
    for dx, dy, dz in forward:
        target = key + (dx * widths[1] + dy) * widths[2] + dz
        slot = np.minimum(np.searchsorted(buckets, target), len(buckets) - 1)
        found = buckets[slot] == target
        starts.append(np.where(found, first[slot], 0))
        stops.append(np.where(found, ends[slot], 0))
    # one neighbour at a time, so that only its candidate pairs are held
    points = arr[order]
    rows, cols = [], []
    for start, stop in zip(starts, stops):
        lengths = stop - start
        near = np.repeat(at, lengths)
        far = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - start, lengths)
        diff = points[near] - points[far]
        close = (diff[:, None, :] @ diff[:, :, None]).ravel() < gap * gap
        rows.append(near[close])
        cols.append(far[close])
    return order[np.concatenate(rows)], order[np.concatenate(cols)]


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
    an interesting polynomial.  NodalError is raised before anything is
    computed if C(n+d, n) >= floor(d/n)^n would pass MAX_BOUND_DIGITS digits.
    """
    if n < 1 or d < 2:
        raise NodalError("bounds need n >= 1 and d >= 2")
    # log10 C(n+d, k) as a sum over its k factors (n + d - k + i) / i >= 2:
    # at most 3.33 MAX_BOUND_DIGITS terms before the cap
    digits, k = 0.0, min(n, d)
    for i in range(1, k + 1):
        digits += math.log10(n + d - k + i) - math.log10(i)
        if digits >= MAX_BOUND_DIGITS:
            raise NodalError(f"C({n + d}, {n}) exceeds the cap MAX_BOUND_DIGITS = {MAX_BOUND_DIGITS} digits")
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
    same-sign neighbours merge when the float signs at the seven interior
    eighth-points between them agree.  Those probes miss the thin sign bands
    of parabolic cusps, so the oracle welds across them: it gives 14 on
    product_lower(2, 8), where the cube's root-free merges give the 22
    domains.
    """
    if p.spatial_dim != 2:
        raise NodalError("the spherical oracle is defined for n = 2")
    resolution = _check_resolution(resolution)
    thetas, phis = _sphere_angles(resolution)
    step = np.pi / resolution  # of both angles

    def grid_values(theta_vals: np.ndarray, phi_vals: np.ndarray) -> np.ndarray:
        return _sphere_values(p, (np.cos(theta_vals), np.sin(theta_vals)), (np.cos(phi_vals), np.sin(phi_vals)))

    def grid_signs(values: np.ndarray) -> np.ndarray:
        out = np.sign(values).astype(np.int8)
        out[np.abs(values) < 1e-12 * scale] = 0
        return out

    base_values = grid_values(thetas, phis)
    scale = float(np.abs(base_values).max()) or 1.0
    signs = grid_signs(base_values)

    # theta wraps around: row 0 repeated after the last row, and tied to it
    # cell by cell, makes the seam one more edge along axis 0
    wrap = np.append(np.arange(len(thetas)), 0)

    def probe(slot: int, eighth: int) -> np.ndarray:
        if slot == 0:
            return grid_signs(grid_values(thetas + eighth * step / 8.0, phis))
        return grid_signs(grid_values(thetas, phis[:-1] + eighth * step / 8.0))[wrap]

    wrapped = signs[wrap]
    merges = []
    for slot in range(2):
        lo, hi = _edge_slices(slot)
        mask = wrapped[lo] * wrapped[hi] > 0
        for eighth in range(1, 8):
            if not mask.any():
                break
            mask &= probe(slot, eighth) == wrapped[lo]
        merges.append(mask)
    starts, node_signs, rows, cols = _probed_runs(wrapped, merges)
    nodes = _run_ids(starts, np.arange(wrapped.size)).reshape(wrapped.shape)
    seam = signs[0] != 0
    edges = [(rows, cols), (nodes[-1][seam], nodes[0][seam])]
    # poles join every same-sign cell of the adjacent latitude row
    pole_values = _sphere_values(p, (np.ones(1), np.zeros(1)), (np.zeros(2), np.array([1.0, -1.0])))[0]
    for pole_value, row_index in zip(pole_values, (-1, 0)):
        if abs(pole_value) < 1e-12 * scale:
            continue
        members = nodes[:-1, row_index][signs[:, row_index] == (1 if pole_value > 0 else -1)]
        edges.append((np.repeat(members[:1], len(members)), members))
    rows, cols = (np.concatenate(part) for part in zip(*edges))
    _, labels = _components(len(node_signs), rows, cols)
    positive, negative = _sign_split(labels, node_signs)
    return ComponentReport(
        positive + negative, positive, negative, (resolution,), False, float(np.mean(signs == 0)), "sphere-float"
    )
