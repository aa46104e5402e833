"""Generators and exact verifiers for homogeneous caloric polynomials.

The basic one-space-variable polynomials p_d are built from their explicit
normalized sums; the even case is

    p_{2k}(x, t) = sum_{j=0..k}  k! / ((k-j)! (2j)!)  t^{k-j} x^{2j}

and the odd case replaces (2j)! by (2j+1)! and x^{2j} by x^{2j+1}.  Products
p_alpha(x, t) = p_{alpha_1}(x_1, t) ... p_{alpha_n}(x_n, t) over a
multi-index alpha span all solutions of the given parabolic degree.

Everything in this module that claims an identity checks it with exact
rational arithmetic.  Floating point appears only in `parabola_factors`
(Hermite root finding) and its interlacing consequence, which are numeric by
nature; those report reconstruction residuals instead of exact proofs.
They import numpy when called, so the exact checks run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .polyring import (
    ExponentVector,
    NotHomogeneous,
    Polynomial,
    ZeroPolynomialError,
    embed,
    format_rational,
    heat_apply,
    laplacian,
    parabolic_degree,
)


class RootFindingError(Exception):
    """The Hermite root polish failed to converge within its budget."""


@dataclass(frozen=True)
class MultiIndex:
    """A multi-index alpha in N^n with its total |alpha|."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.entries):
            raise ValueError(f"negative multi-index entry in {self.entries}")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ParabolaFactors:
    """Factorization data p_d = (x if d odd) * prod_i (t + a_i x^2).

    coefficients holds the a_i sorted increasing; reconstruction_error is the
    max absolute difference between the refolded product and the exact
    coefficients of p_d.
    """

    degree: int
    leading_factor: Optional[str]  # None or "x"
    coefficients: Tuple[float, ...]
    reconstruction_error: float

    def __post_init__(self):
        k = self.degree // 2
        if len(self.coefficients) != k:
            raise ValueError(f"expected {k} parabola coefficients, got {len(self.coefficients)}")
        if any(a <= 0 for a in self.coefficients):
            raise ValueError("parabola coefficients must be positive")
        if any(b <= a for a, b in zip(self.coefficients, self.coefficients[1:])):
            raise ValueError("parabola coefficients must be strictly increasing")


@dataclass(frozen=True)
class WeightedInnerProduct:
    """Exact value rational_part * pi^(pi_half_power / 2)."""

    rational_part: Fraction
    pi_half_power: int

    def to_json_dict(self) -> dict:
        return {
            "rational": format_rational(self.rational_part),
            "pi_half_power": self.pi_half_power,
        }


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact verification; falsy when the check failed."""

    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class CaloricResult:
    """is_caloric outcome, distinguishing the two failure modes."""

    passed: bool
    reason: Optional[str] = None  # None | "not_homogeneous" | "heat_residual"
    degree: Optional[int] = None
    residual: Optional[Polynomial] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ChainReport:
    """Per-level outcome of the coefficient chain (m-j) p_{m-j} = lap p_{m-j-1}."""

    passed: bool
    top_index: int
    level_ok: Tuple[bool, ...]

    def __bool__(self) -> bool:
        return self.passed

    @property
    def first_failing_level(self) -> Optional[int]:
        for level, ok in enumerate(self.level_ok):
            if not ok:
                return level
        return None


# ---------------------------------------------------------------------------
# Hermite polynomials and basic hcps
# ---------------------------------------------------------------------------


def hermite(d: int) -> Polynomial:
    """Physicists' Hermite polynomial H_d as an exact polynomial in x (n=1)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    terms = {}
    for j in range(d // 2 + 1):
        coeff = Fraction(
            (-1) ** j * math.factorial(d) * 2 ** (d - 2 * j),
            math.factorial(j) * math.factorial(d - 2 * j),
        )
        terms[ExponentVector(0, (d - 2 * j,))] = coeff
    return Polynomial(1, terms)


def basic_hcp(d: int) -> Polynomial:
    """The normalized degree-d caloric polynomial p_d(x, t) in one space variable."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    k = d // 2
    terms = {}
    for j in range(k + 1):
        if d % 2 == 0:
            coeff = Fraction(math.factorial(k), math.factorial(k - j) * math.factorial(2 * j))
            terms[ExponentVector(k - j, (2 * j,))] = coeff
        else:
            coeff = Fraction(math.factorial(k), math.factorial(k - j) * math.factorial(2 * j + 1))
            terms[ExponentVector(k - j, (2 * j + 1,))] = coeff
    return Polynomial(1, terms)


def hermite_relation_check(d: int) -> CheckResult:
    """Verify exactly that p_d(x, -1) = (floor(d/2)! / d!) * H_d(x / 2)."""
    lhs = basic_hcp(d).substitute_t(-1)
    scale = Fraction(math.factorial(d // 2), math.factorial(d))
    rhs_terms = {}
    for ev, c in hermite(d).terms.items():
        e = ev.space_exps[0]
        rhs_terms[ev] = c * scale / 2 ** e  # H_d at x/2
    rhs = Polynomial(1, rhs_terms)
    diff = lhs - rhs
    if diff.is_zero:
        return CheckResult(True)
    ev, coeff = diff.canonical_terms()[0]
    return CheckResult(
        False,
        f"first differing coefficient at x^{ev.space_exps[0]}: delta = {format_rational(coeff)}",
    )


# ---------------------------------------------------------------------------
# Product basis
# ---------------------------------------------------------------------------


def product_hcp(alpha: MultiIndex | Sequence[int]) -> Polynomial:
    """p_alpha(x, t), the product of basic hcps over the entries of alpha."""
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    n = len(alpha)
    if n < 1:
        raise ValueError("multi-index must have at least one entry")
    out = Polynomial.constant(n, 1)
    for i, d in enumerate(alpha.entries):
        out = out * embed(basic_hcp(d), n, [i])
    return out


def _multi_indices(n: int, d: int) -> List[Tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in _multi_indices(n - 1, d - first):
            out.append((first,) + rest)
    return out


def basis(n: int, d: int) -> List[Polynomial]:
    """The p_alpha with |alpha| = d, in lexicographic order on alpha.

    The list has length C(n-1+d, n-1), the dimension of the space of
    degree-d caloric polynomials in n space variables.
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    return [product_hcp(MultiIndex(alpha)) for alpha in sorted(_multi_indices(n, d))]


# ---------------------------------------------------------------------------
# Exact verifiers
# ---------------------------------------------------------------------------


def is_caloric(p: Polynomial) -> CaloricResult:
    """Exact membership test: heat operator annihilates p and p is homogeneous."""
    try:
        degree = parabolic_degree(p)
    except (NotHomogeneous, ZeroPolynomialError):
        return CaloricResult(False, reason="not_homogeneous")
    residual = heat_apply(p)
    if residual.is_zero:
        return CaloricResult(True, degree=degree)
    return CaloricResult(False, reason="heat_residual", degree=degree, residual=residual)


def chain_check(p: Polynomial) -> ChainReport:
    """Verify the t-coefficient chain: lap p_m = 0 and (m-j) p_{m-j} = lap p_{m-j-1}.

    Levels are reported top down: level 0 is the harmonicity of the leading
    coefficient, level j >= 1 checks the identity linking p_{m-j+1} to p_{m-j}.
    """
    if p.is_zero:
        raise ZeroPolynomialError("chain check needs a nonzero polynomial")
    coeffs = p.t_coefficients()  # [p_m, ..., p_0]
    m = len(coeffs) - 1
    oks = [laplacian(coeffs[0]).is_zero]
    for j in range(m):
        lhs = coeffs[j].scale(m - j)
        rhs = laplacian(coeffs[j + 1])
        oks.append((lhs - rhs).is_zero)
    return ChainReport(all(oks), m, tuple(oks))


def eigen_check(p: Polynomial) -> CheckResult:
    """Verify the slice identity: v = p(., -1) satisfies lap v - x.grad v / 2 + (d/2) v = 0."""
    d = parabolic_degree(p)
    v = p.substitute_t(-1)
    n = p.spatial_dim
    residual = laplacian(v).scale(2)
    for i in range(n):
        residual = residual - Polynomial.variable(n, i) * v.partial(i)
    residual = residual + v.scale(d)  # doubled identity keeps integers integral
    if residual.is_zero:
        return CheckResult(True)
    return CheckResult(False, f"residual polynomial: {residual.to_expression()}")


# ---------------------------------------------------------------------------
# Numeric factorization and interlacing
# ---------------------------------------------------------------------------


def _hermite_value_and_derivative(d: int, x: float) -> Tuple[float, float]:
    # Three-term recurrence H_{m+1} = 2x H_m - 2m H_{m-1}; H'_d = 2d H_{d-1}
    h_prev, h = 1.0, 2.0 * x
    if d == 0:
        return 1.0, 0.0
    for m in range(1, d):
        h_prev, h = h, 2.0 * x * h - 2.0 * m * h_prev
    return h, 2.0 * d * h_prev


_NEWTON_STEPS = 4  # eigvalsh roots start near double precision; Newton converges quadratically
# the largest refolding error of parabola_factors, and the smallest gap between
# interlaced factors
_FACTOR_TOLERANCE = 1e-10


def _hermite_roots(d: int) -> np.ndarray:
    """All roots of H_d via the symmetric Jacobi matrix, Newton-polished."""
    import numpy as np

    offdiag = np.sqrt(np.arange(1, d) / 2.0)
    jacobi = np.diag(offdiag, 1) + np.diag(offdiag, -1)
    roots = np.linalg.eigvalsh(jacobi)
    polished = []
    for r in roots:
        x = float(r)
        for _ in range(_NEWTON_STEPS):
            value, derivative = _hermite_value_and_derivative(d, x)
            if derivative == 0.0:
                break
            x -= value / derivative
        if not math.isfinite(x):
            raise RootFindingError(
                f"Hermite root polish diverged for degree {d} near {r} "
                f"(budget {_NEWTON_STEPS} Newton steps)"
            )
        polished.append(x)
    return np.sort(np.asarray(polished))


def parabola_factors(d: int) -> ParabolaFactors:
    """Numeric parabola coefficients a_{d,i} = 1 / (4 r_i^2) of p_d.

    The r_i are the positive Hermite roots of H_d.  The refolded product
    (x if d odd) * prod (t + a_i x^2) is compared coefficientwise against the
    exact p_d; the max absolute difference is reported and must stay below
    _FACTOR_TOLERANCE, or RootFindingError is raised.
    """
    import numpy as np

    if d < 2:
        raise ValueError("factorization needs degree >= 2")
    k = d // 2
    roots = _hermite_roots(d)
    positive = roots[roots > 1e-9]
    if len(positive) != k:
        raise RootFindingError(
            f"expected {k} positive Hermite roots for degree {d}, found {len(positive)}"
        )
    factors = np.sort(1.0 / (4.0 * positive ** 2))

    # elementary symmetric functions give the refolded t^{k-j} x^{2j(+1)} coefficients
    esym = np.zeros(k + 1)
    esym[0] = 1.0
    for a in factors:
        esym[1:] = esym[1:] + a * esym[:-1]

    p = basic_hcp(d)
    error = 0.0
    for j in range(k + 1):
        xexp = 2 * j + (d % 2)
        exact = float(p.coefficient(k - j, (xexp,)))
        error = max(error, abs(esym[j] - exact))
    if error >= _FACTOR_TOLERANCE:
        raise RootFindingError(
            f"parabola factor reconstruction error {error:.3e} exceeds {_FACTOR_TOLERANCE:.1e} for degree {d}"
        )
    return ParabolaFactors(
        degree=d,
        leading_factor="x" if d % 2 else None,
        coefficients=tuple(float(a) for a in factors),
        reconstruction_error=error,
    )


def interlacing_check(d: int) -> CheckResult:
    """Check the strict interlacing of parabola factors of p_{d-1} and p_d.

    Merged in increasing order, the factors must alternate between the two
    polynomials starting with the smallest factor of p_d, with every gap
    larger than _FACTOR_TOLERANCE.  Needs d >= 4 so both members of the pair carry
    at least one factor and the pattern is nontrivial.
    """
    if d < 4:
        raise ValueError("interlacing needs a consecutive pair with d >= 4")
    lower = parabola_factors(d - 1).coefficients
    upper = parabola_factors(d).coefficients
    merged = [(a, d) for a in upper] + [(a, d - 1) for a in lower]
    merged.sort()
    owners = [owner for _, owner in merged]
    expected = [d if i % 2 == 0 else d - 1 for i in range(len(merged))]
    if owners != expected:
        return CheckResult(False, f"factor ownership pattern {owners} is not alternating")
    for (a, oa), (b, ob) in zip(merged, merged[1:]):
        if b - a <= _FACTOR_TOLERANCE:
            return CheckResult(
                False,
                f"violated inequality: factor {a:.12g} of p_{oa} vs {b:.12g} of p_{ob} "
                f"(margin {b - a:.3e} <= {_FACTOR_TOLERANCE:.1e})",
            )
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Weighted inner products on the t = -1 slice
# ---------------------------------------------------------------------------


def gaussian_moment_rational(m: int) -> Fraction:
    """Rational part of int x^{2m} exp(-x^2/4) dx = 2^{m+1} (2m-1)!! sqrt(pi)."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    double_factorial = math.factorial(2 * m) // (2 ** m * math.factorial(m))
    return Fraction(2 ** (m + 1) * double_factorial)


def weighted_inner_product(p: Polynomial, q: Polynomial) -> WeightedInnerProduct:
    """Exact int p(x,-1) q(x,-1) exp(-|x|^2/4) dx as rational * pi^(n/2).

    Odd moments vanish; even moments use the closed form in
    `gaussian_moment_rational`, applied factor by factor.
    """
    if p.spatial_dim != q.spatial_dim:
        raise ValueError("inner product operands must share a spatial dimension")
    n = p.spatial_dim
    product = p.substitute_t(-1) * q.substitute_t(-1)
    total = Fraction(0)
    for ev, c in product.terms.items():
        if any(e % 2 for e in ev.space_exps):
            continue
        factor = Fraction(1)
        for e in ev.space_exps:
            factor *= gaussian_moment_rational(e // 2)
        total += c * factor
    return WeightedInnerProduct(rational_part=total, pi_half_power=n)
