"""Builders for the explicit caloric polynomial families with known nodal counts.

Three perturbation families cover the minimal-count constructions in two
space variables (one per congruence class of the degree d):

  lewy       d = 2 mod 4:  Im((x+iy)^d) - eps * p_d(x, t)            -> 2 domains
  odd        d odd >= 3:   y p_{d-1}(x, t) + eps * p_d(c x - s y, t) -> 2 domains
  zero_mod_4 d = 0 mod 4:  p_{2k}(x,t) p_{2k}(y,t)
                             + eps * p_{2k+1}(s x + c y, t)
                                   * p_{2k-1}(c x - s y, t)          -> 3 domains

with (c, s) a point on the unit circle.  The sign placement in the odd and
zero_mod_4 families is fixed so that the hard-coded integer fixtures below
are exact rational multiples of the parametric builders at eps = 1 resp. 1/2
and (c, s) = (3/5, 4/5); mirrored variants have identical nodal topology.

The high-dimensional family adds a planar harmonic polynomial to a basic hcp
in separate variables, and the product family multiplies basic hcps across
coordinates to force many nodal domains.  Fixed integer fixtures are kept as
literal text and cross-validated against the parametric builders by the test
suite, guarding transcriptions in either direction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .caloric import basic_hcp, product_hcp
from .polyring import (
    ExponentVector,
    NotOnUnitCircle,
    Polynomial,
    _json_int,
    _substitute_pair,
    embed,
    format_rational,
    parse_poly,
)

RotationSpec = Union[Tuple[Fraction, Fraction], float]

FAMILIES = ("lewy", "odd", "zero_mod_4", "high_dim", "product", "fixture")
# the ConstructionSpec fields each family reads; a spec refuses any other field that
# differs from its default, and the CLI any other generator flag
FAMILY_FIELDS = {
    "lewy": ("d", "epsilon", "n"),
    "odd": ("d", "epsilon", "rotation", "n"),
    "zero_mod_4": ("d", "epsilon", "rotation", "n"),
    "high_dim": ("d", "n", "seed_kind"),
    "product": ("d", "n"),
    "fixture": ("fixture_id",),
}

# Figure-quality defaults; other degrees need an explicit eps or a scan.
DEFAULT_EPSILON = {
    ("lewy", 6): Fraction(1, 20),
    ("odd", 5): Fraction(3, 10),
    ("zero_mod_4", 4): Fraction(1, 5),
}
DEFAULT_ROTATION: Tuple[Fraction, Fraction] = (Fraction(3, 5), Fraction(4, 5))
# the largest n of a deg2 fixture, a generator's -n or an --expr: every term
# of the exact ring keeps one exponent per variable, so n = 10^9 asks for
# gigabytes before a family or the parser could refuse it; counting stops at
# n = 3 in any case
MAX_SPATIAL_DIM = 64
# the most terms product_lower may expand to: product_lower(16, 32) builds
# 2^16 of them in about half a second, and the count doubles or more with
# each further factor (gen product -d 48 -n 24 asks for 2^24)
MAX_PRODUCT_TERMS = 2 ** 16


class ConstructionError(ValueError):
    """Invalid family parameters (congruence, range, or rotation)."""


def _epsilon(family: str, d: int, epsilon: Optional[Union[Fraction, float]]) -> Fraction:
    """The exact positive epsilon to build with: the given one, else the figure default."""
    if epsilon is None:
        if (family, d) not in DEFAULT_EPSILON:
            raise ConstructionError(
                f"no default epsilon for family {family!r} at d = {d}; "
                f"pass one explicitly or run an epsilon scan"
            )
        return DEFAULT_EPSILON[(family, d)]
    eps = Fraction(epsilon)  # floats rationalize exactly
    if eps <= 0:
        raise ConstructionError("epsilon must be positive")
    return eps


@dataclass(frozen=True)
class ConstructionSpec:
    """Serializable recipe for one polynomial from the families above."""

    family: str
    d: int = 0
    n: Optional[int] = None  # the family's own: 3 for high_dim, 2 for the others
    epsilon: Optional[Union[Fraction, float]] = None
    rotation: Optional[RotationSpec] = None
    fixture_id: Optional[str] = None
    seed_kind: str = "real_part"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConstructionError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        family_n = 3 if self.family == "high_dim" else 2
        if self.n is None:
            object.__setattr__(self, "n", family_n)
        for field in fields(self)[1:]:  # each field after family, at its default unless read
            default = family_n if field.name == "n" else field.default
            if field.name not in FAMILY_FIELDS[self.family] and getattr(self, field.name) != default:
                raise ConstructionError(f"{field.name} does not apply to the {self.family} family")
        if self.family == "high_dim" and self.n < 3:
            raise ConstructionError("high_dim needs n >= 3")
        if self.family == "lewy" and self.d % 4 != 2:
            raise ConstructionError(f"lewy family needs d = 2 mod 4, got d = {self.d}")
        if self.family == "odd" and (self.d < 3 or self.d % 2 == 0):
            raise ConstructionError(f"odd family needs odd d >= 3, got d = {self.d}")
        if self.family == "zero_mod_4" and (self.d < 4 or self.d % 4 != 0):
            raise ConstructionError(f"zero_mod_4 family needs d = 0 mod 4 >= 4, got d = {self.d}")
        if self.family in ("lewy", "odd", "zero_mod_4") and self.n != 2:
            raise ConstructionError(f"{self.family} family needs n = 2, got n = {self.n}")
        if self.epsilon is not None:
            _epsilon(self.family, self.d, self.epsilon)

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family, "d": self.d, "n": self.n}
        if self.epsilon is not None:
            out["eps"] = (
                format_rational(self.epsilon)
                if isinstance(self.epsilon, Fraction)
                else float(self.epsilon)
            )
        if self.rotation is not None:
            if isinstance(self.rotation, tuple):
                out["rot"] = [format_rational(self.rotation[0]), format_rational(self.rotation[1])]
            else:
                out["rot"] = float(self.rotation)
        if self.fixture_id is not None:
            out["fixture"] = self.fixture_id
        if self.family == "high_dim":
            out["seed_kind"] = self.seed_kind
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionSpec":
        eps = data.get("eps")
        if isinstance(eps, str):
            eps = Fraction(eps)
        rot = data.get("rot")
        if isinstance(rot, list):
            rot = (Fraction(rot[0]), Fraction(rot[1]))
        return cls(
            family=data["family"],
            d=_json_int(data.get("d", 0)),
            n=_json_int(data["n"]) if "n" in data else None,
            epsilon=eps,
            rotation=rot,
            fixture_id=data.get("fixture"),
            seed_kind=data.get("seed_kind", "real_part"),
        )


def resolve_rotation(rotation: Optional[RotationSpec]) -> Tuple[Fraction, Fraction, bool]:
    """Normalize a rotation input to exact (c, s) plus an exactness flag.

    A pair of rationals is checked to lie on the unit circle.  A float angle
    alpha maps to the pair (cos alpha, -sin alpha): combined with the sign
    placement of the perturbation families this makes the alpha-parametrized
    family the mirror image (an isometry, so nodal counts are unchanged) of
    the conventional one, and small alpha > 0 lands in the regime where the
    odd-degree family has two nodal domains.  The cos/sin doubles are
    converted to exact rationals, so the resulting polynomials are exact but
    only approximately rotations; the flag is False and downstream reports
    must mark such runs inexact.
    """
    if rotation is None:
        rotation = DEFAULT_ROTATION
    if isinstance(rotation, tuple):
        c, s = Fraction(rotation[0]), Fraction(rotation[1])
        if c * c + s * s != 1:
            raise NotOnUnitCircle(f"c^2 + s^2 = {c * c + s * s} != 1")
        return c, s, True
    angle = float(rotation)
    if not math.isfinite(angle):
        raise ConstructionError(f"rotation angle {angle} is not finite")
    return Fraction(math.cos(angle)), Fraction(-math.sin(angle)), False


def harmonic_2d(d: int, kind: str = "imag_part") -> Polynomial:
    """Re or Im of (x + iy)^d with exact integer coefficients (n = 2, t-free)."""
    if d < 1:
        raise ConstructionError("harmonic seed degree must be >= 1")
    if kind not in ("real_part", "imag_part"):
        raise ConstructionError(f"unknown harmonic kind {kind!r}")
    want = 0 if kind == "real_part" else 1
    terms: Dict[ExponentVector, Fraction] = {}
    for j in range(d + 1):
        if j % 2 != want:
            continue
        sign = -1 if j % 4 >= 2 else 1  # i^j = sign * (1 or i)
        terms[ExponentVector(0, (d - j, j))] = Fraction(sign * math.comb(d, j))
    return Polynomial(2, terms)


def lewy_2mod4(d: int, epsilon: Optional[Union[Fraction, float]] = None) -> Polynomial:
    """Im((x+iy)^d) - eps * p_d(x, t) for d = 2 mod 4; two nodal domains for small eps."""
    ConstructionSpec("lewy", d=d)  # rejects a degree outside the family
    eps = _epsilon("lewy", d, epsilon)
    return harmonic_2d(d, "imag_part") - embed(basic_hcp(d), 2, [0]).scale(eps)


def odd_construction(
    d: int,
    epsilon: Optional[Union[Fraction, float]] = None,
    rotation: Optional[RotationSpec] = None,
) -> Polynomial:
    """y p_{d-1}(x, t) + eps * p_d(c x - s y, t) for odd d >= 3.

    Two nodal domains for small eps and generic rotation.  At eps = 1 and
    (c, s) = (3/5, 4/5) this is 1/750 times the integer degree-3 example.
    """
    ConstructionSpec("odd", d=d)  # rejects a degree outside the family
    eps = _epsilon("odd", d, epsilon)
    c, s, _ = resolve_rotation(rotation)
    base = product_hcp((d - 1, 1))  # p_1(y, t) = y
    perturbation = _substitute_pair(product_hcp((d, 0)), 0, 1, c, s)
    return base + perturbation.scale(eps)


def zero_mod4(
    d: int,
    epsilon: Optional[Union[Fraction, float]] = None,
    rotation: Optional[RotationSpec] = None,
) -> Polynomial:
    """p_{2k} p_{2k} + eps * p_{2k+1}(s x + c y, t) p_{2k-1}(c x - s y, t), d = 4k.

    Three nodal domains for small eps and generic rotation.  At eps = 1/2 and
    (c, s) = (3/5, 4/5) this is 1/7500 times the integer degree-4 example.
    """
    ConstructionSpec("zero_mod_4", d=d)  # rejects a degree outside the family
    eps = _epsilon("zero_mod_4", d, epsilon)
    c, s, _ = resolve_rotation(rotation)
    k = d // 4
    base = product_hcp((2 * k, 2 * k))
    # substituting each factor on its own keeps the expansion small
    perturbation = _substitute_pair(product_hcp((2 * k - 1, 0)), 0, 1, c, s) * _substitute_pair(
        product_hcp((0, 2 * k + 1)), 0, 1, c, s
    )
    return base + perturbation.scale(eps)


def high_dim(d: int, seed: str = "real_part", n: int = 3) -> Polynomial:
    """phi(x, y) + p_d(z, t) with phi = harmonic_2d(d, seed): two nodal domains.

    Exposed at n = 3; larger n embeds the same polynomial with unused extra
    variables, which leaves the nodal count at two.
    """
    if n < 3:
        raise ConstructionError("high_dim needs n >= 3")
    return embed(harmonic_2d(d, seed), n, [0, 1]) + embed(basic_hcp(d), n, [2])


def product_lower(n: int, d: int) -> Polynomial:
    """q(x_n, t) * prod_{i<n} p(x_i, t) with deg p = floor(d/n), deg q = remainder top-up.

    Caloric of degree d with at least floor(d/n)^n nodal domains; needs
    floor(d/n) >= 2 so every factor is time-dependent.  A factor of degree
    k has floor(k/2) + 1 terms, and a product whose terms would pass
    MAX_PRODUCT_TERMS is refused before it is expanded.
    """
    if n < 2:
        raise ConstructionError("product family needs n >= 2")
    c = d // n
    if c < 2:
        raise ConstructionError(f"product family needs floor(d/n) >= 2, got {c} for (n, d) = ({n}, {d})")
    alpha = (c,) * (n - 1) + (d - (n - 1) * c,)
    terms = math.prod(k // 2 + 1 for k in alpha)
    if terms > MAX_PRODUCT_TERMS:
        raise ConstructionError(
            f"product family at (n, d) = ({n}, {d}) expands to {terms} terms, "
            f"past the cap MAX_PRODUCT_TERMS = {MAX_PRODUCT_TERMS}"
        )
    return product_hcp(alpha)


def product_count(alpha: Sequence[int]) -> int:
    """Nodal domains of product_hcp(alpha) with every k_i >= 1: prod(k_i + 1) - 2^n + 2^m.

    n = len(alpha) and m is the number of odd k_i.  Proof: the coefficients
    of p_k(x, t) are positive, so for t > 0 it is x^(k mod 2) times a
    polynomial in x^2 with no real root, and for t < 0 it has k simple real
    roots, sqrt(-t) times those of a Hermite polynomial.  So at t < 0 the
    zero set of the product is the hyperplanes x_i = root, which cut
    {t < 0} into prod(k_i + 1) boxes, each crossed continuously by t.  All
    roots shrink to 0 as t -> 0-.  A box with some x_i between two roots
    meets t = 0 only where x_i = 0 and p = 0, so it is a domain of its own.
    The 2^n outer boxes (each x_i beyond every root) touch t = 0 where every
    x_i != 0 and p = prod x_i^(k_i) != 0, and join {t >= 0, p != 0}, whose
    components are the 2^m sign patterns of the odd-degree coordinates.
    n = 1 gives the 2 ceil(k/2) of basic_hcp(k).
    """
    if not alpha or min(alpha) < 1:
        raise ConstructionError(f"product_count needs every k_i >= 1, got {tuple(alpha)}")
    return math.prod(k + 1 for k in alpha) - 2 ** len(alpha) + 2 ** sum(k % 2 for k in alpha)


# ---------------------------------------------------------------------------
# Fixed fixtures (integer polynomials printed in the source material)
# ---------------------------------------------------------------------------

_FIXTURE_TEXT = {
    "deg2": ("2*t + x^2", 1),
    "n2d3": ("150*t*(3*x + y) + 27*x^3 + 267*x^2*y + 144*x*y^2 - 64*y^3", 2),
    "n2d4": (
        "7500*t^2 + 150*t*(37*x^2 - 7*x*y + 13*y^2)"
        " + 192*x^4 + 176*x^3*y + 1623*x^2*y^2 - 351*x*y^3 - 108*y^4",
        2,
    ),
    "n3d4": ("12*t^2 + 12*t*x^2 + x^4 + y^4 - 6*y^2*z^2 + z^4", 3),
    "prod_n2d4": ("(2*t + x^2)*(2*t + y^2)", 2),
}

_DEG2_PATTERN = re.compile(r"^deg2_n(\d+)_j(\d+)$")
_BASIC_PATTERN = re.compile(r"^basic_(\d+)$")


def fixture_ids() -> List[str]:
    return sorted(_FIXTURE_TEXT) + ["deg2_n<N>_j<J>", "basic_<d>  (d <= 8)"]


def fixture(fixture_id: str) -> Polynomial:
    """Look up a fixed example polynomial by id.

    Known ids: deg2, deg2_n<N>_j<J>, n2d3, n2d4, n3d4, prod_n2d4, and
    basic_<d> for d <= 8.
    """
    if fixture_id in _FIXTURE_TEXT:
        text, n = _FIXTURE_TEXT[fixture_id]
        return parse_poly(text, n)
    match = _DEG2_PATTERN.match(fixture_id)
    if match:
        n, j = int(match.group(1)), int(match.group(2))
        if n > MAX_SPATIAL_DIM:
            raise ConstructionError(f"deg2 fixture n = {n} exceeds the cap MAX_SPATIAL_DIM = {MAX_SPATIAL_DIM}")
        if not 1 <= j <= n:
            raise ConstructionError(f"deg2 fixture needs 1 <= j <= n, got j = {j}, n = {n}")
        xj = Polynomial.variable(n, j - 1)
        return Polynomial.time(n).scale(2) + xj * xj
    match = _BASIC_PATTERN.match(fixture_id)
    if match:
        d = int(match.group(1))
        if d > 8:
            raise ConstructionError("basic fixtures are provided for d <= 8; use the generator instead")
        return basic_hcp(d)
    raise ConstructionError(
        f"unknown fixture {fixture_id!r}; known ids: {', '.join(fixture_ids())}"
    )


# ---------------------------------------------------------------------------
# Spec-driven dispatch and epsilon admissibility scans
# ---------------------------------------------------------------------------


def target_count(family: str, n: int = 2, d: int = 0) -> int:
    """Expected stabilized nodal count for each construction family."""
    if family in ("lewy", "odd", "high_dim"):
        return 2
    if family == "zero_mod_4":
        return 3
    if family == "product":
        return (d // n) ** n
    raise ConstructionError(f"no target count for family {family!r}")


def build(spec: ConstructionSpec) -> Polynomial:
    """Materialize a ConstructionSpec into a polynomial."""
    if spec.family == "lewy":
        return lewy_2mod4(spec.d, spec.epsilon)
    if spec.family == "odd":
        return odd_construction(spec.d, spec.epsilon, spec.rotation)
    if spec.family == "zero_mod_4":
        return zero_mod4(spec.d, spec.epsilon, spec.rotation)
    if spec.family == "high_dim":
        return high_dim(spec.d, spec.seed_kind, spec.n)
    if spec.family == "product":
        return product_lower(spec.n, spec.d)
    if spec.family == "fixture":
        if spec.fixture_id is None:
            raise ConstructionError("fixture family needs fixture_id")
        return fixture(spec.fixture_id)
    raise ConstructionError(f"unknown family {spec.family!r}")


@dataclass(frozen=True)
class ScanRow:
    epsilon: Fraction
    total: int
    positive: int
    negative: int
    stable: bool


@dataclass(frozen=True)
class ScanResult:
    """Epsilon sweep outcome: full table plus the admissibility verdict."""

    target: int
    rows: Tuple[ScanRow, ...]
    largest_admissible: Optional[Fraction]

    @property
    def admissible(self) -> List[Fraction]:
        return [row.epsilon for row in self.rows if row.stable and row.total == self.target]

    @property
    def no_admissible(self) -> bool:
        return self.largest_admissible is None


def scan_epsilon(
    spec: ConstructionSpec,
    eps_grid: Sequence[Union[Fraction, str, float]],
    target: Optional[int] = None,
    schedule: Optional[Sequence[int]] = None,
) -> ScanResult:
    """Sweep eps over the grid (descending) and count nodal domains at each.

    An eps is admissible when the multi-resolution count stabilizes at the
    family's target.  The full table is always returned; when nothing in the
    grid is admissible the result is flagged through `no_admissible`.
    """
    from .nodal import nodal_count  # local import keeps module layering acyclic

    if target is None:
        target = target_count(spec.family, spec.n, spec.d)
    grid = sorted({Fraction(e) for e in eps_grid}, reverse=True)
    if not grid or grid[-1] <= 0:
        raise ConstructionError("eps grid must contain positive rationals")
    rows: List[ScanRow] = []
    largest: Optional[Fraction] = None
    for eps in grid:
        poly = build(replace(spec, epsilon=eps))
        report = nodal_count(poly, schedule)
        rows.append(ScanRow(eps, report.total, report.positive, report.negative, report.stable))
        if largest is None and report.stable and report.total == target:
            largest = eps
    return ScanResult(target=target, rows=tuple(rows), largest_admissible=largest)
