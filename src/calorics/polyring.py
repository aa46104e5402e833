"""Exact sparse polynomial arithmetic in spatial variables x1..xn and time t.

A polynomial on R^{n+1} = {(x_1, ..., x_n, t)} is stored as a mapping from
exponent vectors to nonzero rational coefficients:

    terms: Dict[ExponentVector, Fraction]
    ExponentVector = (t_exp, space_exps)   # the monomial t^k * x^alpha

All coefficients are arbitrary-precision rationals (fractions.Fraction), so
every algebraic identity in this package is checked exactly.  The module has
no floating point; float evaluation belongs to the counting layer.  The zero
polynomial has an empty term map.

Monomials carry two degrees: the algebraic degree k + |alpha| and the
parabolic weight 2k + |alpha|.  A polynomial is parabolically homogeneous of
degree d when every term has parabolic weight d; `parabolic_degree` recovers
d or reports the first two offending weights.

Canonical term order (used by the pretty printer and the JSON form) is
descending parabolic weight, then descending t-exponent, then descending
lexicographic order on alpha.  This matches the conventional way these
polynomials are written, e.g. ``t^2 + t*x^2 + 1/12*x^4``.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union

RationalLike = Union[int, str, Fraction]

# The largest exponent, and the largest degree, of one power in parse_poly:
# four times the counting cap (nodal.MAX_COUNT_DEGREE), and small enough that
# the repeated multiplication of __pow__ ends quickly.
MAX_POWER_DEGREE = 256


class PolynomialError(Exception):
    """Base class for errors raised by the polynomial layer."""


class DimensionMismatch(PolynomialError):
    """Operands or evaluation points disagree about the spatial dimension."""


class ZeroPolynomialError(PolynomialError):
    """An operation that needs a nonzero polynomial received zero."""


class NotHomogeneous(PolynomialError):
    """The polynomial mixes parabolic weights; carries two witnesses."""

    def __init__(self, weight_a: int, weight_b: int):
        super().__init__(
            f"not parabolically homogeneous: found terms of weight "
            f"{weight_a} and {weight_b}"
        )
        self.weights = (weight_a, weight_b)


class NotOnUnitCircle(PolynomialError):
    """Exact rotations require a rational pair with c^2 + s^2 = 1."""


class ParseError(PolynomialError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ExponentVector(NamedTuple):
    """Exponents of the monomial t^k * x^alpha."""

    t_exp: int
    space_exps: Tuple[int, ...]

    @property
    def parabolic_weight(self) -> int:
        return 2 * self.t_exp + sum(self.space_exps)

    @property
    def algebraic_degree(self) -> int:
        return self.t_exp + sum(self.space_exps)


def _canonical_key(ev: ExponentVector):
    # descending weight, then descending k, then descending lex on alpha
    return (
        -ev.parabolic_weight,
        -ev.t_exp,
        tuple(-a for a in ev.space_exps),
    )


def _checked_exponents(ev, spatial_dim: int) -> ExponentVector:
    """ev as an ExponentVector; raises on a non-integer, negative or wrong-length entry."""
    # operator.index refuses 1.5 where int() would truncate it
    ev = ExponentVector(operator.index(ev[0]), tuple(operator.index(a) for a in ev[1]))
    if ev.t_exp < 0 or any(a < 0 for a in ev.space_exps):
        raise ValueError(f"negative exponent in {ev}")
    if len(ev.space_exps) != spatial_dim:
        raise DimensionMismatch(
            f"exponent vector {ev} has {len(ev.space_exps)} spatial entries, expected {spatial_dim}"
        )
    return ev


def _collect(pairs: Iterable[Tuple[ExponentVector, Fraction]]) -> Dict[ExponentVector, Fraction]:
    """Sum the coefficients of equal monomials, in order of first appearance.

    A monomial whose sum reaches zero is dropped; if it comes back, it goes
    to the end.
    """
    out: Dict[ExponentVector, Fraction] = {}
    for ev, coeff in pairs:
        prev = out.get(ev)
        total = coeff if prev is None else prev + coeff
        if total:
            out[ev] = total
        else:
            out.pop(ev, None)
    return out


class Polynomial:
    """Immutable sparse polynomial over Q in (x_1..x_n, t).

    Instances never store zero coefficients and all operations return new
    objects, so values are safe to share across threads.
    """

    __slots__ = ("spatial_dim", "terms")

    def __init__(self, spatial_dim: int, terms: Mapping[ExponentVector, RationalLike]):
        if spatial_dim < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {spatial_dim}")
        pairs = ((_checked_exponents(ev, spatial_dim), Fraction(coeff)) for ev, coeff in terms.items())
        object.__setattr__(self, "spatial_dim", spatial_dim)
        object.__setattr__(self, "terms", _collect(pairs))

    @classmethod
    def _of(cls, spatial_dim: int, pairs: Iterable[Tuple[ExponentVector, Fraction]]) -> "Polynomial":
        """The polynomial of pairs that the ring made itself: summed, not validated again."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "spatial_dim", spatial_dim)
        object.__setattr__(poly, "terms", _collect(pairs))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spatial_dim: int) -> "Polynomial":
        return cls(spatial_dim, {})

    @classmethod
    def constant(cls, spatial_dim: int, value: RationalLike) -> "Polynomial":
        ev = ExponentVector(0, (0,) * spatial_dim)
        return cls(spatial_dim, {ev: Fraction(value)})

    @classmethod
    def variable(cls, spatial_dim: int, index: int) -> "Polynomial":
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < spatial_dim:
            raise ValueError(f"no spatial variable with index {index} in dimension {spatial_dim}")
        alpha = [0] * spatial_dim
        alpha[index] = 1
        return cls(spatial_dim, {ExponentVector(0, tuple(alpha)): Fraction(1)})

    @classmethod
    def time(cls, spatial_dim: int) -> "Polynomial":
        return cls(spatial_dim, {ExponentVector(1, (0,) * spatial_dim): Fraction(1)})

    # ---- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def algebraic_degree(self) -> int:
        """Total degree in all n+1 variables; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(ev.algebraic_degree for ev in self.terms)

    def coefficient(self, t_exp: int, space_exps: Sequence[int]) -> Fraction:
        return self.terms.get(ExponentVector(t_exp, tuple(space_exps)), Fraction(0))

    def canonical_terms(self) -> List[Tuple[ExponentVector, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _canonical_key(item[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.spatial_dim == other.spatial_dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.spatial_dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial(n={self.spatial_dim}, {self.to_expression()!r})"

    # ---- ring operations -------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.spatial_dim != other.spatial_dim:
            raise DimensionMismatch(
                f"spatial dimensions differ: {self.spatial_dim} vs {other.spatial_dim}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        return Polynomial._of(self.spatial_dim, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.spatial_dim, ((ev, -c) for ev, c in self.terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        return Polynomial._of(self.spatial_dim, (
            (ExponentVector(a.t_exp + b.t_exp, tuple(map(operator.add, a.space_exps, b.space_exps))), ca * cb)
            for a, ca in self.terms.items()
            for b, cb in other.terms.items()
        ))

    def scale(self, factor: RationalLike) -> "Polynomial":
        factor = Fraction(factor)
        return Polynomial._of(self.spatial_dim, ((ev, c * factor) for ev, c in self.terms.items()))

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.spatial_dim, 1)
        for _ in range(exponent):
            out = out * self
        return out

    # ---- calculus -------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to x_{index+1}."""
        if not 0 <= index < self.spatial_dim:
            raise ValueError(f"no spatial variable with index {index} in dimension {self.spatial_dim}")
        return Polynomial._of(self.spatial_dim, (
            (ev._replace(space_exps=ev.space_exps[:index] + (e - 1,) + ev.space_exps[index + 1:]), c * e)
            for ev, c in self.terms.items()
            if (e := ev.space_exps[index])
        ))

    def partial_t(self) -> "Polynomial":
        return Polynomial._of(self.spatial_dim, (
            (ev._replace(t_exp=ev.t_exp - 1), c * ev.t_exp) for ev, c in self.terms.items() if ev.t_exp
        ))

    def substitute_t(self, value: RationalLike) -> "Polynomial":
        """Collapse the t variable at an exact rational time slice."""
        value = Fraction(value)
        return Polynomial._of(self.spatial_dim, (
            (ExponentVector(0, ev.space_exps), c * value ** ev.t_exp) for ev, c in self.terms.items()
        ))

    # ---- evaluation -------------------------------------------------

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at (x_1, ..., x_n, t)."""
        if len(point) != self.spatial_dim + 1:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.spatial_dim + 1}"
            )
        coords = [Fraction(v) for v in point]
        xs, tval = coords[:-1], coords[-1]
        total = Fraction(0)
        for ev, c in self.terms.items():
            term = c * tval ** ev.t_exp
            for x, e in zip(xs, ev.space_exps):
                if e:
                    term *= x ** e
            total += term
        return total

    # ---- reshaping -------------------------------------------------

    def t_coefficients(self) -> List["Polynomial"]:
        """Spatial coefficients [p_m, ..., p_0] with p = sum_j t^j p_j, p_m != 0."""
        if not self.terms:
            return []
        m = max(ev.t_exp for ev in self.terms)
        buckets: List[List[Tuple[ExponentVector, Fraction]]] = [[] for _ in range(m + 1)]
        for ev, c in self.terms.items():
            buckets[ev.t_exp].append((ExponentVector(0, ev.space_exps), c))
        return [Polynomial._of(self.spatial_dim, bucket) for bucket in reversed(buckets)]

    # ---- text and JSON forms -------------------------------------------------

    def to_expression(self) -> str:
        """Canonical human-readable form; round-trips through parse_poly."""
        if not self.terms:
            return "0"
        chunks: List[str] = []
        for idx, (ev, coeff) in enumerate(self.canonical_terms()):
            body = _format_monomial(ev, self.spatial_dim)
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            if idx == 0:
                chunks.append(text if coeff > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(chunks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.spatial_dim,
            "terms": [
                {
                    "k": ev.t_exp,
                    "alpha": list(ev.space_exps),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for ev, c in self.canonical_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        """Inverse of to_json_dict; raises ValueError rather than truncate or merge.

        n, k and alpha must be JSON integers, num and den integer strings
        (JSON integers are read too), and each monomial may appear once.
        """
        terms: Dict[ExponentVector, Fraction] = {}
        for entry in data["terms"]:
            ev = ExponentVector(_json_int(entry["k"]), tuple(_json_int(a) for a in entry["alpha"]))
            if ev in terms:
                raise ValueError(f"monomial t^{ev.t_exp} x^{ev.space_exps} is listed twice")
            terms[ev] = Fraction(_json_int(entry["num"], str), _json_int(entry["den"], str))
        return cls(_json_int(data["n"]), terms)


def _json_int(value, *also: type) -> int:
    """value as an int if it is a JSON integer or of a type in `also`; never a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, *also)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def variable_names(spatial_dim: int) -> List[str]:
    """Preferred print names: x, y, z for n <= 3, else x1..xn."""
    if spatial_dim <= 3:
        return ["x", "y", "z"][:spatial_dim]
    return [f"x{i + 1}" for i in range(spatial_dim)]


def _format_monomial(ev: ExponentVector, spatial_dim: int) -> str:
    names = variable_names(spatial_dim)
    parts: List[str] = []
    if ev.t_exp == 1:
        parts.append("t")
    elif ev.t_exp > 1:
        parts.append(f"t^{ev.t_exp}")
    for name, e in zip(names, ev.space_exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# One match per token: an integer, or an a/b rational, literal (\d is exactly
# what int() reads), a name, or any other character but whitespace.
_TOKEN = re.compile(r"(\d+)(?:/(\d*))?|([^\W\d_]\w*)|\S")


def _tokenize(text: str) -> List[Tuple[str, str, int, Fraction | None]]:
    """(kind, text, position, value) of each token, then an "end" token; an operator's kind is itself."""
    tokens = []
    for match in _TOKEN.finditer(text):
        digits, den, name = match.groups()
        kind, value = match[0], None
        if digits:
            if den == "":
                raise ParseError("expected digits after '/'", match.start(2))
            try:
                kind, value = "num", Fraction(int(digits), int(den or 1))
            except ZeroDivisionError:
                raise ParseError("zero denominator", match.start(2)) from None
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                raise ParseError("literal has more digits than int() accepts", match.start()) from None
        elif name:
            kind = "name"
        elif kind not in "+-*^()":
            raise ParseError(f"unexpected character {kind!r}", match.start())
        tokens.append((kind, match[0], match.start(), value))
    tokens.append(("end", "", len(text), None))
    return tokens


def parse_poly(text: str, spatial_dim: int) -> Polynomial:
    """Parse an expression in x1..xn (aliases x, y, z for n <= 3) and t.

    Tokens, with whitespace between them skipped (_TOKEN):
        number = digits ["/" digits]    (decimal digits, as int() reads them)
        name   = a word character other than a decimal digit or "_", then word characters
        and the operators + - * ^ ( )
    Grammar:
        expr   = ["+" | "-"] term {("+" | "-") term}
        term   = factor {"*" factor}
        factor = "-" factor | atom ["^" number]    (a non-negative integer)
        atom   = number | name | "(" expr ")"
    A spatial_dim below 1 raises ValueError before the text is read.  Every
    malformed text raises ParseError with a character position; so do a
    literal past int()'s digit limit, nesting too deep for the recursive
    descent and a power whose exponent or degree exceeds MAX_POWER_DEGREE.
    """
    Polynomial.zero(spatial_dim)  # refuses spatial_dim < 1 with Polynomial's message
    names = {f"x{i + 1}": i for i in range(spatial_dim)}
    names.update((name, i) for i, name in enumerate(variable_names(spatial_dim)))
    tokens = _tokenize(text)[::-1]  # the next token last

    def take(*kinds: str):
        """The next token, consumed, if its kind is one of kinds; else None."""
        return tokens.pop() if tokens[-1][0] in kinds else None

    def expr() -> Polynomial:
        sign = take("+", "-")
        poly = term()
        if sign and sign[0] == "-":
            poly = -poly
        while op := take("+", "-"):
            rhs = term()
            poly = poly - rhs if op[0] == "-" else poly + rhs
        return poly

    def term() -> Polynomial:
        poly = factor()
        while take("*"):
            poly = poly * factor()
        return poly

    def factor() -> Polynomial:
        if take("-"):
            return -factor()
        base = atom()
        if not take("^"):
            return base
        kind, _, pos, value = tokens[-1]
        if not take("num") or value.denominator != 1:
            raise ParseError("negative exponent" if kind == "-" else "exponent must be a non-negative integer", pos)
        exponent = int(value)
        # the exponent bounds the multiplications; with it the degree bounds the result
        if max(exponent, exponent * base.algebraic_degree()) > MAX_POWER_DEGREE:
            raise ParseError(f"power exponent or degree exceeds {MAX_POWER_DEGREE}", pos)
        return base ** exponent

    def atom() -> Polynomial:
        _, word, pos, value = tokens[-1]
        if take("num"):
            return Polynomial.constant(spatial_dim, value)
        if take("name"):
            if word == "t":
                return Polynomial.time(spatial_dim)
            if word not in names:
                raise ParseError(f"unknown variable {word!r}", pos)
            return Polynomial.variable(spatial_dim, names[word])
        if take("("):
            inner = expr()
            if not take(")"):
                raise ParseError("expected ')'", tokens[-1][2])
            return inner
        raise ParseError("expected a number, variable, or '('", pos)

    try:
        poly = expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", tokens[-1][2]) from None
    if len(tokens) > 1:
        raise ParseError(f"unexpected {tokens[-1][1]!r}", tokens[-1][2])
    return poly


# ---------------------------------------------------------------------------
# Differential operators and structure maps
# ---------------------------------------------------------------------------


def laplacian(p: Polynomial) -> Polynomial:
    out = Polynomial.zero(p.spatial_dim)
    for i in range(p.spatial_dim):
        out = out + p.partial(i).partial(i)
    return out


def heat_apply(p: Polynomial) -> Polynomial:
    """Apply the heat operator: d/dt - sum_i d^2/dx_i^2, exactly."""
    return p.partial_t() - laplacian(p)


def parabolic_degree(p: Polynomial) -> int:
    """The common parabolic weight 2k + |alpha| of all terms of p.

    Raises ZeroPolynomialError on the zero polynomial and NotHomogeneous
    (with two witness weights) when terms disagree.
    """
    if p.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no parabolic degree")
    weights = {ev.parabolic_weight for ev in p.terms}
    if len(weights) > 1:
        lo, hi = min(weights), max(weights)
        raise NotHomogeneous(lo, hi)
    return weights.pop()


def embed(p: Polynomial, spatial_dim: int, variable_map: Sequence[int]) -> Polynomial:
    """Relabel p's spatial variables into a (possibly larger) dimension.

    variable_map[i] gives the new index of old variable i; t is unchanged.
    """
    if len(variable_map) != p.spatial_dim:
        raise DimensionMismatch("variable_map length must equal p.spatial_dim")
    if len(set(variable_map)) != len(variable_map):
        raise ValueError("variable_map must be injective")
    if any(not 0 <= v < spatial_dim for v in variable_map):
        raise ValueError("variable_map index out of range")
    # the old index of each new variable; -1 picks the 0 appended to each old alpha
    pick = [variable_map.index(k) if k in variable_map else -1 for k in range(spatial_dim)]
    return Polynomial._of(spatial_dim, (
        (ExponentVector(ev.t_exp, tuple((ev.space_exps + (0,))[k] for k in pick)), c)
        for ev, c in p.terms.items()
    ))


def rotate_xy(p: Polynomial, i: int, j: int, c: RationalLike, s: RationalLike) -> Polynomial:
    """Compose p with the exact rotation x_i -> c*x_i - s*x_j, x_j -> s*x_i + c*x_j.

    (c, s) must be an exact rational point on the unit circle, e.g. the
    Pythagorean pair (3/5, 4/5); otherwise NotOnUnitCircle is raised.
    Parabolic degree and membership in the heat-operator kernel are preserved.
    """
    c, s = Fraction(c), Fraction(s)
    if c * c + s * s != 1:
        raise NotOnUnitCircle(f"c^2 + s^2 = {c * c + s * s} != 1")
    return _substitute_pair(p, i, j, c, s)


def _substitute_pair(p: Polynomial, i: int, j: int, c: Fraction, s: Fraction) -> Polynomial:
    if i == j:
        raise ValueError("rotation axes must differ")
    for axis in (i, j):
        if not 0 <= axis < p.spatial_dim:
            raise ValueError(f"invalid rotation axis {axis} for dimension {p.spatial_dim}")
    pairs: List[Tuple[ExponentVector, Fraction]] = []
    for ev, coeff in p.terms.items():
        # (c x_i - s x_j)^a (s x_i + c x_j)^b: the u-th entry of the first row
        # goes with x_i^(a-u) x_j^u, the v-th of the second with x_i^(b-v) x_j^v
        a, b = ev.space_exps[i], ev.space_exps[j]
        row_i = [coeff * math.comb(a, u) * c ** (a - u) * (-s) ** u for u in range(a + 1)]
        row_j = [math.comb(b, v) * s ** (b - v) * c ** v for v in range(b + 1)]
        alpha = list(ev.space_exps)
        for u, cu in enumerate(row_i):
            for v, cv in enumerate(row_j):
                alpha[i], alpha[j] = a + b - u - v, u + v
                pairs.append((ExponentVector(ev.t_exp, tuple(alpha)), cu * cv))
    return Polynomial._of(p.spatial_dim, pairs)


def format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
