"""Exact polynomial layer: parsing, arithmetic, calculus, rotations, forms."""

import ast
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calorics
from calorics import (
    DimensionMismatch,
    NotHomogeneous,
    NotOnUnitCircle,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    embed,
    heat_apply,
    laplacian,
    parabolic_degree,
    parse_poly,
    rotate_xy,
)
from calorics.constructions import resolve_rotation
from calorics.polyring import MAX_POWER_DEGREE, MAX_POWER_TERMS, _substitute_pair

from conftest import homogeneous_polynomials, negate_space, polynomials, pythagorean_pairs, small_rationals

P4_TEXT = "t^2 + t*x^2 + 1/12*x^4"
N3D4_TEXT = "12*t^2 + 12*t*x^2 + x^4 + y^4 - 6*y^2*z^2 + z^4"
N2D3_TEXT = "150*t*(3*x + y) + 27*x^3 + 267*x^2*y + 144*x*y^2 - 64*y^3"


# ---- parsing ----


def test_parse_degree_four_example():
    p = parse_poly(P4_TEXT, 1)
    assert len(p.terms) == 3
    assert p.coefficient(0, (4,)) == F(1, 12)
    assert p.coefficient(2, (0,)) == 1


def test_parse_zero():
    p = parse_poly("0", 2)
    assert p.is_zero
    assert p.terms == {}


def test_parse_three_space_variables():
    p = parse_poly(N3D4_TEXT, 3)
    assert len(p.terms) == 6
    assert p.coefficient(0, (0, 2, 2)) == -6


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("t + (", 1)
    assert err.value.position == 5


def test_parse_too_deep_nesting_is_a_parse_error():
    # each leading minus sign is one more level of the recursive descent
    with pytest.raises(ParseError) as err:
        parse_poly("-" * 2000 + "t", 1)
    assert 0 < err.value.position < 2000


def test_parse_power_beyond_the_degree_cap_is_a_parse_error():
    # the cap bounds the degree of each power, and for a constant base its exponent
    assert parse_poly(f"(x^2 + t)^{MAX_POWER_DEGREE // 2}", 1).algebraic_degree() == MAX_POWER_DEGREE
    for expr in (f"(x^2 + t)^{MAX_POWER_DEGREE // 2 + 1}", f"2^{MAX_POWER_DEGREE + 1}", "x^100000000"):
        with pytest.raises(ParseError, match=f"exceeds {MAX_POWER_DEGREE}") as err:
            parse_poly(expr, 1)
        assert err.value.position == expr.rindex("^") + 1


# A power's term count is bounded before it is expanded, by the smaller of
# C(k + e - 1, e) for a base of k terms and C(D + n + 1, n + 1), the monomials
# of degree <= D = e * deg(base) in n + 1 variables.
@pytest.mark.parametrize(
    "text, n, terms",
    [
        # C(91, 2) = 4095, the cap less one
        pytest.param("(" + "+".join(f"x^{i}" for i in range(90)) + ")^2", 1, 179, id="(x^0+...+x^89)^2"),
        ("(1 + x + t + x^2 + x*t + t^2)^12", 1, 325),  # C(17, 12) = 6188, but C(26, 2) = 325 monomials
        ("(x1+x2+x3+t)^5", 64, 56),  # C(8, 5) = 56, but C(70, 65) monomials
        ("(x+y+z+t)^26", 3, 3654),  # C(29, 26) = 3654
        ("(x+t)^200", 1, 201),
        ("(x^2+t)^128", 1, 129),
        ("(x-x)^200", 1, 0),  # a zero base counts as one term
    ],
)
def test_parse_power_within_the_term_cap_expands(text, n, terms):
    power = parse_poly(text, n)
    assert len(power.terms) == terms <= MAX_POWER_TERMS
    base, exponent = text[1:].rsplit(")^", 1)
    assert power == parse_poly(base, n) ** int(exponent)


@pytest.mark.parametrize(
    "text, n",
    [
        # C(92, 2) = 4186
        pytest.param("(" + "+".join(f"x^{i}" for i in range(91)) + ")^2", 1, id="(x^0+...+x^90)^2"),
        ("(1 + x + t + x^2 + x*t + t^2)^45", 1),  # C(92, 2) = 4186 monomials of degree <= 90 in x, t
        ("(x+y+z+t)^48", 3),  # C(51, 48) = 20825
        # C(68, 4) = 814385
        pytest.param("(" + "+".join(f"x{i}" for i in range(1, 65)) + "+t)^4", 64, id="(x1+...+x64+t)^4"),
        ("((x+y+z+t)^8)^6", 3),  # the inner power has 165 terms; C(52, 4) = 270725 monomials
    ],
)
def test_parse_power_beyond_the_term_cap_is_a_parse_error(text, n):
    with pytest.raises(ParseError, match=f"past {MAX_POWER_TERMS} terms") as err:
        parse_poly(text, n)
    assert err.value.position == text.rindex("^")


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'y'"):
        parse_poly("t + y", 1)


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^-2", 1)


def test_parse_rejects_trailing_junk():
    with pytest.raises(ParseError):
        parse_poly("x 2", 1)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("1/ + x", "expected digits after '/'", 2),
        ("x + 3/0", "zero denominator", 6),
        ("x $ 1", "unexpected character '$'", 2),
        ("x^1/2", "exponent must be a non-negative integer", 2),
        # an exponent is digits only: x^4/2 and x^2/1 were read as x^2
        ("x^4/2", "exponent must be a non-negative integer", 2),
        ("x^2/1", "exponent must be a non-negative integer", 2),
        ("(x+t)^6/3", "exponent must be a non-negative integer", 6),
        ("x^(2)", "exponent must be a non-negative integer", 2),
        ("x^y", "exponent must be a non-negative integer", 2),
        ("(x + t", "expected ')'", 6),
        ("(x t)", "expected ')'", 3),
        ("2 x", "unexpected 'x'", 2),
        ("x 1/2", "unexpected '1/2'", 2),
    ],
)
def test_parse_error_paths_pin_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text, 1)
    assert str(err.value) == f"{message} at position {position}"
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [("2²", 1), ("x^²", 2), ("1/²", 2), ("t + 2²", 5)])
def test_parse_digit_like_character_is_a_parse_error(text, position):
    # str.isdigit accepts '²' and int() does not: only decimal digits make a number
    with pytest.raises(ParseError) as err:
        parse_poly(text, 1)
    assert err.value.position == position


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
def test_parse_literal_past_the_int_digit_limit_is_a_parse_error():
    for text, position in (("1" * 5000, 0), ("t + 1/" + "2" * 5000, 4)):
        with pytest.raises(ParseError, match="more digits than int") as err:
            parse_poly(text, 1)
        assert err.value.position == position


def test_parse_refuses_a_spatial_dimension_below_one_before_reading():
    for n in (0, -1):
        for text in ("x", "t + (", "1"):
            with pytest.raises(ValueError, match=f"spatial dimension must be >= 1, got {n}$"):
                parse_poly(text, n)


_EXPRESSION_PIECES = ["x", "y", "t", "x1", "x4", "2", "1/2", "0", "+", "-", "*", "^", "(", ")", "/", " ", "²", "٣"]


@given(
    st.lists(st.one_of(st.text(max_size=3), st.sampled_from(_EXPRESSION_PIECES)), max_size=16).map("".join),
    st.integers(1, 4),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_parse_returns_a_polynomial_or_a_positioned_parse_error(text, n):
    try:
        assert isinstance(parse_poly(text, n), Polynomial)
    except ParseError as err:
        assert 0 <= err.position <= len(text)


# ---- ring operations ----


def test_product_of_parabolas():
    p = parse_poly("t + 1/2*x^2", 2)
    q = parse_poly("t + 1/2*y^2", 2)
    expected = parse_poly("t^2 + 1/2*t*x^2 + 1/2*t*y^2 + 1/4*x^2*y^2", 2)
    assert p * q == expected


def test_additive_inverse():
    p = parse_poly(N2D3_TEXT, 2)
    assert (p + p.scale(-1)).is_zero


def test_integer_parabola_product():
    p = parse_poly("2*t + x^2", 2)
    q = parse_poly("2*t + y^2", 2)
    expected = parse_poly("4*t^2 + 2*t*x^2 + 2*t*y^2 + x^2*y^2", 2)
    assert p * q == expected


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_poly("x", 1) + parse_poly("x", 2)


# ---- calculus ----


def test_partial_t_power_rule():
    p = parse_poly(P4_TEXT, 1)
    assert p.partial_t() == parse_poly("2*t + x^2", 1)


def test_partial_of_constant():
    assert Polynomial.constant(1, 5).partial(0).is_zero


def test_second_derivative():
    p = parse_poly("1/12*x^4", 1)
    assert p.partial(0).partial(0) == parse_poly("x^2", 1)


def test_heat_annihilates_the_degree_four_solution():
    assert heat_apply(parse_poly(P4_TEXT, 1)).is_zero


def test_heat_on_bare_time():
    assert heat_apply(parse_poly("t", 1)) == Polynomial.constant(1, 1)


def test_heat_on_x_squared():
    assert heat_apply(parse_poly("x^2", 1)) == Polynomial.constant(1, -2)


# ---- parabolic degree ----


def test_parabolic_degree_four():
    assert parabolic_degree(parse_poly(P4_TEXT, 1)) == 4


def test_parabolic_degree_mixed_weights():
    with pytest.raises(NotHomogeneous) as err:
        parabolic_degree(parse_poly("t + x", 1))
    assert set(err.value.weights) == {1, 2}


def test_parabolic_degree_of_zero():
    with pytest.raises(ZeroPolynomialError):
        parabolic_degree(Polynomial.zero(1))


def test_degree_three_example():
    assert parabolic_degree(parse_poly(N2D3_TEXT, 2)) == 3


# ---- evaluation ----


def test_evaluate_on_nodal_set():
    p = parse_poly("2*t + x^2", 1)
    assert p.evaluate((1, F(-1, 2))) == 0


def test_evaluate_example_at_unit_time():
    p = parse_poly(N3D4_TEXT, 3)
    assert p.evaluate((0, 0, 0, 1)) == 12


def test_parabolic_scaling_spot_value():
    p = parse_poly(P4_TEXT, 1)
    assert p.evaluate((2, 4)) == 16 * p.evaluate((1, 1))


def test_evaluate_checks_length():
    with pytest.raises(DimensionMismatch):
        parse_poly("x", 1).evaluate((1,))


# ---- rotations ----


def test_identity_rotation():
    p = parse_poly(N2D3_TEXT, 2)
    assert rotate_xy(p, 0, 1, 1, 0) == p


def test_rotation_requires_unit_circle():
    with pytest.raises(NotOnUnitCircle):
        rotate_xy(parse_poly("x", 2), 0, 1, F(1, 2), F(1, 2))


def test_rotation_axes_must_differ():
    with pytest.raises(ValueError):
        rotate_xy(parse_poly("x", 2), 0, 0, 1, 0)


def test_rotation_commutes_with_heat_operator():
    p = embed(parse_poly(P4_TEXT, 1), 2, [0])
    c, s = F(3, 5), F(4, 5)
    lhs = heat_apply(rotate_xy(p, 0, 1, c, s))
    rhs = rotate_xy(heat_apply(p), 0, 1, c, s)
    assert lhs == rhs
    assert lhs.is_zero  # p solves the heat equation, so both sides vanish


def test_float_rotation_is_close_to_exact_pair():
    p = embed(parse_poly(P4_TEXT, 1), 2, [0])
    # a float angle alpha resolves to the pair (cos alpha, -sin alpha)
    c, s, is_exact = resolve_rotation(-math.atan2(4, 3))
    assert not is_exact
    exact = rotate_xy(p, 0, 1, F(3, 5), F(4, 5))
    inexact = _substitute_pair(p, 0, 1, c, s)
    for ev, coeff in exact.terms.items():
        assert float(inexact.terms[ev]) == pytest.approx(float(coeff), rel=1e-12)


# ---- t-coefficients ----


def test_t_coefficients_of_p4():
    p = parse_poly(P4_TEXT, 1)
    coeffs = p.t_coefficients()
    assert coeffs == [
        Polynomial.constant(1, 1),
        parse_poly("x^2", 1),
        parse_poly("1/12*x^4", 1),
    ]


def test_t_coefficients_purely_spatial():
    p = parse_poly("x^3", 1)
    assert p.t_coefficients() == [p]


def test_t_coefficients_zero():
    assert Polynomial.zero(2).t_coefficients() == []


def test_leading_coefficient_of_degree_four_example():
    p = parse_poly(
        "7500*t^2 + 150*t*(37*x^2 - 7*x*y + 13*y^2)"
        " + 192*x^4 + 176*x^3*y + 1623*x^2*y^2 - 351*x*y^3 - 108*y^4",
        2,
    )
    assert p.t_coefficients()[0] == Polynomial.constant(2, 7500)


# ---- canonical text and JSON forms ----


def test_expression_round_trip_on_fixture():
    p = parse_poly(N3D4_TEXT, 3)
    assert parse_poly(p.to_expression(), 3) == p
    assert p.to_expression() == N3D4_TEXT  # already in canonical term order


def test_json_round_trip_bit_exact():
    c, s, _ = resolve_rotation(0.3141592653589793)
    p = _substitute_pair(embed(parse_poly(P4_TEXT, 1), 2, [0]), 0, 1, c, s)
    assert Polynomial.from_json_dict(p.to_json_dict()) == p


def test_exponents_are_never_truncated():
    with pytest.raises(TypeError):
        Polynomial(1, {(F(3, 2), (0,)): 1})
    with pytest.raises(TypeError):
        Polynomial(1, {(1, (1.5,)): 1})


def test_json_shape():
    data = parse_poly("2*t + x^2", 1).to_json_dict()
    assert data == {
        "n": 1,
        "terms": [
            {"k": 1, "alpha": [0], "num": "2", "den": "1"},
            {"k": 0, "alpha": [2], "num": "1", "den": "1"},
        ],
    }


# ---- properties ----


@given(polynomials())
@settings(max_examples=150)
def test_expression_round_trip(p):
    assert parse_poly(p.to_expression(), p.spatial_dim) == p


@given(polynomials(max_dim=2), polynomials(max_dim=2), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=100)
def test_heat_operator_is_linear(p, q, a, b):
    if p.spatial_dim != q.spatial_dim:
        q = embed(q, p.spatial_dim, list(range(q.spatial_dim))) if q.spatial_dim < p.spatial_dim else q
        p = embed(p, q.spatial_dim, list(range(p.spatial_dim))) if p.spatial_dim < q.spatial_dim else p
    lhs = heat_apply(p.scale(a) + q.scale(b))
    rhs = heat_apply(p).scale(a) + heat_apply(q).scale(b)
    assert lhs == rhs


@given(polynomials())
@settings(max_examples=100)
def test_t_coefficients_reassemble(p):
    coeffs = p.t_coefficients()
    rebuilt = Polynomial.zero(p.spatial_dim)
    m = len(coeffs) - 1
    t = Polynomial.time(p.spatial_dim)
    for i, coeff in enumerate(coeffs):
        rebuilt = rebuilt + (t ** (m - i)) * coeff
    assert rebuilt == p


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=100)
def test_parabolic_homogeneity_of_evaluation(p, data):
    d = parabolic_degree(p)
    point = [
        data.draw(st.builds(F, st.integers(-9, 9), st.integers(1, 9)))
        for _ in range(p.spatial_dim + 1)
    ]
    for lam in (F(1, 2), F(2), F(3)):
        scaled = [lam * c for c in point[:-1]] + [lam * lam * point[-1]]
        assert p.evaluate(scaled) == lam ** d * p.evaluate(point)


@given(homogeneous_polynomials(), st.data())
@settings(max_examples=100)
def test_negating_space_multiplies_by_minus_one_to_the_degree(p, data):
    # homogeneity at lambda = -1: every term x^alpha t^k has |alpha| + 2k = d,
    # so p(-x, t) = (-1)^d p(x, t) exactly; the cube sampler mirrors each
    # face x_a = -1 from the face x_a = +1 by it
    negated = negate_space(p)
    assert negated == p.scale((-1) ** parabolic_degree(p))
    point = [data.draw(small_rationals()) for _ in range(p.spatial_dim + 1)]
    assert negated.evaluate(point) == p.evaluate([-c for c in point[:-1]] + point[-1:])


@given(homogeneous_polynomials(max_dim=2, max_degree=5), pythagorean_pairs())
@settings(max_examples=80)
def test_rotation_preserves_heat_kernel_membership(p, pair):
    if p.spatial_dim < 2:
        p = embed(p, 2, [0])
    c, s = pair
    if heat_apply(p).is_zero:
        assert heat_apply(rotate_xy(p, 0, 1, c, s)).is_zero
    rotated = rotate_xy(p, 0, 1, c, s)
    assert parabolic_degree(rotated) == parabolic_degree(p)


@given(homogeneous_polynomials(max_dim=3, max_degree=6))
@settings(max_examples=80)
def test_laplacian_drops_weight_by_two(p):
    lap = laplacian(p)
    if not lap.is_zero:
        assert parabolic_degree(lap) == parabolic_degree(p) - 2


@given(polynomials(), st.data())
@settings(max_examples=60, deadline=None)
def test_ring_agrees_with_sympy(p, data):
    # sympy's polynomials, an implementation of their own, are the oracle for
    # every ring operation, compared coefficient by coefficient
    import sympy

    n = p.spatial_dim
    q = data.draw(polynomials(max_dim=n).filter(lambda q: q.spatial_dim == n))
    a = data.draw(small_rationals())
    index = data.draw(st.integers(0, n - 1))
    xs, t = sympy.symbols(f"x1:{n + 2}"), sympy.Symbol("t")
    gens = xs[:n] + (t,)

    def to_sympy(poly, names=xs):
        return sympy.Add(*(
            sympy.Rational(c) * t ** ev.t_exp
            * sympy.Mul(*(x ** e for x, e in zip(names, ev.space_exps)))
            for ev, c in poly.terms.items()
        ))

    def agree(ours, theirs):
        theirs = sympy.Poly(theirs, *xs[:ours.spatial_dim], t, domain="QQ")
        return ours.terms == {(m[-1], m[:-1]): F(str(c)) for m, c in theirs.terms() if c}

    P, Q = (sympy.Poly(to_sympy(poly), *gens, domain="QQ") for poly in (p, q))
    lap = sum((P.diff((x, 2)) for x in xs[:n]), sympy.Poly(0, *gens, domain="QQ"))
    assert agree(p + q, P + Q)
    assert agree(p - q, P - Q)
    assert agree(p * q, P * Q)
    assert agree(p.scale(a), P * sympy.Rational(a))
    assert agree(p.substitute_t(a), P.as_expr().subs(t, sympy.Rational(a)))
    assert agree(p.partial(index), P.diff(xs[index]))
    assert agree(p.partial_t(), P.diff(t))
    assert agree(laplacian(p), lap)
    assert agree(heat_apply(p), P.diff(t) - lap)
    # into one more dimension, old variable i to new variable (i + shift) mod (n + 1)
    shift = data.draw(st.integers(0, n))
    variable_map = [(i + shift) % (n + 1) for i in range(n)]
    assert agree(embed(p, n + 1, variable_map), to_sympy(p, [xs[k] for k in variable_map]))
    if n >= 2:
        c, s = data.draw(pythagorean_pairs())
        i, j = data.draw(st.permutations(range(n)))[:2]
        C, S = sympy.Rational(c), sympy.Rational(s)
        rotated = P.as_expr().subs({xs[i]: C * xs[i] - S * xs[j], xs[j]: S * xs[i] + C * xs[j]}, simultaneous=True)
        assert agree(rotate_xy(p, i, j, c, s), rotated)


# ---- float-free modules ----


@pytest.mark.parametrize("module", ["polyring", "univariate"])
def test_exact_layer_imports_no_float_library(module):
    # the exact layer computes in Python ints and Fractions only: neither
    # numpy nor scipy is imported, at module level or inside a function
    path = Path(calorics.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert not imported & {"numpy", "scipy"}, imported


def test_runtime_imports_no_scipy():
    # scipy is a test extra only: no module of calorics imports it, at module
    # level or inside a function
    importers = []
    for path in Path(calorics.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            importers.extend(f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy")
    assert not importers, importers


# ---- the package as a whole ----


def test_every_private_top_level_name_is_read_in_the_package():
    # a private name that a module of calorics defines at top level is read
    # somewhere in the package outside its own definition, and so is a
    # private method of a top-level class, as an attribute: code that only
    # tests reach is deleted, not kept for them
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(calorics.__file__).parent.glob("*.py")]
    defined, names, attributes = [], [], []
    for tree in trees:
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                found = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                found = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                found = []
            defined.extend((name, statement, False) for name in found if private(name))
            if isinstance(statement, ast.ClassDef):
                methods = [node for node in statement.body if isinstance(node, ast.FunctionDef)]
                defined.extend((method.name, method, True) for method in methods if private(method.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                attributes.append((node.attr, node))
    unread = []
    for name, owner, method in defined:
        inside = {id(node) for node in ast.walk(owner)}
        reads = attributes if method else names + attributes
        if not any(n == name and id(node) not in inside for n, node in reads):
            unread.append(name)
    assert not unread, unread


def test_every_parameter_is_read_in_its_function():
    # a function of calorics reads each of its parameters in its body: a
    # parameter that nothing reads is dropped, with its arguments at the call
    # sites; dunder methods keep the signature their protocol fixes, and a
    # method need not read its receiver
    unread = []
    for path in Path(calorics.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [p for p in (args.vararg, args.kwarg) if p]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread.extend(
                f"{path.name}:{node.name}({p.arg})" for p in params if p.arg not in read | {"self", "cls"}
            )
    assert not unread, unread
