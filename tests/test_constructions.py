"""Construction families, fixed fixtures, and epsilon admissibility scans."""

import math
from fractions import Fraction as F

import pytest

from calorics import (
    ConstructionError,
    ConstructionSpec,
    NotOnUnitCircle,
    Polynomial,
    basic_hcp,
    basis,
    build,
    embed,
    fixture,
    harmonic_2d,
    heat_apply,
    high_dim,
    is_caloric,
    lewy_2mod4,
    odd_construction,
    parabolic_degree,
    parse_poly,
    product_count,
    product_hcp,
    product_lower,
    scan_epsilon,
    zero_mod4,
)
from calorics import constructions
from calorics.nodal import NodalError
from conftest import negate_space

ROT = (F(3, 5), F(4, 5))


def _single_scale(target, candidate):
    """The unique rational q with target = q * candidate, or None."""
    ev, coeff = candidate.canonical_terms()[0]
    other = target.terms.get(ev)
    if other is None:
        return None
    scale = other / coeff
    return scale if candidate.scale(scale) == target else None


# ---- planar harmonics ----


def test_harmonic_imaginary_degree_two():
    assert harmonic_2d(2, "imag_part") == parse_poly("2*x*y", 2)


def test_harmonic_real_degree_two():
    assert harmonic_2d(2, "real_part") == parse_poly("x^2 - y^2", 2)


def test_harmonic_imaginary_degree_six():
    expected = parse_poly("6*x^5*y - 20*x^3*y^3 + 6*x*y^5", 2)
    assert harmonic_2d(6, "imag_part") == expected


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("kind", ["real_part", "imag_part"])
def test_harmonics_are_harmonic(d, kind):
    psi = harmonic_2d(d, kind)
    assert heat_apply(psi).is_zero  # t-free and harmonic


# ---- family: d = 2 mod 4 ----


def test_lewy_degree_two():
    expected = parse_poly("2*x*y - t - 1/2*x^2", 2)
    assert lewy_2mod4(2, 1) == expected


def test_lewy_congruence():
    with pytest.raises(ConstructionError):
        lewy_2mod4(4, F(1, 10))


def test_lewy_figure_polynomial_is_caloric():
    p = lewy_2mod4(6, F(1, 20))
    assert is_caloric(p)
    assert parabolic_degree(p) == 6


# ---- family: odd degree ----


def test_odd_assembly_without_rotation():
    # with the identity rotation the perturbation enters with a plus sign;
    # the mirrored layout keeps the integer degree-3 example a positive
    # multiple of this family (see the scale-match tests below)
    u = odd_construction(3, 1, (F(1), F(0)))
    expected = parse_poly("y*(t + 1/2*x^2) + t*x + 1/6*x^3", 2)
    assert u == expected


def test_odd_congruence():
    with pytest.raises(ConstructionError):
        odd_construction(4, F(1, 2))


def test_odd_rotation_must_be_exact():
    with pytest.raises(NotOnUnitCircle):
        odd_construction(3, 1, (F(1, 2), F(1, 2)))


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rotation_angle_must_be_finite(angle):
    with pytest.raises(ConstructionError, match=f"^rotation angle {angle} is not finite$"):
        zero_mod4(4, F(1, 5), angle)


def test_odd_matches_integer_degree_three_example():
    target = fixture("n2d3")
    u = odd_construction(3, 1, ROT)
    scale = _single_scale(target, u)
    assert scale == 750


def test_odd_caloric_for_degree_five():
    u = odd_construction(5, F(3, 10), ROT)
    assert is_caloric(u)
    assert parabolic_degree(u) == 5


# ---- family: d = 0 mod 4 ----


def test_zero_mod4_congruence():
    with pytest.raises(ConstructionError):
        zero_mod4(6, F(1, 5))


def test_zero_mod4_matches_integer_degree_four_example():
    target = fixture("n2d4")
    u = zero_mod4(4, F(1, 2), ROT)
    scale = _single_scale(target, u)
    assert scale == 7500


def test_zero_mod4_caloric_degree_eight():
    u = zero_mod4(8, F(1, 4), ROT)
    assert is_caloric(u)
    assert parabolic_degree(u) == 8


def test_float_rotation_path_is_inexact_but_close_to_caloric():
    u = zero_mod4(4, F(1, 5), math.pi / 10)
    residual = heat_apply(u)
    assert not residual.is_zero  # rationalized cos/sin are not exactly on the circle
    assert max(abs(float(c)) for c in residual.terms.values()) < 1e-14


# ---- family: high spatial dimension ----


def test_high_dim_degree_one():
    assert high_dim(1, "imag_part") == parse_poly("y + z", 3)


def test_high_dim_degree_two_assembly():
    u = high_dim(2, "real_part")
    assert u == parse_poly("x^2 - y^2 + t + 1/2*z^2", 3)
    assert is_caloric(u)


def test_high_dim_embeds_in_larger_dimension():
    u = high_dim(3, "real_part", n=4)
    assert u.spatial_dim == 4
    assert is_caloric(u)


def test_high_dim_example_identity():
    # the printed 3+1 dimensional example is 12*p_4(x, t) + Re((y + iz)^4)
    expected = embed(basic_hcp(4), 3, [0]).scale(12) + embed(
        harmonic_2d(4, "real_part"), 3, [1, 2]
    )
    assert fixture("n3d4") == expected


@pytest.mark.parametrize("d,kind", [(2, "real_part"), (3, "imag_part"), (4, "real_part")])
def test_high_dim_counts_two_domains(d, kind):
    from calorics import nodal_count

    report = nodal_count(high_dim(d, kind), [16, 24, 32])
    assert report.total == 2 and report.stable


# ---- family: products ----


def test_product_lower_two_four():
    assert product_lower(2, 4) == parse_poly("(t + 1/2*x^2)*(t + 1/2*y^2)", 2)


def test_product_lower_two_five():
    expected = embed(basic_hcp(2), 2, [0]) * embed(basic_hcp(3), 2, [1])
    assert product_lower(2, 5) == expected


def test_product_lower_needs_room():
    with pytest.raises(ConstructionError):
        product_lower(3, 5)


def test_product_count_closed_form():
    # one factor is basic_hcp(k): 2 ceil(k/2) domains, the exact cube loop's count
    for k in range(1, 12):
        assert product_count((k,)) == 2 * math.ceil(k / 2)
    # prod_n2d4, and product_lower(2, 16), whose grid splits the fans at t = 0 into 94
    assert product_count((2, 2)) == 6
    assert product_count((8, 8)) == 78
    assert product_count((2, 2, 2)) == 20
    for alpha in [(), (0,), (2, 0), (3, 0, 2)]:
        with pytest.raises(ConstructionError, match="k_i >= 1"):
            product_count(alpha)


@pytest.mark.parametrize("n, d", [(2, 4), (2, 5), (2, 8), (3, 6), (3, 7), (4, 9)])
def test_product_term_cap_is_checked_on_the_exact_term_count(monkeypatch, n, d):
    # the cap compares the product of floor(k/2) + 1 over the factor degrees
    # k with MAX_PRODUCT_TERMS: at the count the product builds, one below it is refused
    terms = len(product_lower(n, d).terms)
    monkeypatch.setattr(constructions, "MAX_PRODUCT_TERMS", terms)
    assert len(product_lower(n, d).terms) == terms
    monkeypatch.setattr(constructions, "MAX_PRODUCT_TERMS", terms - 1)
    with pytest.raises(ConstructionError, match=f"expands to {terms} terms"):
        product_lower(n, d)


@pytest.mark.parametrize("n,d", [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7)])
def test_product_lower_is_caloric(n, d):
    u = product_lower(n, d)
    assert is_caloric(u)
    assert parabolic_degree(u) == d


# ---- fixtures ----


def test_fixture_n2d3_coefficients():
    p = fixture("n2d3")
    assert p.coefficient(1, (1, 0)) == 450
    assert p.coefficient(0, (0, 3)) == -64
    assert len(p.terms) == 6


def test_fixture_n2d4_coefficients():
    p = fixture("n2d4")
    assert p.coefficient(2, (0, 0)) == 7500
    assert p.coefficient(0, (2, 2)) == 1623
    assert p.coefficient(1, (1, 1)) == -150 * 7


def test_fixture_deg2_variants():
    assert fixture("deg2") == parse_poly("2*t + x^2", 1)
    p = fixture("deg2_n3_j2")
    assert p == parse_poly("2*t + y^2", 3)
    with pytest.raises(ConstructionError):
        fixture("deg2_n2_j3")
    # N is the -n of the fixture: at most MAX_SPATIAL_DIM, checked before a variable is built
    assert fixture("deg2_n64_j64") == Polynomial.time(64).scale(2) + Polynomial.variable(64, 63) ** 2
    with pytest.raises(ConstructionError, match="MAX_SPATIAL_DIM = 64"):
        fixture("deg2_n65_j1")


def test_fixture_basic_alias():
    assert fixture("basic_5") == basic_hcp(5)
    with pytest.raises(ConstructionError):
        fixture("basic_9")


def test_fixture_unknown_id():
    with pytest.raises(ConstructionError, match="unknown fixture"):
        fixture("nope")


@pytest.mark.parametrize("fid", ["deg2", "n2d3", "n2d4", "n3d4", "prod_n2d4", "basic_6"])
def test_all_fixtures_are_caloric(fid):
    assert is_caloric(fixture(fid))


# ---- spec dispatch and JSON ----


def test_spec_round_trip():
    spec = ConstructionSpec("odd", d=5, epsilon=F(3, 10), rotation=ROT)
    data = spec.to_json_dict()
    assert data["eps"] == "3/10"
    assert data["rot"] == ["3/5", "4/5"]
    assert ConstructionSpec.from_json_dict(data) == spec


@pytest.mark.parametrize("field, value", [("d", 4.7), ("n", 2.9), ("d", "4"), ("n", True)])
def test_spec_json_refuses_non_integer_d_and_n(field, value):
    # int() would truncate 4.7 to 4; the spec reads d and n as JSON integers only
    data = {"family": "product", "d": 4, "n": 2, field: value}
    with pytest.raises(ValueError, match="expected an integer"):
        ConstructionSpec.from_json_dict(data)


def test_spec_congruence_validation():
    with pytest.raises(ConstructionError):
        ConstructionSpec("lewy", d=4)
    with pytest.raises(ConstructionError):
        ConstructionSpec("unknown", d=2)


def test_build_dispatch():
    spec = ConstructionSpec("fixture", fixture_id="n2d3")
    assert build(spec) == fixture("n2d3")
    spec = ConstructionSpec("product", d=4, n=2)
    assert build(spec) == product_lower(2, 4)


def test_spec_takes_each_family_default_n():
    # high_dim is exposed at n = 3, like high_dim(d) and `gen high-dim`; the others at n = 2
    assert build(ConstructionSpec("high_dim", d=4)) == high_dim(4)
    assert ConstructionSpec.from_json_dict({"family": "high_dim", "d": 4}).n == 3
    assert ConstructionSpec.from_json_dict({"family": "product", "d": 4}).n == 2


# one spec of each family with every field it reads, and a field it never reads
_READ_SPECS = {
    "lewy": dict(d=6, n=2, epsilon=F(1, 20)),
    "odd": dict(d=5, n=2, epsilon=F(3, 10), rotation=ROT),
    "zero_mod_4": dict(d=4, n=2, epsilon=F(1, 5), rotation=math.pi / 10),
    "high_dim": dict(d=4, n=4, seed_kind="imag_part"),
    "product": dict(d=4, n=3),
    "fixture": dict(fixture_id="n2d3"),
}
_UNREAD_FIELDS = {
    "d": 4,
    "n": 5,
    "epsilon": F(1, 2),
    "rotation": ROT,
    "fixture_id": "n2d3",
    "seed_kind": "imag_part",
}


@pytest.mark.parametrize("family", list(_READ_SPECS))
def test_spec_refuses_each_field_its_family_never_reads(family):
    # the spec reads the one family -> fields table that the CLI reads: a
    # lewy spec with a rotation, or a product spec with an epsilon, would
    # record a field that build ignores, so it is refused as the CLI's flags
    # are.  A field at its default (None, d = 0, the family's n, real_part)
    # is not given: a fixture spec's JSON records d = 0 and n = 2
    assert set(constructions.FAMILY_FIELDS) == set(constructions.FAMILIES)
    spec = ConstructionSpec(family, **_READ_SPECS[family])
    assert ConstructionSpec.from_json_dict(spec.to_json_dict()) == spec
    unread = [name for name in _UNREAD_FIELDS if name not in constructions.FAMILY_FIELDS[family]]
    assert unread
    for name in unread:
        with pytest.raises(ConstructionError, match=f"^{name} does not apply to the {family} family$"):
            ConstructionSpec(family, **{**_READ_SPECS[family], name: _UNREAD_FIELDS[name]})


def test_spec_refuses_high_dim_below_three_space_variables():
    # refused when the spec is made, not first by build, with build's message
    with pytest.raises(ConstructionError, match=r"^high_dim needs n >= 3$"):
        ConstructionSpec("high_dim", d=4, n=2)


def test_scan_refuses_a_family_without_epsilon():
    # each row would count the same polynomial under an epsilon it ignores
    with pytest.raises(ConstructionError, match="epsilon does not apply to the product family"):
        scan_epsilon(ConstructionSpec("product", d=4), [F(1, 2), F(1, 4)])


def test_default_epsilon_only_for_figure_degrees():
    assert lewy_2mod4(6) == lewy_2mod4(6, F(1, 20))
    with pytest.raises(ConstructionError, match="no default epsilon"):
        lewy_2mod4(10)


# ---- epsilon scans ----


def test_scan_odd_degree_three_admits_unit_epsilon():
    spec = ConstructionSpec("odd", d=3, epsilon=F(1))
    result = scan_epsilon(spec, [F(1)], target=2)
    assert result.largest_admissible == 1
    assert result.rows[0].total == 2 and result.rows[0].stable


def test_scan_flags_oversized_epsilon():
    spec = ConstructionSpec("lewy", d=6, epsilon=F(1))
    result = scan_epsilon(spec, [F(10 ** 6)], target=2)
    assert result.no_admissible
    assert len(result.rows) == 1  # the table is returned regardless


def test_scan_table_is_descending_and_complete():
    spec = ConstructionSpec("lewy", d=6, epsilon=F(1, 20))
    grid = [F(1, 8), F(1, 32), F(1, 16)]
    result = scan_epsilon(spec, grid, target=2, schedule=[32, 48, 64])
    assert [row.epsilon for row in result.rows] == sorted(grid, reverse=True)


def test_scan_refuses_a_schedule_that_is_not_integral():
    # the schedule goes through to nodal_count, which refuses 16.9 rather
    # than counting at int(16.9) = 16
    spec = ConstructionSpec("odd", d=3, epsilon=F(1))
    with pytest.raises(NodalError, match="integer"):
        scan_epsilon(spec, [F(1)], target=2, schedule=[16.9, 32.2, 64.7])


# every generator family at the degrees the suite builds it
_FAMILY_INPUTS = {
    **{f"basic_hcp({d})": (lambda d=d: basic_hcp(d)) for d in [*range(25), 66]},
    **{f"harmonic_2d({d}, {kind})": (lambda d=d, kind=kind: harmonic_2d(d, kind))
       for d in range(1, 9) for kind in ("real_part", "imag_part")},
    "lewy_2mod4(2, 1)": lambda: lewy_2mod4(2, 1),
    "lewy_2mod4(6, 1/20)": lambda: lewy_2mod4(6, F(1, 20)),
    "odd_construction(3, 1, ROT)": lambda: odd_construction(3, 1, ROT),
    "odd_construction(5, 3/10, pi/10)": lambda: odd_construction(5, F(3, 10), math.pi / 10),
    "odd_construction(5, 3/10, ROT)": lambda: odd_construction(5, F(3, 10), ROT),
    "odd_construction(5, 3/10, 6555/6893)": lambda: odd_construction(5, F(3, 10), (F(6555, 6893), F(-2132, 6893))),
    "zero_mod4(4, 1/5, pi/10)": lambda: zero_mod4(4, F(1, 5), math.pi / 10),
    "zero_mod4(4, 1/2, ROT)": lambda: zero_mod4(4, F(1, 2), ROT),
    "zero_mod4(8, 1/4, ROT)": lambda: zero_mod4(8, F(1, 4), ROT),
    "zero_mod4(16, 1/4, 0.2)": lambda: zero_mod4(16, F(1, 4), 0.2),
    "high_dim(1, imag_part)": lambda: high_dim(1, "imag_part"),
    "high_dim(2, real_part)": lambda: high_dim(2, "real_part"),
    "high_dim(3, imag_part)": lambda: high_dim(3, "imag_part"),
    "high_dim(4, real_part)": lambda: high_dim(4, "real_part"),
    "high_dim(3, real_part, n=4)": lambda: high_dim(3, "real_part", n=4),
    **{f"product_lower({n}, {d})": (lambda n=n, d=d: product_lower(n, d))
       for n, d in [(2, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 7)]},
    "product_hcp([2, 2])": lambda: product_hcp([2, 2]),
    "product_hcp([0, 0, 0])": lambda: product_hcp([0, 0, 0]),
    **{f"basis({n}, {d})[{k}]": (lambda n=n, d=d, k=k: basis(n, d)[k])
       for n, d in [(1, 7), (2, 3), (3, 2)] for k in range(len(basis(n, d)))},
    **{f"fixture({fid})": (lambda fid=fid: fixture(fid))
       for fid in ["deg2", "n2d3", "n2d4", "n3d4", "prod_n2d4", "deg2_n2_j1", "deg2_n3_j2", "basic_6"]},
}


@pytest.mark.parametrize("name", list(_FAMILY_INPUTS))
def test_negating_space_multiplies_every_family_by_minus_one_to_the_degree(name):
    # p(-x, t) = (-1)^d p(x, t) holds exactly for every input the counter
    # takes, which is what lets it mirror the faces x_a = -1
    p = _FAMILY_INPUTS[name]()
    assert negate_space(p) == p.scale((-1) ** parabolic_degree(p))
