"""Command-line surface: sources, reports, exit codes, determinism."""

import json

import pytest

from calorics import BoundViolation, Polynomial, fixture, parse_poly
from calorics import cli
from calorics.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_basic_degree_four(capsys):
    code, out, err = run(capsys, "gen", "basic", "-d", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["expr"] == "t^2 + t*x^2 + 1/12*x^4"
    assert err.strip() == "t^2 + t*x^2 + 1/12*x^4"


def test_gen_fixture_n2d3(capsys):
    code, out, _ = run(capsys, "gen", "fixture", "n2d3")
    assert code == 0
    payload = json.loads(out)
    assert Polynomial.from_json_dict(payload) == fixture("n2d3")


def test_gen_zero_mod4_matches_fixture_up_to_scale(capsys):
    code, out, _ = run(
        capsys, "gen", "zero-mod4", "-d", "4", "--eps", "1/2", "--rot", "3/5,4/5"
    )
    assert code == 0
    poly = Polynomial.from_json_dict(json.loads(out))
    assert poly.scale(7500) == fixture("n2d4")


def test_gen_writes_file(capsys, tmp_path):
    out_path = tmp_path / "poly.json"
    code, _, _ = run(capsys, "gen", "basic", "-d", "2", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert Polynomial.from_json_dict(data) == parse_poly("t + 1/2*x^2", 1)


def test_verify_fixture_passes(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "n3d4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["degree"] == 4
    assert payload["chain"] and payload["eigen"]


def test_verify_non_caloric_fails(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "t + x^2", "-n", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["homogeneous"] and not payload["is_caloric"]


def test_verify_inhomogeneous_fails(capsys):
    code, out, _ = run(capsys, "verify", "--expr", "t + x", "-n", "1")
    assert code == 2
    assert not json.loads(out)["homogeneous"]


def test_verify_reads_polyfile(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(fixture("deg2").to_json_dict()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_count_assert_matches(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "deg2", "--assert", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2 and payload["stable"]
    assert payload["assert"]["ok"]


def test_count_assert_mismatch_exits_three(capsys):
    code, out, _ = run(
        capsys, "count", "--fixture", "deg2", "--assert", "3", "--schedule", "16,32,64"
    )
    assert code == 3
    assert not json.loads(out)["assert"]["ok"]


def test_count_generated_source(capsys):
    code, out, _ = run(
        capsys,
        "count", "--gen", "basic", "-d", "7", "--assert", "8", "--schedule", "64,128,256",
    )
    assert code == 0
    assert json.loads(out)["total"] == 8


def test_count_product_source(capsys):
    code, out, _ = run(
        capsys,
        "count", "--gen", "product", "-n", "2", "-d", "4", "--assert", "6",
    )
    assert code == 0
    assert json.loads(out)["total"] == 6


def test_count_with_slice_and_bounds(capsys):
    code, out, _ = run(
        capsys,
        "count", "--fixture", "deg2", "--slice", "--check-bounds", "--schedule", "32,64,128",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slice"]["bound_ok"] and not payload["slice"]["caveat"]
    assert payload["bounds"]["ok"]


def test_count_requires_one_source(capsys):
    code, _, err = run(capsys, "count")
    assert code == 4
    assert "exactly one polynomial source" in err


def test_parse_error_exits_four(capsys):
    code, _, err = run(capsys, "verify", "--expr", "t + (", "-n", "1")
    assert code == 4
    assert "position" in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --fixture n2d3 --schedule 8,16",  # too few resolutions
        "count --expr 2*t+x1^2 -n 4",  # ambient dimension 5
        # a scaled integer coefficient of this degree-20 input exceeds the float range
        "count --gen zero-mod4 -d 20 --eps 1/4 --rot angle:0.2",
        # terms of this degree-16 input overflow the float pass of sign evaluation
        "count --gen zero-mod4 -d 16 --eps 1/4 --rot angle:0.2",
        # on the probe meshes x = 1 scales to (8 * 10000)^64, beyond the float range
        "count --expr x^64 -n 1 --schedule 10000,10001,10002",
    ],
)
def test_counting_errors_exit_four(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 4
    assert err.startswith("error:")


@pytest.mark.parametrize("resolution", ["0", "-3"])
def test_export_bad_resolution_exits_four(capsys, tmp_path, resolution):
    out_path = tmp_path / "cloud.csv"
    code, _, err = run(
        capsys, "export", "--fixture", "n2d4", "--resolution", resolution, "--out", str(out_path)
    )
    assert code == 4
    assert err.startswith("error:")
    assert not out_path.exists()


def test_escaped_bound_violation_exits_three(capsys, monkeypatch):
    def violating(poly, schedule=None):
        raise BoundViolation("counted 1 nodal domains outside [2, 3]")

    monkeypatch.setattr(cli, "nodal_count", violating)
    code, _, err = run(capsys, "count", "--fixture", "deg2")
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        '{"n": 1}',  # no terms
        "[1, 2]",  # not an object
        '{"n": 1, "terms": [{"k": 1, "alpha": [0], "num": "1", "den": "0"}]}',
    ],
)
def test_malformed_polyfile_exits_four(capsys, tmp_path, content):
    path = tmp_path / "p.json"
    path.write_text(content)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 4
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv", ["gen basic -d 2", "export --fixture deg2_n2_j1 --resolution 16"]
)
def test_unwritable_out_exits_four(capsys, tmp_path, argv):
    out_path = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *argv.split(), "--out", str(out_path))
    assert code == 4
    assert err.startswith("error:")


def test_bad_rotation_exits_four(capsys):
    code, _, _ = run(capsys, "gen", "odd", "-d", "3", "--eps", "1", "--rot", "1/2,1/2")
    assert code == 4


def test_unknown_family_exits_four(capsys):
    code, _, _ = run(capsys, "gen", "warp", "-d", "3")
    assert code == 4


def test_scan_odd_degree_three(capsys):
    code, out, err = run(
        capsys, "scan", "odd", "-d", "3", "--eps-grid", "1", "--target", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,total,pos,neg,stable"
    assert lines[1] == "1,2,1,1,true"
    assert "largest admissible epsilon = 1" in err


def test_export_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "cloud.csv"
    code, out, _ = run(
        capsys,
        "export", "--fixture", "deg2_n2_j1",
        "--resolution", "64", "--delta", "0.2", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] > 0
    assert out_path.read_text().startswith("x,y,t\n")


def test_bounds_report(capsys):
    code, out, _ = run(capsys, "bounds", "-n", "2", "-d", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_domains"] == 3
    assert payload["max_lower_bound"] == 16
    assert payload["max_upper_bound"] == 45


def test_bounds_violation_exits_three(capsys):
    code, out, _ = run(capsys, "bounds", "-n", "2", "-d", "4", "--count", "1")
    assert code == 3
    assert not json.loads(out)["ok"]


def test_count_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "count", "--fixture", "deg2", "--schedule", "16,32,64")
    _, second, _ = run(capsys, "count", "--fixture", "deg2", "--schedule", "16,32,64")
    assert first == second
