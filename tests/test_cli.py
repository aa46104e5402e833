"""Command-line surface: sources, reports, exit codes, determinism."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calorics import BoundViolation, ComponentReport, Polynomial, fixture, parse_poly
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


def test_polyfile_rejects_generator_flags(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(fixture("deg2").to_json_dict()))
    code, out, err = run(capsys, "verify", str(path), "-n", "1")
    assert code == 4
    assert out == ""
    assert err == "error: -n does not apply to a polynomial file\n"


def test_count_assert_matches(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "deg2", "--assert", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2 and payload["stable"]
    assert payload["assert"]["ok"]


def test_count_assert_mismatch_exits_three(capsys):
    code, out, _ = run(capsys, "count", "--fixture", "deg2", "--assert", "3")
    assert code == 3
    assert not json.loads(out)["assert"]["ok"]


def test_count_generated_source(capsys):
    code, out, _ = run(
        capsys,
        "count", "--gen", "basic", "-d", "7", "--assert", "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["method"], payload["resolutions"]) == (8, "cube-loop", [])


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
        "count", "--fixture", "deg2", "--slice", "--check-bounds",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slice"]["bound_ok"] and not payload["slice"]["caveat"]
    assert payload["bounds"]["ok"]
    assert "reason" not in payload["slice"] and "reason" not in payload["bounds"]


@pytest.mark.parametrize(
    "expr, n, flag, reason, summary",
    [
        pytest.param("t", "1", "--slice", "p is not caloric (heat_residual)",
                     "N = 2 (1 positive, 1 negative), exact on the cube loop", id="--slice"),
        pytest.param("t", "1", "--check-bounds", "p is not caloric (heat_residual)",
                     "N = 2 (1 positive, 1 negative), exact on the cube loop", id="--check-bounds"),
        pytest.param("x", "1", "--check-bounds", "p is not time-dependent",
                     "N = 2 (1 positive, 1 negative), exact on the cube loop", id="x--check-bounds"),
        pytest.param("x*y", "2", "--check-bounds", "p is not time-dependent",
                     "N = 4 (2 positive, 2 negative), stable over [32, 64, 128] [heuristic-stabilized]",
                     id="x*y--check-bounds"),
    ],
)
def test_count_holds_only_caloric_input_to_the_bounds(capsys, expr, n, flag, reason, summary):
    # t is homogeneous but not caloric: its two domains {t > 0} and {t < 0}
    # outnumber the one arc of its slice, and no theorem relates them.  x and
    # x*y are caloric but not time-dependent, and the proven bounds are about
    # d/dt p != 0: x has degree 1, which no bound covers (it exited 4 and
    # dropped the count), and x*y reported "ok": true
    code, out, err = run(capsys, "count", "--expr", expr, "-n", n, flag)
    assert code == 0
    payload = json.loads(out)
    report = payload["slice" if flag == "--slice" else "bounds"]
    assert report["bound_ok" if flag == "--slice" else "ok"] is None
    assert report["reason"] == reason
    assert summary.startswith(f"N = {payload['total']} (")
    assert err == summary + "\n"


@pytest.mark.parametrize("degree", ["7", "8", "12", "24", "40"])
def test_count_slice_of_basic_hcp_is_exact(capsys, degree):
    # the slice of basic_hcp(d) has its d + 1 arcs in the Cauchy box, exactly:
    # a 512-cell mesh saw fewer from d = 7 and set the caveat, and its
    # numerators passed 2^53 from d = 21 (exit 4)
    code, out, _ = run(capsys, "count", "--gen", "basic", "-n", "1", "-d", degree, "--slice")
    assert code == 0
    payload = json.loads(out)
    assert payload["slice"]["total"] == int(degree) + 1
    assert not payload["slice"]["caveat"] and payload["slice"]["bound_ok"]
    assert payload["total"] == int(degree) + int(degree) % 2 and payload["stable"]


@pytest.mark.parametrize("expr", ["x^2+10^17*t", "x^2+10^19*t"])
def test_count_slice_with_numerators_past_two_to_the_fifty_three_is_exact(capsys, expr):
    # the Cauchy box R = 10^17 + 1 (or 10^19 + 1) took mesh numerators past
    # 2^53 (exit 4); the exact slice has the three arcs around the roots +-sqrt(R - 1)
    code, out, _ = run(capsys, "count", "--expr", expr, "-n", "1", "--slice")
    assert code == 0
    payload = json.loads(out)
    assert (payload["slice"]["total"], payload["slice"]["caveat"]) == (3, False)


def test_count_slice_in_three_space_variables(capsys):
    # the n = 3 slice defaults to 64 cells per axis, not 512^3 cells
    code, out, _ = run(
        capsys, "count", "--fixture", "n3d4", "--slice", "--schedule", "8,16,32",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["slice"], dict)
    assert payload["slice"]["bound_ok"]


def test_count_requires_one_source(capsys):
    code, _, err = run(capsys, "count")
    assert code == 4
    assert "exactly one polynomial source" in err


def test_parse_error_exits_four(capsys):
    # a syntax error, nesting deeper than the recursive descent can reach,
    # a power beyond the degree cap (it multiplied 10^8 times before), and a
    # digit-like character that int() does not read (a bare ValueError before)
    for expr in ("t + (", "(" * 2000 + "t" + ")" * 2000, "x^100000000", "2²*t"):
        code, _, err = run(capsys, "verify", "--expr", expr, "-n", "1")
        assert code == 4
        assert "position" in err


@pytest.mark.parametrize(
    "expr, n",
    [
        # an exponent that is not digits only: both were read as x^2
        ("x^4/2", "1"),
        ("x^2/1", "1"),
        # a power beyond the term cap: 20,825 terms in 5.6 s before
        ("(x+y+z+t)^48", "3"),
    ],
)
def test_count_refuses_a_fractional_exponent_and_an_over_cap_power(capsys, expr, n):
    code, out, err = run(capsys, "count", "--expr", expr, "-n", n)
    assert (code, out) == (4, "")
    assert "at position" in err


# each command, and a part of its error message
_COUNTING_ERRORS = {
    "count --fixture n2d3 --schedule 8,16": "at least three resolutions",
    "count --expr 2*t+x1^2 -n 4": "ambient dimension 2..4, got 5",
    # a scaled integer coefficient of this degree-20 input exceeds the float range
    "count --gen zero-mod4 -d 20 --eps 1/4 --rot angle:0.2": "exceeds the float range",
    # n = 1 is counted on the cube loop, in exact arithmetic
    "count --expr x^64 -n 1 --schedule 70000,70001,70002": "n = 1 is counted exactly and takes no schedule",
    # on the face x = 1 the term 10^100 x^64 scales to 10^100 * 2000^64, beyond the float range
    "count --expr 10^100*x^64 -n 2 --schedule 2000,2001,2002": "exceeds the float range",
    # one face of 40002^2 cells is past MAX_MESH_CELLS: refused before any allocation
    "count --fixture n2d3 --schedule 40000,40001,40002": "MAX_MESH_CELLS",
}


@pytest.mark.parametrize("argv", list(_COUNTING_ERRORS))
def test_counting_errors_exit_four(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 4
    assert err.startswith("error:") and _COUNTING_ERRORS[argv] in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        # the float angle makes p not caloric, so the bounds do not apply to it
        ("count --gen zero-mod4 -d 16 --eps 1/4 --rot angle:0.2 --check-bounds", None),
        # 10^150 * 64^64 fits in a float; with eight times the denominator it would not
        ("count --expr 10^150*x^64 -n 2 --schedule 16,32,64", (2, 2, 0, True)),
    ],
)
def test_high_degree_inputs_count_within_the_float_range(capsys, argv, expected):
    # cell centers and cube edges keep every power inside the float range;
    # eighth-point probes, with eight times the denominator, overflowed here
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    payload = json.loads(out)
    if expected is None:
        assert payload["bounds"]["ok"] is None
    else:
        assert (payload["total"], payload["pos"], payload["neg"], payload["stable"]) == expected


@pytest.mark.parametrize("resolution", ["0", "-3", "100000000"])
def test_export_bad_resolution_exits_four(capsys, tmp_path, resolution):
    out_path = tmp_path / "cloud.csv"
    code, _, err = run(
        capsys, "export", "--fixture", "n2d4", "--resolution", resolution, "--out", str(out_path)
    )
    assert code == 4
    assert err.startswith("error:")
    assert not out_path.exists()


def test_export_coefficient_past_the_float_range_exits_four(capsys, tmp_path):
    out_path = tmp_path / "cloud.csv"
    code, _, err = run(capsys, "export", "--expr", "9" * 400 + "*y + t", "-n", "2", "--out", str(out_path))
    assert code == 4
    assert err.startswith("error: a coefficient exceeds the largest float, 1.79769e+308")
    assert not out_path.exists()


def test_escaped_bound_violation_exits_three(capsys, monkeypatch):
    def violating(poly, schedule=None):
        raise BoundViolation("counted 1 nodal domains outside [2, 3]")

    monkeypatch.setattr(cli, "nodal_count", violating)
    code, _, err = run(capsys, "count", "--fixture", "deg2")
    assert code == 3
    assert err.startswith("error:")


def test_product_below_floor_exits_three(capsys, monkeypatch):
    def below_floor(poly, schedule=None):
        return ComponentReport(6, 2, 4, (64, 128, 256), True, 0.0)

    monkeypatch.setattr(cli, "nodal_count", below_floor)
    code, out, _ = run(capsys, "count", "--gen", "product", "-d", "8", "-n", "2", "--check-bounds")
    assert code == 3
    bounds = json.loads(out)["bounds"]
    assert not bounds["ok"] and bounds["max_lower_bound"] == 16
    assert "product floor 16" in bounds["error"]


def test_product_family_reaches_its_floor(capsys):
    # product_lower(2, 8) has 22 domains, above the floor 16
    code, out, _ = run(capsys, "count", "--gen", "product", "-d", "8", "-n", "2", "--check-bounds")
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["pos"], payload["neg"], payload["stable"]) == (22, 10, 12, True)
    assert payload["bounds"]["ok"]


def test_product_at_floor_passes_bounds(capsys):
    code, out, _ = run(capsys, "count", "--gen", "product", "-d", "4", "-n", "2", "--check-bounds")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds"]["ok"] and payload["total"] >= payload["bounds"]["max_lower_bound"]


def test_cli_import_skips_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, calorics.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_every_counting_path_runs_with_scipy_blocked():
    # a None entry in sys.modules makes any import of scipy raise ImportError
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            "from calorics import fixture, nodal_count, slice_count, sphere_grid_count",
            "from calorics.cli import main",
            "print(nodal_count(fixture('n2d3')).total)",
            "print(slice_count(fixture('n2d4'), resolution=64).total)",
            "print(sphere_grid_count(fixture('n2d4'), 64).total)",
            "sys.exit(main(['scan', 'odd', '-d', '3', '--eps-grid', '1', '--target', '2']))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:3] == ["2", "5", "3"]
    assert proc.stdout.splitlines()[3:] == ["eps,total,pos,neg,stable", "1,2,1,1,true"]


def test_count_and_scan_skip_numpy_ma():
    # numpy's np.unique imports numpy.ma on its first call, 10-26 ms of a
    # process; the component split counts roots instead
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "from calorics.cli import main",
            "for argv in (['count', '--fixture', 'n2d3', '--slice'], ['scan', 'odd', '-d', '3', '--eps-grid', '1']):",
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
            "        code = main(argv)",
            "    print(argv[0], code, 'numpy.ma' in sys.modules)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["count 0 False", "scan 0 False"]


# the cli benchmark's commands: the seven exact ones never compute a float and
# leave numpy unimported; a 2-D count and an export load it, so the guard below
# cannot pass vacuously
_NUMPY_LOADS = [
    ("gen basic -d 4", False),
    ("gen fixture n2d3", False),
    ("verify --fixture n3d4", False),
    ("verify --gen zero-mod4 -d 16 --eps 1/4 --rot 221/229,-60/229", False),
    ("bounds -n 2 -d 8", False),
    ("count --gen basic -d 7 --assert 8", False),
    ("count --fixture deg2 --slice --check-bounds", False),
    ("count --fixture n2d4 --assert 3", True),
    ("export --fixture n2d4 --resolution 32", True),
]


@pytest.mark.parametrize("command, loads_numpy", _NUMPY_LOADS)
def test_exact_commands_run_without_numpy(tmp_path, command, loads_numpy):
    # main in a fresh interpreter reports numpy's presence on a last stderr
    # line, after the same stdout and exit code as the console script
    argv = command.split()
    if argv[0] == "export":
        argv += ["--out", str(tmp_path / "cloud.csv")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "\n".join(
        [
            "import sys",
            "from calorics.cli import main",
            "code = main(sys.argv[1:])",
            "print('numpy' in sys.modules, file=sys.stderr)",
            "sys.exit(code)",
        ]
    )
    guarded = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    plain = subprocess.run([sys.executable, "-m", "calorics.cli", *argv], env=env, capture_output=True, text=True)
    assert guarded.stderr.splitlines()[-1] == str(loads_numpy), guarded.stderr
    assert guarded.returncode == plain.returncode == 0, plain.stderr
    assert guarded.stdout == plain.stdout != ""


def test_package_import_skips_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, calorics; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_holds_every_traced_target():
    # the benchmark's tracer reads each (module, attr) of its TARGETS from
    # sys.modules right after `import calorics.cli`, so no traced module may
    # load lazily; TARGETS is read from the benchmark's own file
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pairs = [[name, attr] for name, attr, _ in module.TARGETS]
    assert pairs
    code = "\n".join(
        [
            "import json, sys",
            "import calorics.cli",
            "for name, attr in json.loads(sys.argv[1]):",
            "    assert callable(getattr(sys.modules[name], attr)), (name, attr)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(pairs)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _limited_main(argv, seconds=10):
    """(exit code, stderr) of main(argv) in a child process held to 1 GiB of address space.

    An input that is refused only after it is built allocates up to the
    limit (a MemoryError traceback, exit 1) or runs past `seconds`.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "\n".join(
        [
            "import resource, sys",
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))",
            "from calorics.cli import main",
            "sys.exit(main(sys.argv[1:]))",
        ]
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=seconds,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(argv)} ran past {seconds} s")
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv, cap",
    [
        # a deg2 fixture builds N variables, like -n N
        ("verify --fixture deg2_n1000000000_j1", "MAX_SPATIAL_DIM = 64"),
        ("gen fixture deg2_n65_j1", "MAX_SPATIAL_DIM = 64"),
        # 2^24 and 3^64 terms: the product is refused before it is expanded
        ("gen product -d 48 -n 24", "MAX_PRODUCT_TERMS = 65536"),
        ("gen product -d 256 -n 64", "MAX_PRODUCT_TERMS = 65536"),
    ],
)
def test_oversized_fixture_and_product_exit_four_before_building(argv, cap):
    code, err = _limited_main(argv.split())
    assert code == 4, err
    assert err.startswith("error:") and cap in err


@pytest.mark.parametrize(
    "content",
    [
        '{"n": 1}',  # no terms
        "[1, 2]",  # not an object
        '{"n": 1, "terms": [{"k": 1, "alpha": [0], "num": "1", "den": "0"}]}',
        # non-integer numbers, which int() would truncate to t in one variable
        '{"n": 1, "terms": [{"k": 1.5, "alpha": [0], "num": "1", "den": "1"}]}',
        '{"n": 1, "terms": [{"k": 1, "alpha": [0], "num": 1.9, "den": "1"}]}',
        '{"n": 1.7, "terms": [{"k": 1, "alpha": [0], "num": "1", "den": "1"}]}',
        # a repeated monomial, which would keep only its last entry
        '{"n": 1, "terms": [{"k": 1, "alpha": [0], "num": "1", "den": "1"},'
        ' {"k": 1, "alpha": [0], "num": "1", "den": "1"}]}',
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


@pytest.mark.parametrize(
    "argv",
    [
        "gen odd -d 3 --eps 1 --rot 1/2,1/2",  # not on the unit circle
        "gen warp -d 3",  # unknown family
        "gen lewy -d 6 --eps 1/0",  # zero denominators
        "gen odd -d 5 --rot 1/0,1",
        "gen zero-mod4 -d 4 --eps 1/5 --rot angle:inf",  # angles that are not finite
        "gen zero-mod4 -d 4 --eps 1/5 --rot angle:nan",
        "scan lewy -d 6 --eps-grid 1/0",
        "scan lewy -d 6 --eps-grid ,",  # empty grid
        "gen high-dim -d 2 -n 2",  # a dimension the family does not allow
        "gen product -d 4 -n 0",
        "gen lewy -d 6 -n 3",
        # flags the family does not read
        "gen lewy -d 6 --rot 1/2,1/2",
        "scan lewy -d 6 --rot 3/5,4/5",
        "gen basic -d 4 -n 7 --rot 1/2,1/2",
        "gen basic -d 4 -n 2",
        "gen product -d 4 -n 2 --eps 1/4",
        "gen high-dim -d 3 --rot 3/5,4/5",
        "gen odd -d 5 --seed-kind re",
        "gen fixture n2d3 -d 4",
        "gen lewy n2d3 -d 6",
        "count --gen fixture --fixture-id n2d3 -n 2",
        # generator flags on a source that does not read them
        "count --fixture n2d4 -d 7 --eps 1/2 --rot 1/2,1/2 --seed-kind zz --schedule 8,16,32",
        "verify --expr 2*t+x^2 -n 1 -d 9 --eps abc",
        "scan lewy -d 6 --eps-grid=",  # empty grid
        # degrees past the cap of the command, refused before the build
        "count --gen product -d 400 -n 4",
        "count --gen basic -d 65",
        "scan lewy -d 66",
        "gen basic -d 10000",
        "verify --gen product -d 258 -n 2",
        # dimensions past MAX_SPATIAL_DIM, refused before a variable list is built
        "gen high-dim -d 2 -n 1000000000",
        "count --expr x1^2+2*t -n 1000000000",
        "gen high-dim -d 2 -n 65",
    ],
)
def test_bad_generator_input_exits_four(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        "count --gen product -d 65 -n 2",
        "scan zero-mod4 -d 68",
        "gen product -d 257",
        "verify --gen high-dim -d 257",
        "export --gen product -d 257 -n 2 --out cloud.csv",
    ],
)
def test_generator_degree_is_checked_before_the_build(capsys, monkeypatch, tmp_path, argv):
    # count and scan stop at MAX_COUNT_DEGREE = 64, the others at the power
    # cap MAX_POWER_DEGREE = 256 of --expr
    def building(*args, **kwargs):
        raise AssertionError("a family was built")

    for name in ("basic_hcp", "build", "scan_epsilon"):
        monkeypatch.setattr(cli, name, building)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == 4
    assert out == ""
    assert err.startswith("error: -d") and "cap" in err
    assert not (tmp_path / "cloud.csv").exists()


_GEN_FAMILIES = ["basic", "lewy", "odd", "zero-mod4", "high-dim", "product", "fixture", "warp"]
_EPSILONS = ["1/20", "0.05", "0", "1/0", "abc", ",", ""]
_ROTATIONS = ["3/5,4/5", "1/2,1/2", "1/0,1", "1,2,3", "angle:0.3", "angle:nan", "angle:inf"]


@st.composite
def _gen_argv(draw):
    argv = ["gen", draw(st.sampled_from(_GEN_FAMILIES))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["n2d3", "basic_5", "deg2_n3_j2", "nope"])))
    options = [
        ("-d", st.integers(-2, 12).map(str)),
        ("-n", st.one_of(st.integers(-1, 5), st.integers(6, 10 ** 9)).map(str)),
        ("--eps", st.sampled_from(_EPSILONS)),
        ("--rot", st.sampled_from(_ROTATIONS)),
        ("--seed-kind", st.sampled_from(["re", "im", "real_part", "zz"])),
    ]
    for flag, values in options:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_gen_argv())
# the drawn -n past the cap rarely meets a family that builds at that -n
@example(["gen", "high-dim", "-d", "2", "-n", "1000000000"])
def test_gen_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 4)
    assert code == 0 or err.getvalue().startswith("error:")


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


def test_gallery_export_rows_are_pinned(capsys, tmp_path):
    # the export of the cli benchmark workload, as the per-term evaluator gave it
    out_path = tmp_path / "cloud.csv"
    code, out, _ = run(
        capsys,
        "export", "--gen", "zero-mod4", "-d", "4", "--eps", "1/5", "--rot", "angle:0.3141592653589793",
        "--resolution", "256", "--delta", "0.1", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out)["rows"] == 8756
    assert len(out_path.read_text().splitlines()) == 8756 + 1


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


@pytest.mark.parametrize("n", [10 ** 4, 3 * 10 ** 6])
def test_bounds_past_the_digit_cap_exit_four_at_once(capsys, n):
    # C(2n, n) has 6,019 digits at n = 10^4, past MAX_BOUND_DIGITS, and takes
    # minutes to compute at n = 3 * 10^6: both are refused before computing
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "-n", str(n), "-d", str(n))
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and "MAX_BOUND_DIGITS = 4000" in err


def test_count_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "count", "--fixture", "n2d3", "--schedule", "16,32,64")
    _, second, _ = run(capsys, "count", "--fixture", "n2d3", "--schedule", "16,32,64")
    assert first and first == second


# the exact stdout of each command: a refactor of the counting layer must
# keep the JSON report byte for byte, which the test above, comparing two
# runs of one build, cannot see
_PINNED_REPORTS = [
    ("count --fixture n2d3 --check-bounds",
     '{"bounds": {"d": 3, "max_lower_bound": 1, "max_upper_bound": 10, "min_domains": 2,'
     ' "n": 2, "ok": true}, "method": "cube-exact", "neg": 1, "pos": 1, "resolutions": [32,'
     ' 64, 128], "source": "fixture:n2d3", "stable": true, "total": 2, "zero_frac": 0.0}'),
    ("count --fixture n2d4 --check-bounds",
     '{"bounds": {"d": 4, "max_lower_bound": 4, "max_upper_bound": 15, "min_domains": 3,'
     ' "n": 2, "ok": true}, "method": "cube-exact", "neg": 2, "pos": 1, "resolutions": [32,'
     ' 64, 128], "source": "fixture:n2d4", "stable": true, "total": 3, "zero_frac": 0.0}'),
    ("count --fixture prod_n2d4 --check-bounds",
     '{"bounds": {"d": 4, "max_lower_bound": 4, "max_upper_bound": 15, "min_domains": 3,'
     ' "n": 2, "ok": true}, "method": "cube-exact", "neg": 4, "pos": 2, "resolutions": [32,'
     ' 64, 128], "source": "fixture:prod_n2d4", "stable": true, "total": 6,'
     ' "zero_frac": 0.0}'),
    ("count --fixture n3d4 --check-bounds",
     '{"bounds": {"d": 4, "max_lower_bound": 1, "max_upper_bound": 35, "min_domains": 2,'
     ' "n": 3, "ok": true}, "method": "cube-exact", "neg": 1, "pos": 1, "resolutions": [12,'
     ' 24, 48], "source": "fixture:n3d4", "stable": true, "total": 2, "zero_frac": 0.0}'),
    ("count --gen basic -d 7",
     '{"method": "cube-loop", "neg": 4, "pos": 4, "resolutions": [],'
     ' "source": "gen:basic", "stable": true, "total": 8, "zero_frac": 0.0}'),
    ("count --gen product -d 8 -n 2",
     '{"method": "cube-exact", "neg": 12, "pos": 10, "resolutions": [32, 64, 128],'
     ' "source": "gen:product", "stable": true, "total": 22, "zero_frac": 0.0}'),
]


@pytest.mark.parametrize("argv, stdout", _PINNED_REPORTS, ids=[argv for argv, _ in _PINNED_REPORTS])
def test_count_reports_match_pinned_bytes(capsys, argv, stdout):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == stdout + "\n"
