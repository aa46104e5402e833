"""The benchmark's requests and the correctness gate of each.

A workload is a list of `Request`s plus one warm-up request.  `call` is the
timed operation; `check` turns its output into the counts recorded with the
request and raises on any mismatch.  Inputs are the paper's examples; the
benchmark seed only shuffles their order.

`count`     library `nodal_count` at the default schedules on seven inputs.
`scan-d8`   one `scan_epsilon` of the d = 8 zero-mod-4 family at 512/640/768.
`cli`       one `python -m calorics.cli` process per request.

Inputs deliberately left out are listed, with reasons, in README.md.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import calorics
from calorics import (
    ConstructionSpec,
    bounds_report,
    build,
    fixture,
    is_caloric,
    lewy_2mod4,
    odd_construction,
    parabolic_degree,
    zero_mod4,
)
from calorics.constructions import ScanRow

from tracing import COUNTER_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent


class Mismatch(Exception):
    """A request's output differs from its expected value."""


@dataclass
class Request:
    name: str
    call: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    requests: List[Request]
    warmup: Request
    # CLI requests whose expectation the program does not meet yet; run and
    # reported on every run, outside the timed requests.
    known_defects: Tuple[Request, ...] = ()


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: expected {want!r}, got {got!r}")


# ---------------------------------------------------------------------------
# count: nodal_count at the default schedules
# ---------------------------------------------------------------------------

# (name, constructor, expected (total, pos, neg), is_caloric); every count must
# be stable.  A float angle gives cos/sin rationalized from doubles, so those
# inputs are exact polynomials but only approximately rotated, and not caloric.
COUNT_CASES = (
    ("n2d3", lambda: fixture("n2d3"), (2, 1, 1), True),
    ("n2d4", lambda: fixture("n2d4"), (3, 1, 2), True),
    ("prod_n2d4", lambda: fixture("prod_n2d4"), (6, 2, 4), True),
    ("lewy_2mod4(6,1/20)", lambda: lewy_2mod4(6, Fraction(1, 20)), (2, 1, 1), True),
    ("odd_construction(5,3/10,pi/10)", lambda: odd_construction(5, Fraction(3, 10), math.pi / 10), (2, 1, 1),
     False),
    ("zero_mod4(4,1/5,pi/10)", lambda: zero_mod4(4, Fraction(1, 5), math.pi / 10), (3, 1, 2), False),
    ("n3d4", lambda: fixture("n3d4"), (2, 1, 1), True),
)


def _built_input(name: str, make, caloric: bool = True) -> object:
    poly = make()
    _expect(f"is_caloric({name})", is_caloric(poly).passed, caloric)
    return poly


def _count_request(name: str, poly, expected) -> Request:
    degree = parabolic_degree(poly)

    def check(report) -> dict:
        got = (report.total, report.positive, report.negative, report.stable)
        _expect(f"{name} (total, pos, neg, stable)", got, (*expected, True))
        bounds_report(poly.spatial_dim, degree, report)  # raises BoundViolation
        return {"total": report.total, "pos": report.positive, "neg": report.negative,
                "stable": report.stable, "zero_frac": report.zero_cell_fraction}

    # Timed calls go through the package namespace, where the tracer wraps them.
    return Request(name, lambda: calorics.nodal_count(poly), check)


def count_workload() -> Workload:
    requests = [_count_request(name, _built_input(name, make, caloric), expected)
                for name, make, expected, caloric in COUNT_CASES]
    return Workload(requests, warmup=requests[0])


# ---------------------------------------------------------------------------
# scan-d8: the finest grids in the repo
# ---------------------------------------------------------------------------

SCAN_SPEC = ConstructionSpec("zero_mod_4", d=8, rotation=(Fraction(221, 229), Fraction(-60, 229)))
SCAN_EPS = Fraction(1, 4)
SCAN_SCHEDULE = (512, 640, 768)


def scan_workload() -> Workload:
    spec = ConstructionSpec(SCAN_SPEC.family, d=SCAN_SPEC.d, rotation=SCAN_SPEC.rotation, epsilon=SCAN_EPS)
    _built_input("scan-d8 polynomial", lambda: build(spec))

    def check(result) -> dict:
        _expect("largest admissible epsilon", result.largest_admissible, SCAN_EPS)
        _expect("scan rows", result.rows, (ScanRow(SCAN_EPS, 3, 1, 2, True),))
        bounds_report(2, SCAN_SPEC.d, result.rows[0].total)
        row = result.rows[0]
        return {"eps": str(row.epsilon), "total": row.total, "pos": row.positive,
                "neg": row.negative, "stable": row.stable}

    request = Request(
        "scan_epsilon(zero_mod_4,d=8,[1/4],512/640/768)",
        lambda: calorics.scan_epsilon(SCAN_SPEC, [SCAN_EPS], target=3, schedule=list(SCAN_SCHEDULE)),
        check,
    )
    # The warm-up loads the counting pipeline at a cost far below one scan.
    name, make, expected, caloric = COUNT_CASES[0]
    warmup = _count_request(name, _built_input(name, make, caloric), expected)
    return Workload([request], warmup=warmup)


# ---------------------------------------------------------------------------
# cli: one interpreter per request
# ---------------------------------------------------------------------------


class CliLauncher:
    """Runs `python -m calorics.cli`, or its traced stand-in when `tracer` is set."""

    def __init__(self, root: Path, scratch: Path, env: dict):
        self.root = root
        self.scratch = scratch
        self.env = env
        self.tracer: Optional[Tracer] = None

    def run(self, argv: List[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            return subprocess.run([sys.executable, "-m", "calorics.cli", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=120)
        spans_path = self.scratch / "cli-spans.json"
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                               repr(perf_counter()), *argv],
                              cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
        tracer = self.tracer
        counter_span = tracer.open(COUNTER_SPAN)
        try:
            with open(spans_path, encoding="utf-8") as handle:
                child = json.load(handle)
            spans_path.unlink()
            tracer.adopt(child["spans"], parent=counter_span[3])
            tracer.counters.update(child["counters"])
        finally:
            tracer.close(counter_span)
        return proc


def _payload(proc, exit_code: int) -> dict:
    _expect("exit code", proc.returncode, exit_code)
    return json.loads(proc.stdout)


def _fields(**want):
    """Check that the JSON report holds these values; `a__b` means report['a']['b']."""

    def check(payload: dict) -> dict:
        got = {}
        for key, value in want.items():
            node = payload
            for part in key.split("__"):
                node = node[part]
            got[key] = node
            _expect(key, node, value)
        return got

    return check


def _count_fields(total, pos, neg, **extra):
    return _fields(total=total, pos=pos, neg=neg, stable=True, **extra)


def _export_check(csv_path: Path):
    def check(payload: dict) -> dict:
        rows = payload["rows"]
        if rows <= 0:
            raise Mismatch(f"export wrote {rows} rows")
        with open(csv_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        _expect("CSV header", lines[0], "x,y,t")
        _expect("CSV data rows", len(lines) - 1, rows)
        return {"rows": rows}

    return check


def cli_workload(root: Path, scratch: Path, env: dict) -> Tuple[Workload, CliLauncher]:
    launcher = CliLauncher(root, scratch, env)
    csv_path = scratch / "export.csv"
    rot = "221/229,-60/229"
    # (argv, expected exit code, check of the JSON report)
    commands = [
        ("gen basic -d 4", 0, _fields(expr="t^2 + t*x^2 + 1/12*x^4", n=1)),
        ("gen fixture n2d3", 0,
         _fields(expr="450*t*x + 150*t*y + 27*x^3 + 267*x^2*y + 144*x*y^2 - 64*y^3", n=2)),
        ("verify --fixture n3d4", 0,
         _fields(passed=True, is_caloric=True, chain=True, eigen=True, degree=4)),
        (f"verify --gen zero-mod4 -d 16 --eps 1/4 --rot {rot}", 0,
         _fields(passed=True, is_caloric=True, chain=True, eigen=True, degree=16)),
        ("bounds -n 2 -d 8", 0,
         _fields(min_domains=3, max_lower_bound=16, max_upper_bound=45)),
        ("count --gen basic -d 7 --assert 8", 0, _count_fields(8, 4, 4, assert__ok=True)),
        ("count --fixture deg2 --slice --check-bounds", 0,
         _count_fields(2, 1, 1, bounds__ok=True, slice__bound_ok=True, slice__total=3)),
        ("count --fixture n2d4 --assert 3", 0, _count_fields(3, 1, 2, assert__ok=True)),
        ("export --gen zero-mod4 -d 4 --eps 1/5 --rot angle:0.3141592653589793 "
         f"--resolution 256 --delta 0.1 --out {os.path.relpath(csv_path, root)}", 0, _export_check(csv_path)),
    ]
    # Known defect: NodalError escapes cli.main (traceback, exit 1) where the
    # exit-code contract says 4.
    defects = [
        (["count", "--fixture", "n2d3", "--schedule", "8,16"], 4),
        (["count", "--expr", "2*t + x1^2", "-n", "4"], 4),
    ]

    def request(argv: List[str], exit_code: int, check) -> Request:
        return Request(" ".join(argv), lambda: launcher.run(argv),
                       lambda proc: check(_payload(proc, exit_code)))

    def exit_only(argv: List[str], exit_code: int) -> Request:
        def check(proc) -> dict:
            _expect("exit code", proc.returncode, exit_code)
            return {"exit": proc.returncode}

        return Request(" ".join(argv), lambda: launcher.run(argv), check)

    requests = [request(text.split(), code, check) for text, code, check in commands]
    workload = Workload(requests, warmup=requests[0],
                        known_defects=tuple(exit_only(argv, code) for argv, code in defects))
    return workload, launcher
