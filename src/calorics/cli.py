"""Command-line surface: generate, verify, count, scan, export, bounds.

Reports are JSON on stdout (one object per run, keys sorted, so identical
configurations produce byte-identical output) with a short human summary on
stderr.  Exit codes form a stable contract for CI:

    0  success
    2  a verification check failed
    3  a count assertion or bound check failed
    4  parse or configuration error
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .caloric import basic_hcp, chain_check, eigen_check, is_caloric
from .constructions import (
    ConstructionSpec,
    build,
    fixture,
    resolve_rotation,
    scan_epsilon,
)
from .nodal import (
    BoundViolation,
    NodalError,
    bounds_report,
    export_nodal_pointcloud,
    nodal_count,
    slice_count,
)
from .polyring import (
    Polynomial,
    PolynomialError,
    format_rational,
    parabolic_degree,
    parse_poly,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_ASSERT = 3
EXIT_CONFIG = 4


class CliError(Exception):
    """Configuration problem; maps to exit code 4."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 4
        raise CliError(message)


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    if summary:
        sys.stderr.write(summary + "\n")


def _parse_rotation(text: Optional[str]):
    if text is None:
        return None
    if text.startswith("angle:"):
        try:
            return float(text[len("angle:"):])
        except ValueError as exc:
            raise CliError(f"bad rotation angle {text!r}: {exc}") from exc
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"rotation must be 'p/q,p/q' or 'angle:<float>', got {text!r}")
    try:
        return (Fraction(parts[0].strip()), Fraction(parts[1].strip()))
    except ValueError as exc:
        raise CliError(f"bad rotation pair {text!r}: {exc}") from exc


def _parse_eps(text: Optional[str]) -> Optional[Fraction]:
    if text is None:
        return None
    try:
        return Fraction(text)
    except ValueError as exc:
        raise CliError(f"bad epsilon {text!r}: {exc}") from exc


def _parse_schedule(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad schedule {text!r}: {exc}") from exc


_FAMILY_ALIASES = {
    "basic": "basic",
    "lewy": "lewy",
    "odd": "odd",
    "zero-mod4": "zero_mod_4",
    "zero_mod_4": "zero_mod_4",
    "high-dim": "high_dim",
    "high_dim": "high_dim",
    "product": "product",
    "fixture": "fixture",
}

_SEED_ALIASES = {
    "re": "real_part",
    "im": "imag_part",
    "real_part": "real_part",
    "imag_part": "imag_part",
}


def _build_from_args(args) -> Tuple[Polynomial, dict]:
    """Materialize the polynomial described by generation flags."""
    family = _FAMILY_ALIASES.get(args.family)
    if family is None:
        raise CliError(f"unknown family {args.family!r}; expected one of {sorted(_FAMILY_ALIASES)}")
    rotation = _parse_rotation(getattr(args, "rot", None))
    eps = _parse_eps(getattr(args, "eps", None))
    meta: dict = {"family": args.family}
    if family == "basic":
        if args.d is None:
            raise CliError("basic needs -d")
        poly = basic_hcp(args.d)
        meta["d"] = args.d
        return poly, meta
    if family == "fixture":
        if not args.fixture_id:
            raise CliError("fixture needs an id, e.g. 'fixture n2d3'")
        meta["fixture"] = args.fixture_id
        return fixture(args.fixture_id), meta
    if args.d is None:
        raise CliError(f"{args.family} needs -d")
    seed_kind = _SEED_ALIASES.get(getattr(args, "seed_kind", "real_part"))
    if seed_kind is None:
        raise CliError(f"unknown seed kind {args.seed_kind!r}")
    spec = ConstructionSpec(
        family=family,
        d=args.d,
        n=args.n or (3 if family == "high_dim" else 2),
        epsilon=eps,
        rotation=rotation,
        seed_kind=seed_kind,
    )
    poly = build(spec)
    meta.update(spec.to_json_dict())
    if family in ("odd", "zero_mod_4"):
        _, _, exact = resolve_rotation(rotation)
        meta["rotation_exact"] = exact
    return poly, meta


def _resolve_source(args) -> Tuple[Polynomial, dict]:
    """One polynomial from exactly one of: file, expression, fixture, generator."""
    sources = [
        args.polyfile is not None,
        args.expr is not None,
        args.fixture is not None,
        args.gen is not None,
    ]
    if sum(sources) != 1:
        raise CliError("provide exactly one polynomial source: POLYFILE, --expr, --fixture, or --gen")
    if args.polyfile is not None:
        try:
            with open(args.polyfile, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read polynomial file {args.polyfile!r}: {exc}") from exc
        try:
            return Polynomial.from_json_dict(data), {"source": args.polyfile}
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise CliError(f"malformed polynomial file {args.polyfile!r}: {exc!r}") from exc
    if args.expr is not None:
        if args.n is None:
            raise CliError("--expr needs -n (spatial dimension)")
        return parse_poly(args.expr, args.n), {"source": "expr"}
    if args.fixture is not None:
        return fixture(args.fixture), {"source": f"fixture:{args.fixture}"}
    gen_args = argparse.Namespace(
        family=args.gen,
        d=args.d,
        n=args.n,
        eps=args.eps,
        rot=args.rot,
        seed_kind=args.seed_kind,
        fixture_id=args.fixture_id,
    )
    poly, meta = _build_from_args(gen_args)
    meta["source"] = f"gen:{args.gen}"
    return poly, meta


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("polyfile", nargs="?", help="canonical JSON polynomial file")
    parser.add_argument("--expr", help="inline expression, e.g. 't^2 + t*x^2 + 1/12*x^4'")
    parser.add_argument("--fixture", help="fixture id, e.g. n2d3")
    parser.add_argument("--gen", help="construction family to generate inline")
    parser.add_argument("-d", type=int, default=None, help="degree for --gen")
    parser.add_argument("-n", type=int, default=None, help="spatial dimension")
    parser.add_argument("--eps", help="epsilon for --gen (rational or decimal)")
    parser.add_argument("--rot", help="rotation 'p/q,p/q' or 'angle:<float>'")
    parser.add_argument("--seed-kind", dest="seed_kind", default="real_part", help="re|im for high-dim")
    parser.add_argument("--fixture-id", dest="fixture_id", help="fixture id for --gen fixture")


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="calorics", description=__doc__)
    parser.add_argument("--version", action="version", version=f"calorics {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a polynomial and print its canonical forms")
    gen.add_argument("family", help="basic | lewy | odd | zero-mod4 | high-dim | product | fixture")
    gen.add_argument("fixture_id", nargs="?", help="fixture id when family is 'fixture'")
    gen.add_argument("-d", type=int, default=None)
    gen.add_argument("-n", type=int, default=None)
    gen.add_argument("--eps")
    gen.add_argument("--rot")
    gen.add_argument("--seed-kind", dest="seed_kind", default="real_part")
    gen.add_argument("--out", help="also write the JSON polynomial to this path")

    verify = sub.add_parser("verify", help="run the exact caloric checks on a polynomial")
    _add_source_arguments(verify)

    count = sub.add_parser("count", help="count nodal domains on the cube cross-section")
    _add_source_arguments(count)
    count.add_argument("--schedule", help="comma-separated strictly increasing resolutions")
    count.add_argument("--assert", dest="expected", type=int, default=None, help="expected stable count")
    count.add_argument("--slice", action="store_true", help="add the t=-1 slice diagnostic")
    count.add_argument("--check-bounds", action="store_true", help="assert the proven bounds")

    scan = sub.add_parser("scan", help="sweep epsilon and report admissible values")
    scan.add_argument("family", help="lewy | odd | zero-mod4")
    scan.add_argument("-d", type=int, required=True)
    scan.add_argument("--rot")
    scan.add_argument("--eps-grid", dest="eps_grid", help="comma-separated epsilons (default dyadic 1/4..1/256)")
    scan.add_argument("--target", type=int, default=None)
    scan.add_argument("--schedule")

    export = sub.add_parser("export", help="export the nodal set in a spherical shell as CSV")
    _add_source_arguments(export)
    export.add_argument("--resolution", type=int, default=256)
    export.add_argument("--delta", type=float, default=0.1)
    export.add_argument("--out", required=True, help="CSV output path")

    bounds = sub.add_parser("bounds", help="print the nodal-count bounds for (n, d)")
    bounds.add_argument("-n", type=int, required=True)
    bounds.add_argument("-d", type=int, required=True)
    bounds.add_argument("--count", type=int, default=None, help="assert this count against the bounds")

    return parser


def _cmd_gen(args) -> int:
    if args.family == "fixture" and args.fixture_id is None:
        raise CliError("fixture needs an id, e.g. 'gen fixture n2d3'")
    poly, meta = _build_from_args(args)
    payload = poly.to_json_dict()
    payload["expr"] = poly.to_expression()
    payload["meta"] = meta
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(poly.to_json_dict(), handle, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.out!r}: {exc}") from exc
    _emit(payload, poly.to_expression())
    return EXIT_OK


def _cmd_verify(args) -> int:
    poly, meta = _resolve_source(args)
    caloric = is_caloric(poly)
    report = {
        "source": meta.get("source"),
        "n": poly.spatial_dim,
        "expr": poly.to_expression(),
        "homogeneous": caloric.reason != "not_homogeneous",
        "degree": caloric.degree,
        "is_caloric": caloric.passed,
    }
    if caloric.passed:
        chain = chain_check(poly)
        eigen = eigen_check(poly)
        report["chain"] = chain.passed
        report["eigen"] = eigen.passed
        report["passed"] = chain.passed and eigen.passed
    else:
        report["reason"] = caloric.reason
        report["passed"] = False
    _emit(report, "all checks passed" if report["passed"] else "verification FAILED")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_count(args) -> int:
    poly, meta = _resolve_source(args)
    schedule = _parse_schedule(args.schedule)
    report = nodal_count(poly, schedule)
    payload = report.to_json_dict()
    payload["source"] = meta.get("source")
    exit_code = EXIT_OK
    if args.slice:
        slice_report = slice_count(poly)
        payload["slice"] = {
            "total": slice_report.total,
            "pos": slice_report.positive,
            "neg": slice_report.negative,
            "caveat": slice_report.caveat,
            "half_width": format_rational(slice_report.half_width),
        }
        if not slice_report.caveat and report.total > slice_report.total:
            payload["slice"]["bound_ok"] = False
            exit_code = EXIT_ASSERT
        else:
            payload["slice"]["bound_ok"] = True
    if args.check_bounds:
        d = parabolic_degree(poly)
        try:
            bounds = bounds_report(poly.spatial_dim, d, report)
            payload["bounds"] = bounds.to_json_dict()
            payload["bounds"]["ok"] = True
        except BoundViolation as exc:
            payload["bounds"] = {"ok": False, "error": str(exc)}
            exit_code = EXIT_ASSERT
    if args.expected is not None:
        ok = report.stable and report.total == args.expected
        payload["assert"] = {"expected": args.expected, "ok": ok}
        if not ok:
            exit_code = EXIT_ASSERT
    summary = (
        f"N = {report.total} ({report.positive} positive, {report.negative} negative), "
        f"{'stable' if report.stable else 'UNSTABLE'} over {list(report.resolutions_used)} "
        f"[heuristic-stabilized]"
    )
    _emit(payload, summary)
    return exit_code


def _cmd_scan(args) -> int:
    family = _FAMILY_ALIASES.get(args.family)
    if family not in ("lewy", "odd", "zero_mod_4"):
        raise CliError(f"scan supports the perturbation families, got {args.family!r}")
    rotation = _parse_rotation(args.rot)
    if args.eps_grid:
        grid = [Fraction(part.strip()) for part in args.eps_grid.split(",") if part.strip()]
    else:
        grid = [Fraction(1, 2 ** k) for k in range(2, 9)]
    spec = ConstructionSpec(family=family, d=args.d, rotation=rotation, epsilon=grid[0])
    result = scan_epsilon(spec, grid, target=args.target, schedule=_parse_schedule(args.schedule))
    sys.stdout.write("eps,total,pos,neg,stable\n")
    for row in result.rows:
        sys.stdout.write(
            f"{format_rational(row.epsilon)},{row.total},{row.positive},{row.negative},"
            f"{'true' if row.stable else 'false'}\n"
        )
    if result.largest_admissible is None:
        sys.stderr.write(f"no admissible epsilon in grid for target {result.target}\n")
    else:
        sys.stderr.write(
            f"largest admissible epsilon = {format_rational(result.largest_admissible)} "
            f"(target {result.target})\n"
        )
    return EXIT_OK


def _cmd_export(args) -> int:
    poly, _ = _resolve_source(args)
    try:
        points = export_nodal_pointcloud(
            poly, resolution=args.resolution, annulus_delta=args.delta, path=args.out
        )
    except OSError as exc:
        raise CliError(f"cannot write {args.out!r}: {exc}") from exc
    payload = {"rows": len(points), "path": args.out, "delta": args.delta, "resolution": args.resolution}
    summary = f"wrote {len(points)} points to {args.out}"
    if not points:
        summary += " (empty nodal set on the annulus)"
    _emit(payload, summary)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        report = bounds_report(args.n, args.d, args.count)
    except BoundViolation as exc:
        _emit({"ok": False, "error": str(exc)}, "bound violation")
        return EXIT_ASSERT
    payload = report.to_json_dict()
    if args.count is not None:
        payload["count"] = args.count
        payload["ok"] = True
    _emit(payload, f"m = {report.min_count}, max in [{report.product_lower_bound}, {report.courant_upper_bound}]")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "count": _cmd_count,
    "scan": _cmd_scan,
    "export": _cmd_export,
    "bounds": _cmd_bounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except BoundViolation as exc:  # a NodalError, so it must come first
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ASSERT
    except (CliError, PolynomialError, NodalError, ValueError) as exc:
        # ParseError and NotOnUnitCircle are PolynomialErrors and
        # ConstructionError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
