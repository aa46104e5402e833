"""One workload process: set up, then run the timed (or traced) requests.

Started by run.py with the source tree on PYTHONPATH; not meant to be run
by hand.  Prints one JSON object on stdout.

Set-up runs from process start (`--t0`, a perf_counter stamp taken by the
parent just before it started this process) until the first timed request:
`import calorics.cli`, building and `is_caloric`-checking the inputs, and one
checked warm-up request.  With `--setup-only` the process stops there.

Untraced runs repeat whole passes over the workload's requests, each pass in
a seed-shuffled order: at least MIN_PASSES, and more until `--seconds` have
elapsed.  A traced run makes
one pass that runs every request untraced and traced, so its counters do not
depend on timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# Every request type is measured at least twice per run.
MIN_PASSES = 2


def _execute(request, tracer=None) -> dict:
    span = tracer.open("request") if tracer is not None else None
    started = perf_counter()
    try:
        output, error = request.call(), None
    except Exception as exc:  # a failed request is recorded and the run goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - started
    if span is not None:
        tracer.close(span)
    counts = None
    if error is None:
        try:
            counts = request.check(output)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"name": request.name, "latency_s": latency, "ok": error is None,
            "counts": counts, "error": error}


def _run_pass(requests, rng) -> list:
    return [_execute(request) for request in rng.sample(requests, len(requests))]


def _paired_pass(requests, rng, tracer, enable, disable):
    """Run each request untraced and traced back to back, alternating which goes first.

    Pairing keeps slow drifts in machine speed out of the tracing overhead.
    Returns the records and the summed untraced and traced request times.
    """
    records, untraced_s, traced_s = [], 0.0, 0.0
    for i, request in enumerate(rng.sample(requests, len(requests))):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.request = i
                enable()
                record = _execute(request, tracer)
                disable()
                traced_s += record["latency_s"]
            else:
                record = _execute(request)
                untraced_s += record["latency_s"]
            records.append(record)
    return records, untraced_s, traced_s


def _openblas_version():
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def _git_revision():
    if not (ROOT / ".git").exists():  # a plain checkout; do not pick up an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "CALORICS_THREADS": os.environ.get("CALORICS_THREADS"),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("count", "scan-d8", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import calorics.cli  # set-up pays the CLI import on every workload
    from tracing import Tracer, layer_metrics
    import workloads

    package = Path(calorics.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise SystemExit(f"calorics imported from {package}, not from {ROOT / 'src'}")

    launcher = None
    if args.workload == "cli":
        workload, launcher = workloads.cli_workload(ROOT, args.scratch, dict(os.environ))
    elif args.workload == "count":
        workload = workloads.count_workload()
    else:
        workload = workloads.scan_workload()
    warmup = _execute(workload.warmup)
    setup_s = perf_counter() - args.t0
    result = {"setup_s": setup_s, "warmup": warmup}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rng = random.Random(args.seed)
    requests = workload.requests
    records = []
    started = perf_counter()
    if args.trace:
        tracer = Tracer()
        if launcher is not None:
            def enable():
                launcher.tracer = tracer

            def disable():
                launcher.tracer = None
        else:
            enable, disable = tracer.install, tracer.uninstall
        records, untraced_s, traced_s = _paired_pass(requests, rng, tracer, enable, disable)
        tracer.dump(args.scratch / f"spans-{args.workload}-seed{args.seed}.json")
        result["layers"] = layer_metrics(tracer, traced_s, untraced_s)
        result["passes"] = 1
    else:
        passes = 0
        while passes < MIN_PASSES or perf_counter() - started < args.seconds:
            records += _run_pass(requests, rng)
            passes += 1
        result["passes"] = passes
    result["timed_s"] = perf_counter() - started
    result["records"] = records
    result["known_defects"] = [_execute(request) for request in workload.known_defects]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["provenance"] = provenance(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
