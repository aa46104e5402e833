"""Layered benchmark of calorics: closed-loop workloads, one client.

    python3 bench/run.py --workload {count,scan-d8,cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the source tree is the `src/` next to this directory and
nothing is installed.  Each request is sent only after the previous one has
completed, and every output is checked.  Scratch files go to `.bench_out/`.

--trace 0   sets the workload up three times in fresh processes (set-up time
            is their median), then measures whole passes in the last one
            (at least two, and more until --seconds have passed) and prints
            the end-to-end metrics.
--trace 1   one pass in one process that runs every request untraced and
            traced back to back; prints the per-layer metrics (see
            tracing.LAYER_METRICS).

The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report, the provenance and every request's counts.  The full
record of a run is written to .bench_out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
# The tail is the highest percentile with ten samples beyond it only when that
# is p90 or above; with fewer samples it would sit near the median, so the
# maximum is reported instead.
TAIL_MIN_SAMPLES = 100
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CALORICS_THREADS", None)  # package default: single-threaded sign evaluation
    return env


def _run_worker(args, scratch: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    # A process group of its own, so that a timeout also kills the worker's CLI children.
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.splitlines()[-1])


def tail_latency(latencies: list) -> tuple:
    """(value, rule): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], f"max of {n} samples (fewer than {TAIL_MIN_SAMPLES})"
    index = n - 11  # exactly ten samples lie beyond ordered[index]
    percentile = 100.0 * (index + 1) / n
    return ordered[index], f"p{percentile:.1f} of {n} samples, 10 beyond it"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("count", "scan-d8", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "calorics" / "__init__.py").is_file():
        sys.stderr.write(f"error: no calorics source tree at {ROOT / 'src'}\n")
        return 2
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_worker(args, scratch, deadline, setup_only=True))
        run = _run_worker(args, scratch, deadline, setup_only=False)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(run)

    records = run["records"]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    warmups_ok = all(s["warmup"]["ok"] for s in setups)
    correct = failed == 0 and warmups_ok
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {run['passes']}  "
          f"attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}  "
          f"warm-ups ok {warmups_ok}")

    if args.trace:
        metrics = {name: _metric(run["layers"][name], unit) for name, unit in LAYER_METRICS}
    else:
        latencies = [r["latency_s"] for r in records]
        tail, rule = tail_latency(latencies)
        metrics = {
            "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "latency_p50_s": _metric(statistics.median(latencies), "s"),
            "latency_tail_s": _metric(tail, "s"),
            "throughput_rps": _metric(attempted / run["timed_s"], "1/s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
        }
        print(f"set-up times (s): {[round(s['setup_s'], 4) for s in setups]}")
        print(f"latency_tail_s is {rule}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")

    for record in run["known_defects"]:
        state = "fixed" if record["ok"] else f"still fails ({record['error']})"
        print(f"known defect, not timed: calorics {record['name']}: {state}")
    for record in records:
        if not record["ok"]:
            print(f"FAILED {record['name']}: {record['error']}")
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    print("requests " + json.dumps([[r["name"], r["counts"]] for r in records]))

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = scratch / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"result": result, "setups": [s["setup_s"] for s in setups], "run": run}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
