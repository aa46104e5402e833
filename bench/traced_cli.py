"""Traced stand-in for `python -m calorics.cli`, one request per interpreter.

Usage: python bench/traced_cli.py SPANS_JSON LAUNCHED_AT [calorics arguments...]

LAUNCHED_AT is the parent's perf_counter stamp taken just before it started
this process; the span from it to this script's first line is
`cli.interpreter`.  The script times `import calorics.cli`, wraps the traced
public functions (see tracing.TARGETS), runs `calorics.cli.main` and writes
the spans and counters to SPANS_JSON.  The exit code is main's; an exception
escaping main prints its traceback and exits 1, as the interpreter would.
"""

from time import perf_counter

T_START = perf_counter()

import sys  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, launched_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.spans.append(["cli.interpreter", launched_at, T_START, -1, None])
    span = tracer.open("cli.import")
    import calorics.cli

    tracer.close(span)
    tracer.install()
    code = 1
    span = tracer.open("cli.main")
    try:
        code = calorics.cli.main(argv)
    except Exception:  # mirror an uncaught exception: traceback on stderr, exit 1
        traceback.print_exc()
    finally:
        tracer.close(span)
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
