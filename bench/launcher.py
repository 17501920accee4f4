"""Run one traced `cliptrap` CLI invocation in this fresh interpreter.

    python bench/launcher.py SPANS_JSON -- CLI_ARGS...

Times ``import cliptrap.cli`` as the ``import.cliptrap`` span, installs the
benchmark's wrappers, calls ``cliptrap.cli.main(CLI_ARGS)`` and writes the
recorded spans to SPANS_JSON before exiting with main's exit code.  The
dump also holds the clock at launcher start and just before the dump, so
the parent can add interpreter start-up and exit spans.
"""

import time

LAUNCHED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, clock  # noqa: E402


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    start = clock()
    import cliptrap.cli
    tracer.add_span("import.cliptrap", start, clock())
    tracer.install()
    try:
        code = cliptrap.cli.main(argv)
    finally:
        dumped = tracer.dump()
        dumped["launched"], dumped["exiting"] = LAUNCHED, clock()
        with open(spans_path, "w") as fh:
            json.dump(dumped, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
