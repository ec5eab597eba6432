"""Run one ceq command under the span tracer, for traced `cli` ops.

    python3 cli_child.py SPANS_OUT SPAWN_NS <ceq arguments...>

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process. The spans (interpreter start, `import ceq.cli`, and the calls
the command makes) are written to SPANS_OUT as JSON; the exit code is
the command's own.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t0 = time.monotonic_ns()
    import ceq.cli

    t1 = time.monotonic_ns()
    from tracing import Tracer

    tracer = Tracer().install()
    tracer.record("cli.interp_start", spawn_ns, START_NS)
    tracer.record("cli.import", t0, t1)
    tracer.on = True
    try:
        return ceq.cli.main(argv)
    finally:
        tracer.on = False
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
