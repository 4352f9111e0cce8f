"""Run one `vbg` command in this fresh process, as ``python -m vbgroupoids.cli`` would.

Usage: python3 child.py RECORD SPANS TRACE [vbg arguments ...]

Writes RECORD (JSON): CLOCK_MONOTONIC instants at which ``cli.main`` was entered and returned,
its exit code and this process's peak RSS.  With TRACE = 1 the layer functions are wrapped
first (see tracing.py), the record also holds the per-layer aggregates, and the raw spans go
to SPANS.  If the command dies with a traceback no record is written.
"""

import json
import resource
import sys
import time


def main() -> int:
    record_path, spans_path, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    from vbgroupoids import cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    enter = time.monotonic()
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    leave = time.monotonic()
    sys.stdout.flush()
    record = {
        "enter": enter,
        "exit": leave,
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["layers"] = tracer.finish(spans_path)
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
