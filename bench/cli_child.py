"""Traced ``planelift`` command in a fresh process.

    python3 bench/cli_child.py TRACE_PATH ARG...

Times ``import planelift.cli``, installs the span wrappers, runs
``planelift.cli.main(ARG...)`` as one timed operation with its standard
output captured, writes the spans to TRACE_PATH and prints one JSON line:
the command's exit code and output, and the merged-ready span stats.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import env
import spans


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    env.use_checkout_source()
    start = perf_counter()
    import planelift.cli

    import_s = perf_counter() - start
    env.check_source(planelift.cli.__file__)
    tracer = spans.Tracer()
    tracer.counters["cli.import_s"] += import_s
    tracer.counters["cli.imports"] += 1
    captured = io.StringIO()
    with tracer.installed(), tracer.op(0), contextlib.redirect_stdout(captured):
        code = planelift.cli.main(cli_args)
    tracer.write(trace_path, {"argv": cli_args, "import_s": import_s})
    print(json.dumps({"exit": code, "stdout": captured.getvalue(), "stats": tracer.stats()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
