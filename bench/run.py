"""planelift benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it measures the ``src/`` of the checkout it sits in.
Inputs come from ``--seed``. The timed loop runs operations until their
summed wall time reaches ``--seconds``; every output is checked after the
loop, outside the timed region. Reported times are corrected to the nominal
speed of a reference job timed after each operation (see ``reference.py``);
the raw wall times are printed on the line before the result.

Standard output: a provenance line, a line with the workload's own named
metrics, and last one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
a run that first times half of ``--seconds`` untraced and then half traced
(the ratio is ``trace.overhead_frac``), and the spans go to
``.bench_out/trace-<workload>-seed<N>.jsonl``.

BLAS keeps its default thread count, recorded in the provenance line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

import env
import reference

# Set-up is repeated at least this many times, and until this much time has
# passed, and reported as the median: single set-ups of the fast workloads
# take a fraction of a second and scatter widely on a shared machine.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms"}


def measure(workload, seconds: float, tracer=None) -> tuple[list, list[float], list[float]]:
    """Closed loop until the timed wall total reaches ``seconds``.

    Returns ``(records, times, corrected)``: one ``(input, output or None)``
    record per attempted operation (``None`` if it raised), its wall time,
    and its time corrected to the reference job's nominal speed.
    """
    records, times, corrected = [], [], []
    while sum(times) < seconds:
        x = workload.next_input()
        index = len(times)
        start = perf_counter()
        try:
            if tracer is None:
                y = workload.op(x)
            elif hasattr(workload, "traced_op"):
                y = workload.traced_op(x, tracer, index)
            else:
                with tracer.op(index):
                    y = workload.op(x)
        except Exception:
            traceback.print_exc()
            y = None
        times.append(perf_counter() - start)
        corrected.append(reference.corrected(workload.reference_job, times[-1]))
        records.append((x, y))
    return records, times, corrected


def check_all(workload, records: list) -> list[dict]:
    checks = []
    for x, y in records:
        try:
            checks.append({"ok": False} if y is None else workload.check(x, y))
        except Exception:
            traceback.print_exc()
            checks.append({"ok": False})
    return checks


def setup_seconds(workload) -> tuple[float, float]:
    """Median wall and corrected time of repeated set-ups."""
    times: list[float] = []
    corrected: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S:
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)
        corrected.append(reference.corrected(workload.reference_job, times[-1]))
    return median(times), median(corrected)


def tail(times: list[float]) -> tuple[str, float] | None:
    """The highest of p99, p90 and p75 with at least ten samples beyond it."""
    ordered = sorted(times)
    for pct in (99, 90, 75):
        beyond = len(ordered) * (100 - pct) // 100
        if beyond >= 10:
            return f"op_ms_p{pct}", 1e3 * ordered[len(ordered) - beyond - 1]
    return None


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_pose" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload, seconds: float) -> tuple[dict, list[dict], dict]:
    setup_wall, setup_s = setup_seconds(workload)
    records, times, corrected = measure(workload, seconds)
    checks = check_all(workload, records)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
        "op_ms_p50": 1e3 * median(corrected),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    failed = sum(not c["ok"] for c in checks)
    named = {
        "failed_frac": (failed / len(checks), "failed ops / attempted ops"),
        "setup_s": (setup_wall, "s wall"),
        "op_ms_p50": (1e3 * median(times), f"ms wall (median of n={len(times)})"),
        "ops_per_s": (len(times) / sum(times), "1/s wall"),
        **workload.summary(times, checks),
    }
    if (pct := tail(times)) is not None:
        named[pct[0]] = (pct[1], f"ms wall (n={len(times)})")
    return metrics, checks, named


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, list[dict], dict]:
    import spans

    workload.setup()
    records, plain_times, plain_corrected = measure(workload, seconds / 2)
    tracer = spans.Tracer()
    with tracer.installed():
        workload.setup()
        traced_records, traced_times, traced_corrected = measure(workload, seconds / 2, tracer)
    checks = check_all(workload, records + traced_records)
    overhead = median(traced_corrected) / median(plain_corrected) - 1.0
    units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
    metrics = {name: (value, units[name])
               for name, value in spans.layer_metrics(tracer.stats(), overhead).items()}
    tracer.write(env.ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.jsonl",
                 {"workload": workload.name, "seed": seed, "per_layer": spans.PER_LAYER})
    named = {"untraced_op_ms_p50": (1e3 * median(plain_times), "ms wall"),
             "traced_op_ms_p50": (1e3 * median(traced_times), "ms wall")}
    return metrics, checks, named


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env.use_checkout_source()
    import planelift

    env.check_source(planelift.__file__)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"provenance": env.provenance()}), flush=True)

    if args.trace:
        metrics, checks, named = per_layer(workload, args.seconds, args.seed)
    else:
        metrics, checks, named = end_to_end(workload, args.seconds)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}))
    failed = sum(not c["ok"] for c in checks)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
