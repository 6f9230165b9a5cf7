"""Reference jobs that correct timings for the machine's current speed.

On a small shared virtual machine the speed of the same code drifts by up
to 40% within minutes, far more than the regressions the benchmark must
catch. So each timed operation is followed, outside the timed region, by a
few repetitions of a fixed reference job that runs no planelift code, and
the benchmark reports ``measured time * nominal / reference time``: the
time the operation would take at the reference job's nominal speed.

Each workload names the job that exercises the runtime it spends its time
in: the interpreter and NumPy element-wise kernels, or LAPACK. The raw wall
times are printed beside the corrected ones.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

MIN_REPS = 3
MIN_SHARE = 0.15  # reference time measured per operation, as a share of its time

_VEC = np.random.default_rng(0).random(1 << 15)
_MAT = np.random.default_rng(0).normal(size=(1200, 96))


def _interpreter_job() -> None:
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(4):
        np.exp(np.cos(_VEC) * _VEC)


def _lapack_job() -> None:
    np.linalg.svd(_MAT, full_matrices=False)


# job and its nominal time in seconds: the median measured on the machine the
# bounds were set on (2 vCPUs, OpenBLAS with 2 threads, Python 3.11, numpy 2.4)
JOBS = {
    "interpreter": (_interpreter_job, 0.005),
    "lapack": (_lapack_job, 0.022),
}


def reference_seconds(kind: str, op_seconds: float) -> float:
    """Median time of the reference job, repeated at least ``MIN_REPS``
    times and for at least ``MIN_SHARE`` of the operation's time."""
    job = JOBS[kind][0]
    reps: list[float] = []
    while len(reps) < MIN_REPS or sum(reps) < MIN_SHARE * op_seconds:
        start = perf_counter()
        job()
        reps.append(perf_counter() - start)
    return median(reps)


def corrected(kind: str, op_seconds: float) -> float:
    """``op_seconds`` at the reference job's nominal speed."""
    return op_seconds * JOBS[kind][1] / reference_seconds(kind, op_seconds)
