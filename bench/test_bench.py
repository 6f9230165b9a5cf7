"""Tests of the benchmark's own oracles and tracing, with negative controls.

    python3 -m pytest bench

The negative controls show that the oracles catch real failures: a
corrupted kernel must fail every ``lift_stream`` operation, and a perturbed
or truncated basis must fail the ``kernel_solve`` check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np

import env

env.use_checkout_source()

from planelift import kernels, layers, so2_so3  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _ops(workload, n: int) -> list:
    records = []
    for _ in range(n):
        x = workload.next_input()
        records.append((x, workload.op(x)))
    return records


def _failed_frac(workload, records) -> float:
    checks = run.check_all(workload, records)
    return sum(not c["ok"] for c in checks) / len(checks)


def test_lift_stream_oracle_passes_and_corrupt_kernel_fails_every_op():
    wl = workloads.LiftStream(seed=5)
    wl.setup()
    assert _failed_frac(wl, _ops(wl, 3)) == 0.0
    wl.kernel = layers.corrupt_kernel(wl.kernel, np.random.default_rng(0))
    assert _failed_frac(wl, _ops(wl, 3)) == 1.0


def _small_solve_input() -> workloads.SolveInput:
    return workloads.SolveInput(0.45, (0.0, 0.2), check_seed=3)


def test_kernel_solve_oracle_rejects_perturbed_and_truncated_bases():
    wl = workloads.KernelSolve(seed=5)
    x = _small_solve_input()
    radial = kernels.RadialProfileSet(2, x.r_max, 0.2 * x.r_max)
    vector = kernels.SO2RepSpec((0, 1))
    built = [kernels.build_induction_kernel(vector, 1, 3, radial),
             kernels.build_volume_kernel(vector, (0, 1), x.z_samples, radial)]
    assert wl.check(x, built)["ok"]

    volume = built[1]
    basis = volume.bases[0]
    sol = basis.angular[0]
    rng = np.random.default_rng(1)
    bumped = replace(sol, cos_coeff=sol.cos_coeff + 1e-3 * rng.normal(size=sol.cos_coeff.shape))
    perturbed = replace(basis, angular=(bumped,) + basis.angular[1:])
    truncated = replace(basis, angular=basis.angular[1:])
    for bad in (perturbed, truncated):
        broken = replace(volume, bases=(bad,) + volume.bases[1:])
        assert not wl.check(x, [built[0], broken])["ok"]


def test_pose_readout_oracle_accepts_queries_and_rejects_a_wrong_cell():
    wl = workloads.PoseReadout(seed=5)
    wl.setup()
    records = _ops(wl, 2)
    assert _failed_frac(wl, records) == 0.0
    theta = records[0][0]
    assert not wl.check(theta, so2_so3.Rotation3.about_z(theta + np.pi))["ok"]


def test_cli_pose_oracle_rejects_failed_runs_and_wrong_estimates():
    wl = workloads.CliPose(seed=5)

    def stdout(est: float) -> str:
        return json.dumps({"estimated_in_plane_deg": f"{est:.3f}"})

    assert wl.check(40.0, (0, stdout(45.0)))["ok"]
    assert wl.check(359.0, (0, stdout(5.0)))["ok"]
    assert not wl.check(40.0, (0, stdout(70.0)))["ok"]
    assert not wl.check(40.0, (1, stdout(40.0)))["ok"]


def test_tracer_self_time_and_coverage():
    tracer = spans.Tracer()
    tracer.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 20.0, 22.0, -1, "setup"],
    ]
    stats = tracer.stats()
    assert stats["ops"] == 1 and stats["covered_s"] == 4.0 and stats["op_s"] == 10.0
    assert stats["calls"]["a"] == 2 and stats["calls_in_ops"]["a"] == 1
    assert stats["self_s"]["a"] == 3.0 + 2.0


def test_wrappers_see_imported_names_and_are_removed():
    original = layers.wigner_d
    tracer = spans.Tracer()
    with tracer.installed():
        assert layers.wigner_d is not original
        assert so2_so3.wigner_d is layers.wigner_d
        with tracer.op(0):
            layers.rotate_signal(layers.SphericalSignal(2, np.ones((1, 9))),
                                 so2_so3.Rotation3(0.1, 0.2, 0.3))
    assert layers.wigner_d is original and so2_so3.wigner_d is original
    metrics = spans.layer_metrics(tracer.stats(), 0.0)
    assert metrics["so2_so3.wigner_d.calls"] == 3
    assert set(metrics) == {name for name, _, _, _ in spans.PER_LAYER}


def test_benchmark_json_matches_the_code():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [row[:3] for row in spans.PER_LAYER])


def test_without_the_library_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "lift_stream",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
