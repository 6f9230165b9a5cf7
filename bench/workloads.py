"""The four benchmark workloads and the oracles that check their outputs.

Each workload is a closed loop with one client: ``next_input`` draws the
next operation's input from the seed (untimed), ``op`` is the timed call
into planelift, and ``check`` verifies the output afterwards (untimed).
``setup`` rebuilds everything shared by the operations from the seed alone
and ends with one warm-up operation, so it can be repeated and timed.

planelift names are always looked up through their module at call time
(``layers.induction_forward``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from statistics import median

import numpy as np
from planelift import kernels, layers, so2_so3

import env

CHILD_TIMEOUT_S = 150


def _angle_error_deg(estimate_rad: float, truth_rad: float) -> float:
    """Absolute in-plane error, wrapped to [0, 180] degrees."""
    diff = (estimate_rad - truth_rad + np.pi) % (2.0 * np.pi) - np.pi
    return abs(float(np.rad2deg(diff)))


def _in_plane_estimate(best: so2_so3.Rotation3) -> float:
    """In-plane angle of a ZYZ readout cell, as ``planelift demo pose`` reads it."""
    return best.alpha + best.gamma if best.beta < 1e-9 else best.alpha


class LiftStream:
    """One layer forward pass per operation over a stream of random fields."""

    name = "lift_stream"
    reference_job = "interpreter"
    grid_n = 64
    gate = 1e-5  # the end-to-end equivariance gate of the acceptance suite

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = np.random.default_rng([seed, 1])
        self.config = layers.LayerConfig(lmax=6, fiber_freqs=(0,), channels=4, radial_count=2,
                                         grid_n=self.grid_n)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.kernel = self.config.build_kernel()
        self.weights = rng.normal(size=(self.kernel.out_channels, self.kernel.weight_count))
        self.op(self._draw(rng))

    def _draw(self, rng: np.random.Generator):
        field = layers.AnalyticField.random_band_limited(self.config.fiber, rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        return field, theta, field.sample(self.grid_n, self.config.spacing)

    def next_input(self):
        return self._draw(self.inputs)

    def op(self, x):
        signal = layers.induction_forward(x[2], self.kernel, self.weights)
        return signal, layers.spherical_nonlinearity(signal, "relu")

    def check(self, x, y) -> dict:
        """The lift of the analytically rotated twin must equal the rotated
        lift; the nonlinearity output must be finite."""
        field, theta, _ = x
        signal, activated = y
        twin = layers.rotate_field(field, theta).sample(self.grid_n, self.config.spacing)
        lifted = layers.induction_forward(twin, self.kernel, self.weights)
        rotated = layers.rotate_signal(signal, so2_so3.Rotation3.about_z(theta))
        residual = (float(np.linalg.norm(lifted.coeffs - rotated.coeffs))
                    / max(signal.norm(), 1e-30))
        ok = residual <= self.gate and bool(np.all(np.isfinite(activated.coeffs)))
        return {"ok": ok, "residual": residual}

    def summary(self, times: list[float], checks: list[dict]) -> dict:
        return {"lift_fields_per_s": (len(times) / sum(times), "fields/s")}


class PoseReadout:
    """One in-plane pose query per operation against a fixed reference lift."""

    name = "pose_readout"
    reference_job = "interpreter"
    grid_n = 48
    readout = (12, 6, 12)  # ZYZ equiangular grid, 864 cells

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = np.random.default_rng([seed, 1])
        self.config = layers.LayerConfig(lmax=6, grid_n=self.grid_n)
        self.cell_deg = 360.0 / self.readout[0]

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.kernel = self.config.build_kernel()
        self.weights = rng.normal(size=(self.kernel.out_channels, self.kernel.weight_count))
        self.pattern = layers.AnalyticField.random_band_limited(self.config.fiber, rng)
        self.reference = layers.induction_forward(
            self.pattern.sample(self.grid_n, self.config.spacing), self.kernel, self.weights)
        self.grid = layers.so3_equiangular_grid(*self.readout)
        self.op(float(rng.uniform(0.0, 2.0 * np.pi)))

    def next_input(self) -> float:
        return float(self.inputs.uniform(0.0, 2.0 * np.pi))

    def op(self, theta: float) -> so2_so3.Rotation3:
        observed = layers.induction_forward(
            layers.rotate_field(self.pattern, theta).sample(self.grid_n, self.config.spacing),
            self.kernel, self.weights)
        corr = layers.sphere_to_so3_correlation(observed, self.reference)
        return self.grid[int(np.argmax(corr.evaluate(self.grid)))]

    def check(self, theta: float, best: so2_so3.Rotation3) -> dict:
        """The in-plane estimate must fall within one alpha cell of the truth."""
        err = _angle_error_deg(_in_plane_estimate(best), theta)
        return {"ok": err <= self.cell_deg, "err_deg": err}

    def summary(self, times: list[float], checks: list[dict]) -> dict:
        return {
            "pose_ms_p50": (1e3 * median(times), f"ms (median of n={len(times)})"),
            "pose_err_deg_p50": (median(c["err_deg"] for c in checks), "deg"),
        }


@dataclass(frozen=True)
class SolveInput:
    r_max: float
    z_samples: tuple[float, ...]
    check_seed: int


class KernelSolve:
    """One pass over a fixed list of kernels, one of each family, per operation."""

    name = "kernel_solve"
    reference_job = "lapack"
    steer_tol = 1e-8  # the kernel-solver steerability gate of the acceptance suite

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        self.op(self._draw(np.random.default_rng([self.seed, 0])))

    @staticmethod
    def _draw(rng: np.random.Generator) -> SolveInput:
        # The radius and the heights are inputs to the solve but do not change
        # its cost, so every pass does the same work.
        return SolveInput(float(rng.uniform(0.4, 0.5)),
                          tuple(float(z) for z in np.sort(rng.uniform(-0.5, 0.5, size=4))),
                          int(rng.integers(2**31)))

    def next_input(self) -> SolveInput:
        return self._draw(self.inputs)

    def op(self, x: SolveInput) -> list:
        radial = kernels.RadialProfileSet(2, x.r_max, 0.2 * x.r_max)
        scalar, vector = kernels.SO2RepSpec((0,)), kernels.SO2RepSpec((0, 1))
        return [
            kernels.build_induction_kernel(scalar, 1, 10, radial),
            kernels.build_induction_kernel(kernels.SO2RepSpec((0, 1, 2)), 1, 6, radial),
            kernels.build_so3_kernel(vector, (0, 1), 3, radial),
            kernels.build_volume_kernel(vector, (0, 1), x.z_samples, radial),
            kernels.build_r3s2_kernel(scalar, 6, x.z_samples, radial),
        ]

    @staticmethod
    def bases_of(kernel) -> list:
        if hasattr(kernel, "slices"):
            return [b for s in kernel.slices for b in s.bases]
        return list(kernel.bases)

    def check(self, x: SolveInput, built: list) -> dict:
        """Every basis has the analytic count and is steerable at seeded
        points and angles."""
        rng = np.random.default_rng(x.check_seed)
        bases = [b for k in built for b in self.bases_of(k)]
        return {"ok": all(self.basis_ok(b, rng) for b in bases), "bases": len(bases)}

    @classmethod
    def basis_ok(cls, basis, rng: np.random.Generator) -> bool:
        expected = basis.radial.count * kernels.analytic_basis_count(
            basis.in_rep, basis.out_rep, basis.m_max)
        if basis.count != expected:
            return False
        pts = rng.normal(size=(8, 2)) * 0.5 * basis.radial.r_max
        base = basis.evaluate_all(pts)
        scale = max(1.0, float(np.abs(base).max()))
        for theta in rng.uniform(0.0, 2.0 * np.pi, size=3):
            c, s = np.cos(theta), np.sin(theta)
            lhs = basis.evaluate_all(pts @ np.array([[c, -s], [s, c]]).T)
            rhs = np.einsum("ou,bnuv,wv->bnow", basis.out_rep.matrix(theta), base,
                            basis.in_rep.matrix(theta))
            if not float(np.abs(lhs - rhs).max()) <= cls.steer_tol * scale:
                return False
        return True

    def summary(self, times: list[float], checks: list[dict]) -> dict:
        return {"solve_s": (median(times), f"s per pass (median of n={len(times)})")}


class CliPose:
    """One ``planelift demo pose`` process per operation, default settings."""

    name = "cli_pose"
    reference_job = "interpreter"
    cell_deg = 360.0 / 24  # the demo's default readout has 24 alpha cells

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = np.random.default_rng([seed, 1])
        self.env = env.child_env()

    def setup(self) -> None:
        """Cold start: one fresh interpreter importing ``planelift.cli``."""
        out = subprocess.run([sys.executable, "-c",
                              "import planelift.cli, sys; sys.stdout.write(planelift.cli.__file__)"],
                             capture_output=True, text=True, env=self.env, cwd=env.ROOT,
                             timeout=CHILD_TIMEOUT_S, check=True)
        env.check_source(out.stdout)

    def next_input(self) -> float:
        return round(float(self.inputs.uniform(0.0, 360.0)), 3)

    def argv(self, angle: float) -> list[str]:
        return ["demo", "pose", "--angle", f"{angle:.3f}"]

    def op(self, angle: float) -> tuple[int, str]:
        out = subprocess.run([sys.executable, "-m", "planelift.cli", *self.argv(angle)],
                             capture_output=True, text=True, env=self.env, cwd=env.ROOT,
                             timeout=CHILD_TIMEOUT_S)
        return out.returncode, out.stdout

    def traced_op(self, angle: float, tracer, index: int) -> tuple[int, str]:
        """The same run, in a fresh process of ``cli_child.py`` that traces
        ``planelift.cli.main``; its stats are merged into ``tracer``."""
        out = subprocess.run([sys.executable, str(env.ROOT / "bench" / "cli_child.py"),
                              str(env.ROOT / ".bench_out" / f"trace-cli_pose-seed{self.seed}"
                                  f"-op{index}.jsonl"), *self.argv(angle)],
                             capture_output=True, text=True, env=self.env, cwd=env.ROOT,
                             timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            return out.returncode, out.stdout
        result = json.loads(out.stdout.strip().splitlines()[-1])
        tracer.merged.append(result["stats"])
        return result["exit"], result["stdout"]

    def check(self, angle: float, y: tuple[int, str]) -> dict:
        """Exit code 0 and the estimate within one readout cell of the truth."""
        code, stdout = y
        if code != 0:
            return {"ok": False, "err_deg": float("nan")}
        est = float(json.loads(stdout)["estimated_in_plane_deg"])
        err = _angle_error_deg(np.deg2rad(est), np.deg2rad(angle))
        return {"ok": err <= self.cell_deg, "err_deg": err}

    def summary(self, times: list[float], checks: list[dict]) -> dict:
        return {
            "cli_pose_s": (median(times), f"s per invocation (median of n={len(times)})"),
            "pose_err_deg_p50": (median(c["err_deg"] for c in checks), "deg"),
        }


WORKLOADS = {w.name: w for w in (LiftStream, PoseReadout, KernelSolve, CliPose)}
