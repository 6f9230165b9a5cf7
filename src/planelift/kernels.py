"""Planar steerable kernel solver and the one lifted kernel type.

A kernel basis element is a matrix-valued function on the plane constrained
to intertwine two planar-rotation representations:

    F(rotate(theta) @ r) = rho_out(theta) @ F(r) @ rho_in(theta)^T

The solver, ``solve_so2_basis``, imposes it at every angular frequency its two
representations admit, at two rotations by irrational turns, which is exact
(see there); an analytic frequency-matching count and a grid-discretized
nullspace oracle, at two other irrational turns, serve as independent checks.

Every lifted kernel is one ``InductionKernel``, one solved basis per degree,
read on SO(3) through all 2l+1 weight rows of each degree or on the sphere
through row m = 0. The height never enters the solve, so the volume and
translation-times-sphere builders return the SO(3) kernel at degree 0 and the
one-channel sphere kernel. Only this module reads the kernel's storage format.

A basis element is a radial factor ``prof_p(r) (r/s_p)^m`` times ``cos(m phi)
C + sin(m phi) S``. One private core, ``_elements``, evaluates it from the
basis's stacked (C, S) blocks and a polar table of the points: their
``cos/sin(m phi)`` and radial factors for each m. The sphere lift
``response`` reads every degree from one cached table per grid, and its
stacked blocks from the lift plan the kernel builds on its first lift and
keeps; it builds every block's elements in one workspace of its own per
call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np

from .so2_so3 import (
    _EPS,
    MAX_ELL,
    Rotation3,
    SphericalHarmonicBasis,
    _check_array,
    _check_int,
    _check_positive,
    restrict_wigner,
    so2_block,
    wigner_d,
)

__all__ = [
    "SO2RepSpec",
    "RadialProfileSet",
    "SteerableKernelBasis",
    "so2_tensor",
    "so3_fiber_restriction",
    "solve_so2_basis",
    "analytic_basis_count",
    "grid_nullspace_dimension",
    "InductionKernel",
    "corrupt_kernel",
    "build_induction_kernel",
    "build_so3_kernel",
    "build_volume_kernel",
    "build_r3s2_kernel",
]

NULL_TOL = 1e-8  # relative singular-value threshold separating null directions
# the solver's two rotations, irrational turns unlike the grid oracle's golden and silver ones
_SOLVE_ANGLES = (2.0 * np.pi * 0.7548776662466927, 2.0 * np.pi * 0.5698402909980532)
# bytes per lift block of basis values and the table rows they read: of 0.5, 1 and 2 MiB, the
# fastest on lift_stream and pose_readout (6 runs each, 2 vCPUs) with one workspace per call
_LIFT_BLOCK_BYTES = 1 << 20


def _check_points(points) -> np.ndarray:
    """Planar points as a read-only float (N, 2) array; one point may come as
    (2,). A third column or a non-finite coordinate is an error, never
    dropped or carried into the output."""
    return _check_array("points", np.atleast_2d(points), ("N", 2))


@dataclass(frozen=True)
class SO2RepSpec:
    """An orthogonal planar-rotation representation as an ordered list of
    irrep frequencies; frequency 0 contributes one slot, k > 0 two."""

    freqs: tuple[int, ...]

    def __post_init__(self):
        for k in self.freqs:
            _check_int("frequency", k)
        object.__setattr__(self, "freqs", tuple(int(k) for k in self.freqs))

    @property
    def dim(self) -> int:
        return sum(1 if k == 0 else 2 for k in self.freqs)

    @property
    def max_freq(self) -> int:
        return max(self.freqs, default=0)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.freqs))

    def offsets(self) -> list[int]:
        offs, pos = [], 0
        for k in self.freqs:
            offs.append(pos)
            pos += 1 if k == 0 else 2
        return offs

    def matrix(self, theta) -> np.ndarray:
        """The representation, stacked over any real array of angles."""
        if np.iscomplexobj(theta):
            raise ValueError("theta must be real")
        t = np.asarray(theta, dtype=float)
        out = np.zeros(t.shape + (self.dim, self.dim))
        for k, off in zip(self.freqs, self.offsets()):
            blk = so2_block(k, t)
            out[..., off:off + blk.shape[-1], off:off + blk.shape[-1]] = blk
        return out


def so2_tensor(a: SO2RepSpec, b: SO2RepSpec) -> tuple[SO2RepSpec, np.ndarray]:
    """Frequency content and change of basis of a tensor product.

    Returns ``(spec, T)`` with ``T`` orthogonal and
    ``T.T @ kron(a(theta), b(theta)) @ T == spec.matrix(theta)``. Tensor
    coordinates use the a-index as the outer (slow) index.
    """
    da, db = a.dim, b.dim
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    unit = np.eye(da * db).reshape(da, db, da * db)  # unit[p, q]: tensor coordinate (p, q)
    cols: list[np.ndarray] = []
    freqs: list[int] = []
    for ka, oa in zip(a.freqs, a.offsets()):
        for kb, ob in zip(b.freqs, b.offsets()):
            if ka == 0 and kb == 0:
                freqs.append(0)
                cols.append(unit[oa, ob])
            elif ka == 0:
                freqs.append(kb)
                cols.extend(unit[oa, ob:ob + 2])
            elif kb == 0:
                freqs.append(ka)
                cols.extend(unit[oa:oa + 2, ob])
            else:
                (e11, e12), (e21, e22) = unit[oa:oa + 2, ob:ob + 2]
                freqs.extend([ka + kb] + ([0, 0] if ka == kb else [abs(ka - kb)]))
                v3, v4 = (e11 + e22) * inv_sqrt2, (e21 - e12) * inv_sqrt2
                cols.extend([(e11 - e22) * inv_sqrt2, (e12 + e21) * inv_sqrt2,
                             v3, v4 if ka >= kb else -v4])
    t = np.column_stack(cols) if cols else np.zeros((da * db, 0))
    return SO2RepSpec(tuple(freqs)), t


@lru_cache(maxsize=None)
def so3_fiber_restriction(ells: tuple[int, ...]) -> tuple[SO2RepSpec, np.ndarray]:
    """Planar-rotation content of a 3D-rotation fiber with the given degrees.

    Returns the canonical spec and the orthogonal map, cached and read-only,
    from stacked real harmonic coordinates into canonical block coordinates.
    """
    if not ells:
        raise ValueError("the output fiber needs at least one degree")
    parts = [restrict_wigner(ell) for ell in ells]
    ends = np.cumsum([len(q) for _, q in parts])
    t = np.zeros((ends[-1], ends[-1]))
    for (_, q), end in zip(parts, ends):
        t[end - len(q):end, end - len(q):end] = q
    t.setflags(write=False)
    return SO2RepSpec(tuple(k for mult, _ in parts for k in sorted(mult))), t


# ---------------------------------------------------------------------------
# radial profiles

@dataclass(frozen=True)
class RadialProfileSet:
    """Gaussian rings with equispaced centers on [0, r_max] and shared width;
    ``centers`` is built once, read-only and outside equality and hashing."""

    count: int
    r_max: float
    width: float | None = None
    centers: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_int("radial count", self.count, 1)
        r_max = _check_positive("r_max", self.r_max)
        width = _check_positive("profile width",
                                r_max / self.count if self.width is None else self.width)
        centers = np.linspace(0.0, r_max, self.count)  # [0.0] for one profile
        centers.setflags(write=False)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "centers", centers)
        grid = np.linspace(0.0, r_max, 4 * self.count + 8)
        rank = np.linalg.matrix_rank(self.evaluate(grid), tol=1e-10)
        if rank < self.count:
            raise ValueError("rank-deficient radial basis")

    def evaluate(self, radii: np.ndarray) -> np.ndarray:
        """Profile values at a finite real (N,) array of radii, shape
        (count, N); radii may be negative."""
        return self._profiles(_check_array("radii", radii, ("N",)))

    def _profiles(self, r: np.ndarray) -> np.ndarray:
        """``evaluate`` at radii already checked, such as those of checked points."""
        return np.exp(-0.5 * ((r[None, :] - self.centers[:, None]) / self.width) ** 2)

    def _factors(self, radii: np.ndarray, m_top: int) -> np.ndarray:
        """``prof_p(r) (r / s_p)^m`` for m = 0..m_top, shape (m_top + 1, count,
        len(radii)), with ``s_p`` the larger of profile p's center and width."""
        prof = self._profiles(radii)
        scaled = radii / np.maximum(self.centers, self.width)[:, None]
        return np.array([prof * scaled ** m if m else prof for m in range(m_top + 1)])


def _above_rounding(factors: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Masks (m_top + 1, N) from the factor table (m_top + 1, P, N): row m
    marks the points where, for some profile p and some field, ``prof_p(r)
    (r/s_p)^m`` times the field's magnitude (``magnitudes``, (N, fields))
    exceeds machine epsilon times that product's largest value over the points."""
    above = np.empty((len(factors), factors.shape[2]), dtype=bool)
    for m, factor in enumerate(factors):
        terms = factor[:, :, None] * magnitudes  # (P, N, fields)
        above[m] = np.any(terms > _EPS * terms.max(axis=1, keepdims=True), axis=(0, 2))
    return above


# ---------------------------------------------------------------------------
# the solver

@dataclass(frozen=True, eq=False)
class _AngularSolution:
    m: int
    cos_coeff: np.ndarray  # (d_out, d_in)
    sin_coeff: np.ndarray  # (d_out, d_in); zero when m == 0


@dataclass(frozen=True, eq=False)
class SteerableKernelBasis:
    """Solved basis of constraint-satisfying kernels.

    Element ``(p, a)`` is radial profile ``p`` times ``(r / s_p)^m`` times
    ``cos(m phi) C_a + sin(m phi) S_a``, for angular solution ``a`` of
    frequency ``m`` (``S_a = 0`` at m = 0) and ``s_p`` the larger of the
    profile's center and width; profile 0's elements come first. The
    rotation-invariant ``r^m`` turns the angular oscillation into a
    harmonic polynomial near the origin and keeps every element smooth
    there; a pure ``profile * trig`` product would be discontinuous at
    r = 0 and poison grid quadrature downstream.
    """

    in_rep: SO2RepSpec
    out_rep: SO2RepSpec
    radial: RadialProfileSet
    angular: tuple[_AngularSolution, ...]

    @property
    def m_max(self) -> int:
        """The top frequency the representations admit: derived, so no basis carries a cutoff."""
        return self.in_rep.max_freq + self.out_rep.max_freq

    @property
    def n_angular(self) -> int:
        return len(self.angular)

    @property
    def count(self) -> int:
        return self.radial.count * self.n_angular

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Each solution's frequency (A,) and its (cos, sin) blocks (A, 2, 1,
        d_out, d_in), stacked per call: the basis keeps one copy of each."""
        shape = (self.n_angular, 2, 1, self.out_rep.dim, self.in_rep.dim)
        blocks = np.reshape([(s.cos_coeff, s.sin_coeff) for s in self.angular], shape)
        return np.array([sol.m for sol in self.angular], dtype=int), blocks

    def evaluate_all(self, points: np.ndarray) -> np.ndarray:
        """All elements at (N, 2) points, shape (count, N, d_out, d_in): the
        polar table of the points and the stacked blocks through ``_elements``."""
        pts = _check_points(points)
        ms, blocks = self._stacked()
        trig, factors = _polar(pts, int(ms.max(initial=0)), self.radial)
        out = _elements(blocks, ms, factors, trig)
        return out.reshape(self.count, len(pts), *blocks.shape[3:])


def _polar(pts: np.ndarray, m_top: int,
           radial: RadialProfileSet) -> tuple[np.ndarray, np.ndarray]:
    """The polar table of checked (N, 2) points: ``cos/sin(m phi)`` for
    m = 0..m_top, shape (m_top + 1, 2, N), and the radial set's factors
    ``prof_p(r) (r/s_p)^m``, shape (m_top + 1, P, N)."""
    radii = np.hypot(pts[:, 0], pts[:, 1])
    mphi = np.arange(m_top + 1)[:, None] * np.arctan2(pts[:, 1], pts[:, 0])
    trig = np.stack([np.cos(mphi), np.sin(mphi)], axis=1)
    return trig, radial._factors(radii, m_top)


@lru_cache(maxsize=1)
def _grid_polar(raw: bytes, m_top: int,
                radial: RadialProfileSet) -> tuple[np.ndarray, np.ndarray]:
    """``_polar`` of the checked points whose float bytes are ``raw``, read-only
    and keyed on the points' values, never on a field, so one fixed grid serves
    every field lifted on it (0.9 MB at 64x64, lmax 6, scalar fiber, two rings)."""
    trig, factors = _polar(np.frombuffer(raw).reshape(-1, 2), m_top, radial)
    for arr in (trig, factors):
        arr.setflags(write=False)
    return trig, factors


def _elements(blocks: np.ndarray, ms: np.ndarray, factors: np.ndarray,
              trig: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The one element formula: shape (P, A, n, d_out, d_in), element (p, a)
    in profile-major order, from the blocks (A, 2, 1, d_out, d_in) of
    solutions of frequencies ``ms`` and the polar table of n points: factors
    (m_top + 1, P, n) and ``cos/sin(m phi)`` (m_top + 1, 2, n); written into
    the start of the flat workspace ``work`` if one is given, else fresh."""
    radial, trig = factors[ms], trig[ms]
    (a, p, n), shape = radial.shape, blocks.shape[3:]
    full = (p, a, n) + shape
    # build the angular factor in profile 0's slot and scale it there last
    out = np.empty(full) if work is None else work[:math.prod(full)].reshape(full)
    np.multiply(trig[:, 0, :, None, None], blocks[:, 0], out=out[0])
    out[0] += np.multiply(trig[:, 1, :, None, None], blocks[:, 1], out=out[1] if p > 1 else None)
    scale = radial.transpose(1, 0, 2)[..., None, None]  # (P, A, n, 1, 1)
    np.multiply(scale[1:], out[0], out=out[1:])
    out[0] *= scale[0]
    return out


def solve_so2_basis(in_rep: SO2RepSpec, out_rep: SO2RepSpec,
                    radial: RadialProfileSet) -> SteerableKernelBasis:
    """Solve the rotation-intertwining constraint numerically.

    For each angular frequency ``m`` the constraint couples only the cosine
    and sine coefficient matrices of that frequency. It is imposed at the
    two rotations ``_SOLVE_ANGLES``, stacked into one ``(2 dd, dd)`` system,
    ``(4 dd, 2 dd)`` at m > 0, whose SVD nullspace is taken at relative
    singular value below ``NULL_TOL``. That is exact: a null vector at angle
    theta needs ``exp(i (m - k) theta) = 1`` for an eigenfrequency k of
    ``rho_out x rho_in``, which at an irrational turn forces m = k, and then
    the constraint holds at every angle. Those k, ``|k_out - k_in|`` and
    ``k_out + k_in`` over the irrep pairs, are at most the basis's ``m_max``,
    ``in_rep.max_freq + out_rep.max_freq``, so m = 0..m_max holds them all.
    """
    d_out, d_in = out_rep.dim, in_rep.dim
    dd = d_out * d_in
    thetas = np.array(_SOLVE_ANGLES)
    # kron(out_rep(t), in_rep(t)) at both angles t, in one einsum
    conjugations = np.einsum("tik,tjl->tijkl", out_rep.matrix(thetas),
                             in_rep.matrix(thetas)).reshape(len(thetas), dd, dd)

    solutions: list[_AngularSolution] = []
    eye = np.eye(dd)
    zero = np.zeros((d_out, d_in))  # the sine block of every m = 0 solution
    zero.setflags(write=False)
    for m in range(in_rep.max_freq + out_rep.max_freq + 1):
        # each angle's rows act on the cosine coefficients, at m > 0 stacked with the sine ones
        rows = np.cos(m * thetas)[:, None, None] * eye - conjugations
        if m:
            off = np.sin(m * thetas)[:, None, None] * eye
            rows = np.block([[rows, off], [-off, rows]])
        _, svals, vt = np.linalg.svd(np.concatenate(rows), full_matrices=False)
        smax = max(svals[0], 1.0) if len(svals) else 1.0
        # a copy, so the solutions do not keep the whole of ``vt`` alive
        null = vt[np.sum(svals > NULL_TOL * smax):].copy()
        null.setflags(write=False)  # every solution block is a read-only view of it
        for vec in null:
            sin = vec[dd:].reshape(d_out, d_in) if m else zero
            solutions.append(_AngularSolution(m, vec[:dd].reshape(d_out, d_in), sin))
    return SteerableKernelBasis(in_rep, out_rep, radial, tuple(solutions))


def analytic_basis_count(in_rep: SO2RepSpec, out_rep: SO2RepSpec, m_max: int) -> int:
    """Frequency-matching count of angular solutions (per radial profile).

    Independent of the solver: a pair of irreps (k_in, k_out) admits two
    solutions at angular frequency |k_out - k_in| and two at k_out + k_in,
    collapsing to one solution for the scalar-scalar pair and to two for
    scalar-vs-vector pairs.
    """
    _check_int("m_max", m_max)
    total = 0
    for ko in out_rep.freqs:
        for ki in in_rep.freqs:
            if ko == 0 and ki == 0:
                total += 1
            elif ko == 0 or ki == 0:
                total += 2 if max(ko, ki) <= m_max else 0
            else:
                total += 2 if abs(ko - ki) <= m_max else 0
                total += 2 if ko + ki <= m_max else 0
    return total


def grid_nullspace_dimension(in_rep: SO2RepSpec, out_rep: SO2RepSpec) -> int:
    """Brute-force constraint nullity on an angle grid.

    Unknowns are raw kernel values at n angles, identified with the
    band-limited interpolant through them; the constraint is imposed at two
    fixed irrational rotation angles whose action on grid values is the
    spectral shift matrix. Completely bypasses the per-frequency solver.
    n is the smallest even n >= 64 whose Nyquist frequency n/2 exceeds
    ``in_rep.max_freq + out_rep.max_freq``, so no irrep pair's solution aliases.

    The shift is diagonal in the grid's DFT index, so the system splits
    into one (2dd, dd) block per grid frequency k with the factor
    ``exp(i k theta)``; the shift acts on real values, so the unpaired
    Nyquist frequency -n/2 gets its real part ``cos(n theta / 2)``. The
    blocks' singular values are the whole system's, thresholded against the largest.
    """
    dd, n_grid = out_rep.dim * in_rep.dim, max(64, 2 * (in_rep.max_freq + out_rep.max_freq) + 2)
    freqs = np.fft.fftfreq(n_grid, d=1.0 / n_grid)
    blocks = []
    for theta in (2.0 * np.pi * 0.6180339887498949, 2.0 * np.pi * 0.41421356237309515):
        shift = np.exp(1j * freqs * theta)
        shift[n_grid // 2] = shift[n_grid // 2].real
        conj = np.kron(out_rep.matrix(theta), in_rep.matrix(theta))
        blocks.append(shift[:, None, None] * np.eye(dd) - conj)
    svals = np.linalg.svd(np.concatenate(blocks, axis=1), compute_uv=False)
    smax = max(svals.max(initial=0.0), 1.0)
    return int(np.sum(svals <= NULL_TOL * smax))


# ---------------------------------------------------------------------------
# the lifted kernel

@lru_cache(maxsize=None)
def _tensor_with_harmonics(ell: int, fiber: SO2RepSpec) -> tuple[SO2RepSpec, np.ndarray]:
    """Input structure at degree ell: harmonic index (outer) times fiber
    (inner), and its change of basis to canonical coordinates, read-only and
    cached, so every kernel with this fiber reads one copy per degree."""
    res, q = so3_fiber_restriction((ell,))  # one of each frequency 0..ell
    spec, t2 = so2_tensor(res, fiber)
    t = np.kron(q, np.eye(fiber.dim)) @ t2
    t.setflags(write=False)
    return spec, t


@dataclass(frozen=True, eq=False)
class InductionKernel:
    """Lifted kernel from the plane to SO(3) or to the sphere SO(3)/SO(2).

    At degree l the matrix Fourier coefficient has 2l+1 weight rows, each an
    independent steerable kernel from the degree-l harmonics times
    ``fiber_in`` to the restricted output fiber ``out_ells``. ``kappa(w, g,
    r)`` contracts row k with row k of ``D_l(g^-1)``. An ``"so3"`` kernel
    fills every row. A ``"sphere"`` kernel has the scalar output fiber and
    fills row m = 0 alone, once per output channel, scaled by
    ``sqrt((2l+1)/4pi)`` so that it reads ``Y_l(g e_z)``; it then satisfies
    ``kappa(Rz(t) g, Rz(t) r) = kappa(g, r) rho_in(t)^{-1}``.

    ``lmax`` and the changes of basis are derived, not stored, so ``replace``
    leaves nothing stale, and construction rejects parts that disagree. The
    sphere lift's plan, each degree's stacked solutions, is built on the
    first ``response`` and kept on the kernel; a kernel from ``replace`` or
    ``corrupt_kernel`` is a new object and builds its own.
    """

    fiber_in: SO2RepSpec
    out_ells: tuple[int, ...]
    bases: tuple[SteerableKernelBasis, ...]
    out_channels: int
    space: str  # "sphere" or "so3"

    def __post_init__(self):
        _check_layer_shape(self.fiber_in, self.lmax, self.out_channels)
        if self.space not in ("sphere", "so3"):
            raise ValueError(f"space must be 'sphere' or 'so3', got {self.space!r}")
        if self.space == "sphere" and self.out_ells != (0,):
            raise ValueError(f"a sphere kernel has output degrees (0,), got {self.out_ells!r}")
        if self.space == "so3" and self.out_channels != 1:
            raise ValueError(f"an SO(3) kernel has one output channel, got {self.out_channels}")
        if len({basis.radial for basis in self.bases}) != 1:
            raise ValueError("the bases of a kernel must share one radial profile set")
        out_spec = so3_fiber_restriction(self.out_ells)[0]
        for ell, b in enumerate(self.bases):
            if (b.in_rep, b.out_rep) != (_tensor_with_harmonics(ell, self.fiber_in)[0], out_spec):
                raise ValueError(f"basis {ell} does not solve degree {ell} of these fibers")

    @property
    def lmax(self) -> int:
        return len(self.bases) - 1

    @property
    def out_dim(self) -> int:
        return sum(2 * ell + 1 for ell in self.out_ells)

    def _rows(self, ell: int) -> tuple[range, float]:
        """Degree ell's weight rows, as rows of ``D_l(g^-1)``, and their scale."""
        if self.space == "sphere":
            return range(ell, ell + 1), np.sqrt((2 * ell + 1) / (4.0 * np.pi))
        return range(2 * ell + 1), 1.0

    @property
    def weight_count(self) -> int:
        """Weights per output channel: ``count_l`` per weight row of each degree."""
        return sum(len(self._rows(ell)[0]) * b.count for ell, b in enumerate(self.bases))

    def check_weights(self, weights: np.ndarray) -> np.ndarray:
        """The weights as floats, rejected unless finite and of this kernel's
        shape: (out_channels, weight_count) for a sphere kernel, one vector,
        row-major (2l+1, count_l) per degree, for an SO(3) kernel."""
        shape = ((self.out_channels, self.weight_count) if self.space == "sphere"
                 else (self.weight_count,))
        return _check_array("weights", weights, shape)

    def _split(self, weights: np.ndarray) -> list[np.ndarray]:
        """Per-degree weight blocks, shape (out_channels, rows, count_l)."""
        w = self.check_weights(weights).reshape(self.out_channels, -1)
        out, pos = [], 0
        for ell, basis in enumerate(self.bases):
            rows = len(self._rows(ell)[0])
            block = w[:, pos:pos + rows * basis.count]
            out.append(block.reshape(self.out_channels, rows, basis.count))
            pos += block.shape[1]
        return out

    def coefficient_blocks(self, weights: np.ndarray, points: np.ndarray) -> list[np.ndarray]:
        """Per-degree kernel coefficient stacks F_l at the given points.

        Returns one array per degree, shape (out_channels * rows * out_dim,
        N, 2l+1, d_in) with the stack index channel-major; for a sphere
        kernel that is (out_channels, N, 2l+1, d_in).
        """
        pts = _check_points(points)
        d = self.fiber_in.dim
        out_t = so3_fiber_restriction(self.out_ells)[1]  # stacked output harmonics <- canonical
        out = []
        for ell, (w, basis) in enumerate(zip(self._split(weights), self.bases)):
            can = np.einsum("crb,bnij->crnij", w, basis.evaluate_all(pts))
            # output rows to harmonic coordinates, columns to harmonic-times-fiber
            t = _tensor_with_harmonics(ell, self.fiber_in)[1]  # canonical <- harmonic x fiber
            fl = np.einsum("oi,crnij,pj->cronp", out_t, can, t)
            out.append(fl.reshape(-1, pts.shape[0], 2 * ell + 1, d))
        return out

    def kappa(self, weights: np.ndarray, rot: Rotation3, points: np.ndarray) -> np.ndarray:
        """Assembled kernel at ``rot``, shape (N, out_channels * out_dim, d_in);
        a sphere kernel reads it at ``rot e_z``."""
        blocks = self.coefficient_blocks(weights, points)
        n, d = blocks[0].shape[1], self.fiber_in.dim
        total = np.zeros((n, self.out_channels, self.out_dim, d))
        for ell, fl in enumerate(blocks):
            rows, scale = self._rows(ell)
            fl = fl.reshape(self.out_channels, len(rows), self.out_dim, n, 2 * ell + 1, d)
            # rows of D_l(rot^-1) = D_l(rot)^T, read without inverting rot
            total += np.einsum("cronKv,rK->ncov", fl, scale * wigner_d(ell, rot)[:, rows].T)
        return total.reshape(n, -1, d)

    @cached_property
    def _lift_plan(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each degree's stacked solutions, ``basis._stacked()`` made
        read-only, built on the first lift and kept."""
        plan = tuple(basis._stacked() for basis in self.bases)
        for arr in (arr for pair in plan for arr in pair):
            arr.setflags(write=False)
        return plan

    def response(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sphere-lift weight-response maps, shape (fields, weight_count,
        (lmax+1)^2), for ``values`` (N, fields, d_in) at the N points.

        Row ``b`` of a map is the output of basis element ``b`` alone: the sum
        over the points of its values against the fiber values, mapped to
        harmonic coordinates; the caller multiplies in the cell area. Each
        degree's stacked solutions come from the kernel's plan
        (``_lift_plan``), built on the first call. The points are checked
        once, and every degree reads the grid's one cached polar table
        (``_grid_polar``). A degree's sum skips the points no mask of
        ``_above_rounding`` marks at its frequencies, where each term is at
        most machine epsilon times the largest bound on the sum's terms, and
        reads the rest in blocks of at most ``_LIFT_BLOCK_BYTES`` (at least
        one point), one ``matmul`` per block of every field's values against
        the block's basis values, with no transposed copy. Every block builds
        its basis values in one workspace per call, sized for the largest
        block; no two calls share one, so lifts may run in parallel.
        """
        if self.space != "sphere":
            raise ValueError(f"the lift reads a sphere kernel, got output space {self.space!r}")
        d = self.fiber_in.dim
        m_top = max((sol.m for basis in self.bases for sol in basis.angular), default=0)
        radial = self.bases[0].radial  # every degree's, as construction checks
        trig, factors = _grid_polar(_check_points(points).tobytes(), m_top, radial)
        vals = _check_array("values", values, (trig.shape[2], "fields", d))
        above = _above_rounding(factors, np.abs(vals).max(axis=2))
        nf, vals = vals.shape[1], vals.reshape(len(vals), -1)  # (N, fields * d)
        response = np.zeros((nf, self.weight_count, (self.lmax + 1) ** 2))
        degrees = []
        for basis, (ms, blocks) in zip(self.bases, self._lift_plan):
            top = ms.max(initial=0) + 1  # the table rows this degree reads
            # per point: the basis values, the table rows read and their copy per solution
            per_point = basis.count * basis.in_rep.dim + (top + len(ms)) * (radial.count + 2)
            rows = max(1, min(len(vals), _LIFT_BLOCK_BYTES // (8 * per_point)))
            degrees.append((basis, ms, blocks, top, rows))
        work = np.empty(max(basis.count * rows * basis.in_rep.dim for basis, *_, rows in degrees))
        pos = 0
        for ell, (basis, ms, blocks, top, rows) in enumerate(degrees):
            d_can = basis.in_rep.dim  # the output fiber of a sphere kernel is scalar
            keep = np.flatnonzero(above[ms].any(axis=0))
            table, cos_sin = factors[:top], trig[:top]
            moments = np.zeros((basis.count, vals.shape[1], d_can))
            for idx in (keep[i:i + rows] for i in range(0, len(keep), rows)):
                part = _elements(blocks, ms, table.take(idx, axis=2), cos_sin.take(idx, axis=2),
                                 work)
                moments += np.matmul(vals[idx].T, part.reshape(-1, len(idx), d_can))
            moments = moments.reshape(basis.count, nf, d, d_can)
            t = _tensor_with_harmonics(ell, self.fiber_in)[1].reshape(2 * ell + 1, d, -1)
            block = np.einsum("bfvj,kvj->fbk", moments, t)
            response[:, pos:pos + basis.count, SphericalHarmonicBasis.slice_of(ell)] = block
            pos += basis.count
        return response


def corrupt_kernel(kernel: InductionKernel, rng: np.random.Generator) -> InductionKernel:
    """Negative control: replace every angular solution by random coefficients.

    The result has the same shape and radial profile structure but violates
    the steerability constraint, so the equivariance harness must fail on it.
    """
    return replace(kernel, bases=tuple(
        replace(basis, angular=tuple(
            _AngularSolution(sol.m, rng.normal(size=sol.cos_coeff.shape),
                             rng.normal(size=sol.sin_coeff.shape))
            for sol in basis.angular))
        for basis in kernel.bases))


def _check_layer_shape(fiber_in: SO2RepSpec, lmax: int = 0, out_channels: int = 1) -> None:
    """Reject a layer shape whose kernel would be vacuous or ill-defined."""
    _check_int("lmax", lmax, 0, MAX_ELL)
    _check_int("out_channels", out_channels, 1)
    if not fiber_in.freqs:
        raise ValueError("the input fiber needs at least one frequency")


def _check_heights(heights: tuple[float, ...]) -> None:
    """Reject height samples other than a non-empty tuple of finite reals."""
    if not (isinstance(heights, tuple) and heights
            and all(isinstance(z, Real) and math.isfinite(z) for z in heights)):
        raise ValueError(f"heights must be a non-empty tuple of finite reals, got {heights!r}")


def _build(fiber_in: SO2RepSpec, out_ells: tuple[int, ...], lmax: int, radial: RadialProfileSet,
           out_channels: int, space: str) -> InductionKernel:
    """Solve degrees 0..lmax: at degree l, the degree-l harmonics times
    ``fiber_in`` to the restricted output fiber, each over its own band."""
    _check_layer_shape(fiber_in, lmax, out_channels)
    out_ells = tuple(out_ells)
    out_spec = so3_fiber_restriction(out_ells)[0]
    bases = tuple(solve_so2_basis(_tensor_with_harmonics(ell, fiber_in)[0], out_spec, radial)
                  for ell in range(lmax + 1))
    return InductionKernel(fiber_in, out_ells, bases, out_channels, space)


def build_induction_kernel(fiber_in: SO2RepSpec, out_channels: int, lmax: int,
                           radial: RadialProfileSet) -> InductionKernel:
    """The plane-to-sphere kernel: scalar output, one weight row per degree."""
    return _build(fiber_in, (0,), lmax, radial, out_channels, "sphere")


def build_so3_kernel(fiber_in: SO2RepSpec, fiber_out_ells: tuple[int, ...], lmax: int,
                     radial: RadialProfileSet) -> InductionKernel:
    """The plane-to-rotation-group kernel with the given output degrees."""
    return _build(fiber_in, fiber_out_ells, lmax, radial, 1, "so3")


def build_volume_kernel(fiber_in: SO2RepSpec, fiber_out_ells: tuple[int, ...],
                        z_samples: tuple[float, ...], radial: RadialProfileSet) -> InductionKernel:
    """The plane-to-volume kernel: every height slice reads the
    rotation-group kernel at degree 0."""
    _check_heights(z_samples)
    return build_so3_kernel(fiber_in, fiber_out_ells, 0, radial)


def build_r3s2_kernel(fiber_in: SO2RepSpec, lmax: int, z_samples: tuple[float, ...],
                      radial: RadialProfileSet) -> InductionKernel:
    """The plane to translation-times-sphere kernel: every height slice reads
    the sphere kernel with one output channel."""
    _check_heights(z_samples)
    return build_induction_kernel(fiber_in, 1, lmax, radial)
