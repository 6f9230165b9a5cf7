"""Planar steerable kernel solver and the four lifted kernel families.

A kernel basis element is a matrix-valued function on the plane constrained
to intertwine two planar-rotation representations:

    F(rotate(theta) @ r) = rho_out(theta) @ F(r) @ rho_in(theta)^T

The solver expands the angular dependence in trigonometric modes up to a
cutoff, samples the constraint over a circle of rotation angles, and reads
the admissible coefficient combinations off the SVD nullspace. The four
lifted kernel families (plane to sphere, plane to the rotation group, plane
to volume slices, plane to translation-times-sphere) are one per-degree
construction with a derived cutoff, the volume family being its degree 0;
an analytic frequency-matching count and a grid-discretized nullspace
oracle serve as independent checks.

``SteerableKernelBasis.evaluate_all`` is the one evaluator of a solved basis.
The height coordinate is inert under in-plane rotation, so the two
height-sliced families solve their basis once and share that one object
across every slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so2_so3 import (
    MAX_ELL,
    Rotation3,
    SphericalHarmonicBasis,
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
    "SO3Kernel",
    "VolumeKernel",
    "R3S2Kernel",
    "build_induction_kernel",
    "build_so3_kernel",
    "build_volume_kernel",
    "build_r3s2_kernel",
]

NULL_TOL = 1e-8  # relative singular-value threshold separating null directions


@dataclass(frozen=True)
class SO2RepSpec:
    """An orthogonal planar-rotation representation as an ordered list of
    irrep frequencies; frequency 0 contributes one slot, k > 0 two."""

    freqs: tuple[int, ...]

    def __post_init__(self):
        for k in self.freqs:
            if not (np.isfinite(k) and k >= 0 and k == int(k)):
                raise ValueError(f"frequencies must be non-negative integers, got {k!r}")
        object.__setattr__(self, "freqs", tuple(int(k) for k in self.freqs))

    @property
    def dim(self) -> int:
        return sum(1 if k == 0 else 2 for k in self.freqs)

    @property
    def max_freq(self) -> int:
        return max(self.freqs, default=0)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for k in self.freqs:
            out[k] = out.get(k, 0) + 1
        return out

    def offsets(self) -> list[int]:
        offs, pos = [], 0
        for k in self.freqs:
            offs.append(pos)
            pos += 1 if k == 0 else 2
        return offs

    def matrix(self, theta: float) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for k, off in zip(self.freqs, self.offsets()):
            blk = so2_block(k, theta)
            out[off:off + blk.shape[0], off:off + blk.shape[0]] = blk
        return out


def so2_tensor(a: SO2RepSpec, b: SO2RepSpec) -> tuple[SO2RepSpec, np.ndarray]:
    """Frequency content and change of basis of a tensor product.

    Returns ``(spec, T)`` with ``T`` orthogonal and
    ``T.T @ kron(a(theta), b(theta)) @ T == spec.matrix(theta)``. Tensor
    coordinates use the a-index as the outer (slow) index.
    """
    da, db = a.dim, b.dim
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    cols: list[np.ndarray] = []
    freqs: list[int] = []

    def unit(p: int, q: int) -> np.ndarray:
        e = np.zeros(da * db)
        e[p * db + q] = 1.0
        return e

    for ka, oa in zip(a.freqs, a.offsets()):
        for kb, ob in zip(b.freqs, b.offsets()):
            if ka == 0 and kb == 0:
                freqs.append(0)
                cols.append(unit(oa, ob))
            elif ka == 0:
                freqs.append(kb)
                cols.extend([unit(oa, ob), unit(oa, ob + 1)])
            elif kb == 0:
                freqs.append(ka)
                cols.extend([unit(oa, ob), unit(oa + 1, ob)])
            else:
                e11, e12 = unit(oa, ob), unit(oa, ob + 1)
                e21, e22 = unit(oa + 1, ob), unit(oa + 1, ob + 1)
                freqs.append(ka + kb)
                cols.extend([(e11 - e22) * inv_sqrt2, (e12 + e21) * inv_sqrt2])
                v3 = (e11 + e22) * inv_sqrt2
                v4 = (e21 - e12) * inv_sqrt2
                if ka == kb:
                    freqs.extend([0, 0])
                    cols.extend([v3, v4])
                elif ka > kb:
                    freqs.append(ka - kb)
                    cols.extend([v3, v4])
                else:
                    freqs.append(kb - ka)
                    cols.extend([v3, -v4])
    t = np.column_stack(cols) if cols else np.zeros((da * db, 0))
    return SO2RepSpec(tuple(freqs)), t


def so3_fiber_restriction(ells: tuple[int, ...]) -> tuple[SO2RepSpec, np.ndarray]:
    """Planar-rotation content of a 3D-rotation fiber with the given degrees.

    Returns the canonical spec and the orthogonal map from stacked real
    harmonic coordinates into canonical frequency-block coordinates.
    """
    if not ells:
        raise ValueError("the output fiber needs at least one degree")
    freqs: list[int] = []
    blocks = []
    for ell in ells:
        mult, q = restrict_wigner(ell)
        freqs.extend(sorted(mult))
        blocks.append(q)
    dim = sum(2 * ell + 1 for ell in ells)
    t = np.zeros((dim, dim))
    pos = 0
    for q in blocks:
        n = q.shape[0]
        t[pos:pos + n, pos:pos + n] = q
        pos += n
    return SO2RepSpec(tuple(freqs)), t


# ---------------------------------------------------------------------------
# radial profiles

@dataclass(frozen=True)
class RadialProfileSet:
    """Gaussian rings with equispaced centers on [0, r_max] and shared width."""

    count: int
    r_max: float
    width: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one radial profile")
        if not 0.0 < self.r_max < np.inf:
            raise ValueError("r_max must be finite and positive")
        if self.width is None:
            object.__setattr__(self, "width", self.r_max / self.count)
        if not 0.0 < self.width < np.inf:
            raise ValueError("profile width must be finite and positive")
        grid = np.linspace(0.0, self.r_max, 4 * self.count + 8)
        rank = np.linalg.matrix_rank(self.evaluate(grid), tol=1e-10)
        if rank < self.count:
            raise ValueError("rank-deficient radial basis")

    @property
    def centers(self) -> np.ndarray:
        if self.count == 1:
            return np.array([0.0])
        return np.linspace(0.0, self.r_max, self.count)

    def evaluate(self, radii: np.ndarray) -> np.ndarray:
        """Profile values, shape (count, len(radii))."""
        r = np.asarray(radii, dtype=float)
        return np.exp(-0.5 * ((r[None, :] - self.centers[:, None]) / self.width) ** 2)


# ---------------------------------------------------------------------------
# the solver

@dataclass(frozen=True)
class _AngularSolution:
    m: int
    cos_coeff: np.ndarray  # (d_out, d_in)
    sin_coeff: np.ndarray  # (d_out, d_in); zero when m == 0


@dataclass(frozen=True)
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
    m_max: int
    angular: tuple[_AngularSolution, ...]

    @property
    def n_angular(self) -> int:
        return len(self.angular)

    @property
    def count(self) -> int:
        return self.radial.count * self.n_angular

    def evaluate_all(self, points: np.ndarray) -> np.ndarray:
        """All elements at (N, 2) points, shape (count, N, d_out, d_in); each
        distinct ``r^m`` and ``cos/sin(m phi)`` is computed once per call."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        a, p, n = self.n_angular, self.radial.count, len(radii)
        shape = (self.out_rep.dim, self.in_rep.dim)
        ms = [sol.m for sol in self.angular]
        prof = self.radial.evaluate(radii)  # (P, N)
        scaled = radii / np.maximum(self.radial.centers, self.radial.width)[:, None]
        powers = {m: prof * scaled ** m for m in set(ms) if m > 0}
        trig = {m: (np.cos(m * phi), np.sin(m * phi)) for m in set(ms)}
        radial = np.array([powers[m] if m else prof for m in ms]).reshape(a, p, n)
        cos_sin = np.array([trig[m] for m in ms]).reshape(a, 2, n, 1, 1)
        blocks = np.array([(s.cos_coeff, s.sin_coeff) for s in self.angular]).reshape(a, 2, 1, *shape)
        # build the angular factor in profile 0's slot and scale it there last
        out = np.empty((p, a, n) + shape)
        np.multiply(cos_sin[:, 0], blocks[:, 0], out=out[0])
        out[0] += cos_sin[:, 1] * blocks[:, 1]
        factors = radial.transpose(1, 0, 2)[..., None, None]  # (P, A, N, 1, 1)
        np.multiply(factors[1:], out[0], out=out[1:])
        out[0] *= factors[0]
        return out.reshape(self.count, n, *shape)


def _angle_samples(m_max: int, in_rep: SO2RepSpec, out_rep: SO2RepSpec) -> np.ndarray:
    # enough samples to kill aliasing among all exponents that can appear
    n = max(4 * (m_max + 1), 2 * (m_max + in_rep.max_freq + out_rep.max_freq) + 3)
    return np.arange(n) * (2.0 * np.pi / n)


def solve_so2_basis(in_rep: SO2RepSpec, out_rep: SO2RepSpec,
                    radial: RadialProfileSet, m_max: int) -> SteerableKernelBasis:
    """Solve the rotation-intertwining constraint numerically.

    For each angular frequency ``m <= m_max`` the constraint couples only
    the cosine and sine coefficient matrices of that frequency; sampling it
    over a circle of angles yields a linear system whose SVD nullspace
    spans the admissible coefficients. Null directions are taken at
    relative singular value below ``NULL_TOL``.
    """
    d_out, d_in = out_rep.dim, in_rep.dim
    dd = d_out * d_in
    thetas = _angle_samples(m_max, in_rep, out_rep)
    conjugations = np.stack([np.kron(out_rep.matrix(t), in_rep.matrix(t)) for t in thetas])

    solutions: list[_AngularSolution] = []
    eye = np.eye(dd)
    zero = np.zeros((d_out, d_in))  # the sine block of every m = 0 solution
    for m in range(m_max + 1):
        rows = []
        for t, conj in zip(thetas, conjugations):
            c, s = np.cos(m * t), np.sin(m * t)
            if m == 0:
                rows.append(eye - conj)
            else:
                top = np.hstack([c * eye - conj, s * eye])
                bot = np.hstack([-s * eye, c * eye - conj])
                rows.append(np.vstack([top, bot]))
        system = np.vstack(rows)
        _, svals, vt = np.linalg.svd(system, full_matrices=False)
        smax = max(svals[0], 1.0) if len(svals) else 1.0
        # a copy, so the solutions do not keep the whole of ``vt`` alive
        null = vt[np.sum(svals > NULL_TOL * smax):].copy()
        for vec in null:
            sin = vec[dd:].reshape(d_out, d_in) if m else zero
            solutions.append(_AngularSolution(m, vec[:dd].reshape(d_out, d_in), sin))
    return SteerableKernelBasis(in_rep, out_rep, radial, m_max, tuple(solutions))


def analytic_basis_count(in_rep: SO2RepSpec, out_rep: SO2RepSpec, m_max: int) -> int:
    """Frequency-matching count of angular solutions (per radial profile).

    Independent of the solver: a pair of irreps (k_in, k_out) admits two
    solutions at angular frequency |k_out - k_in| and two at k_out + k_in,
    collapsing to one solution for the scalar-scalar pair and to two for
    scalar-vs-vector pairs.
    """
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

    Unknowns are raw kernel values at 64 angles, identified with the
    band-limited interpolant through them; the constraint is imposed at two
    fixed irrational rotation angles whose action on grid values is the
    spectral shift matrix. Completely bypasses the per-frequency solver.

    The shift is diagonal in the grid's DFT index, so the system splits
    into one (2dd, dd) block per grid frequency k with the factor
    ``exp(i k theta)``; the shift acts on real values, so the unpaired
    Nyquist frequency -32 gets its real part ``cos(32 theta)``. The blocks'
    singular values are the whole system's, thresholded against the largest.
    """
    dd, n_grid = out_rep.dim * in_rep.dim, 64
    freqs = np.fft.fftfreq(n_grid, d=1.0 / n_grid)
    blocks = []
    for theta in (2.0 * np.pi * 0.6180339887498949, 2.0 * np.pi * 0.41421356237309515):
        shift = np.exp(1j * freqs * theta)
        shift[n_grid // 2] = shift[n_grid // 2].real
        conj = np.kron(out_rep.matrix(theta), in_rep.matrix(theta))
        blocks.append(shift[:, None, None] * np.eye(dd) - conj)
    svals = np.linalg.svd(np.concatenate(blocks, axis=1), compute_uv=False)
    smax = max(svals.max(), 1.0)
    return int(np.sum(svals <= NULL_TOL * smax))


# ---------------------------------------------------------------------------
# kernel families

def _tensor_with_harmonics(ell: int, fiber: SO2RepSpec) -> tuple[SO2RepSpec, np.ndarray]:
    """Input structure at degree ell: harmonic index (outer) times fiber (inner)."""
    mult, q = restrict_wigner(ell)
    res = SO2RepSpec(tuple(sorted(mult)))  # one of each frequency 0..ell
    spec, t2 = so2_tensor(res, fiber)
    t = np.kron(q, np.eye(fiber.dim)) @ t2
    return spec, t


@dataclass(frozen=True)
class InductionKernel:
    """Plane-to-sphere kernel: per-degree steerable bases for scalar output fibers.

    ``weight_count`` parameters per output channel; the assembled kernel
    ``kappa(nhat, r)`` maps input fibers to channel values and satisfies
    ``kappa(Rz(t) nhat, Rz(t) r) = kappa(nhat, r) rho_in(t)^{-1}``.
    """

    fiber_in: SO2RepSpec
    out_channels: int
    lmax: int
    radial: RadialProfileSet
    bases: tuple[SteerableKernelBasis, ...]
    transforms: tuple[np.ndarray, ...]  # canonical <- (harmonic x fiber), per degree

    @property
    def weight_count(self) -> int:
        return sum(b.count for b in self.bases)

    def coefficient_blocks(self, weights: np.ndarray, points: np.ndarray) -> list[np.ndarray]:
        """Per-degree kernel coefficient stacks F_l at the given points.

        ``weights`` has shape (out_channels, weight_count); the returned
        list holds arrays of shape (channels, N, 2l+1, d_in).
        """
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.out_channels, self.weight_count):
            raise ValueError("weights must have shape (out_channels, weight_count)")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.fiber_in.dim
        out = []
        pos = 0
        for ell, (basis, t) in enumerate(zip(self.bases, self.transforms)):
            vals = basis.evaluate_all(pts)  # (count, N, 1, d_can)
            wl = w[:, pos:pos + basis.count]
            pos += basis.count
            can = np.einsum("cb,bnij->cnij", wl, vals)[:, :, 0, :]  # (C, N, d_can)
            tensor = can @ t.T                                       # (C, N, (2l+1)*d)
            out.append(tensor.reshape(w.shape[0], pts.shape[0], 2 * ell + 1, d))
        return out

    def kappa(self, weights: np.ndarray, nhat: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Assembled kernel values, shape (N, out_channels, d_in)."""
        y = SphericalHarmonicBasis(self.lmax).evaluate(np.asarray(nhat, dtype=float))
        blocks = self.coefficient_blocks(weights, points)
        total = None
        for ell, fl in enumerate(blocks):
            ysl = y[SphericalHarmonicBasis.slice_of(ell)]
            term = np.einsum("cnkv,k->ncv", fl, ysl)
            total = term if total is None else total + term
        return total


def _check_layer_shape(fiber_in: SO2RepSpec, lmax: int = 0, out_channels: int = 1) -> None:
    """Reject a layer shape whose kernel would be vacuous."""
    if not 0 <= lmax <= MAX_ELL:
        raise ValueError(f"lmax must lie in [0, MAX_ELL = {MAX_ELL}], got {lmax}")
    if out_channels < 1:
        raise ValueError(f"out_channels must be at least 1, got {out_channels}")
    if not fiber_in.freqs:
        raise ValueError("the input fiber needs at least one frequency")


def _degree_bases(fiber_in: SO2RepSpec, out_spec: SO2RepSpec, lmax: int,
                  radial: RadialProfileSet) -> tuple[tuple, tuple]:
    """Bases and transforms of degrees 0..lmax: at degree l, the degree-l
    harmonics times ``fiber_in`` to ``out_spec``, solved at the top degree's need.

    An irrep pair needs frequencies up to the sum of its frequencies, so
    ``lmax + fiber_in.max_freq + out_spec.max_freq`` truncates nothing.
    """
    m_max = lmax + fiber_in.max_freq + out_spec.max_freq
    bases, transforms = [], []
    for ell in range(lmax + 1):
        spec, t = _tensor_with_harmonics(ell, fiber_in)
        bases.append(solve_so2_basis(spec, out_spec, radial, m_max))
        transforms.append(t)
    return tuple(bases), tuple(transforms)


def build_induction_kernel(fiber_in: SO2RepSpec, out_channels: int, lmax: int,
                           radial: RadialProfileSet) -> InductionKernel:
    """Solve the plane-to-sphere constraint degree by degree.

    The degree-l coefficient kernel intertwines the tensor of the input
    fiber with the degree-l harmonic restriction on the input side and the
    scalar output fiber on the output side.
    """
    _check_layer_shape(fiber_in, lmax, out_channels)
    bases, transforms = _degree_bases(fiber_in, SO2RepSpec((0,)), lmax, radial)
    return InductionKernel(fiber_in, out_channels, lmax, radial, bases, transforms)


@dataclass(frozen=True)
class SO3Kernel:
    """Plane-to-rotation-group kernel.

    At degree l the matrix Fourier coefficient carries a free row index of
    size 2l+1 (the coefficient's second harmonic index), each row being an
    independent steerable kernel from the fiber-times-harmonics input to
    the restricted output fiber.
    """

    fiber_in: SO2RepSpec
    out_ells: tuple[int, ...]
    lmax: int
    radial: RadialProfileSet
    bases: tuple[SteerableKernelBasis, ...]
    in_transforms: tuple[np.ndarray, ...]
    out_spec: SO2RepSpec
    out_transform: np.ndarray

    @property
    def out_dim(self) -> int:
        return sum(2 * ell + 1 for ell in self.out_ells)

    def weight_shape(self, ell: int) -> tuple[int, int]:
        return (2 * ell + 1, self.bases[ell].count)

    @property
    def weight_count(self) -> int:
        return sum((2 * ell + 1) * b.count for ell, b in enumerate(self.bases))

    def split_weights(self, flat: np.ndarray) -> list[np.ndarray]:
        if len(flat) != self.weight_count:
            raise ValueError(f"weight vector has length {len(flat)}, "
                             f"expected {self.weight_count}")
        out, pos = [], 0
        for ell in range(self.lmax + 1):
            shape = self.weight_shape(ell)
            n = shape[0] * shape[1]
            out.append(np.asarray(flat[pos:pos + n], dtype=float).reshape(shape))
            pos += n
        return out

    def kappa(self, flat_weights: np.ndarray, rot: Rotation3, points: np.ndarray) -> np.ndarray:
        """Assembled kernel, shape (N, out_dim, d_in)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        weights = self.split_weights(flat_weights)
        d = self.fiber_in.dim
        ginv = rot.inverse()
        total = np.zeros((pts.shape[0], self.out_dim, d))
        for ell, (basis, t_in, w) in enumerate(zip(self.bases, self.in_transforms, weights)):
            vals = basis.evaluate_all(pts)          # (count, N, d_out_can, d_in_can)
            dmat = wigner_d(ell, ginv)
            # row slot k gets its own weighted combination, columns back to
            # harmonic-times-fiber coordinates, output rows to harmonic coords
            can = np.einsum("kb,bnij->knij", w, vals)
            sh = np.einsum("oi,knij,pj->knop", self.out_transform, can, t_in)
            fl = sh.reshape(2 * ell + 1, pts.shape[0], self.out_dim, 2 * ell + 1, d)
            # contract the two harmonic indices with the Wigner matrix of g^{-1}
            total = total + np.einsum("knoKv,kK->nov", fl, dmat)
        return total


def build_so3_kernel(fiber_in: SO2RepSpec, fiber_out_ells: tuple[int, ...], lmax: int,
                     radial: RadialProfileSet) -> SO3Kernel:
    _check_layer_shape(fiber_in, lmax)
    out_spec, out_t = so3_fiber_restriction(tuple(fiber_out_ells))
    bases, transforms = _degree_bases(fiber_in, out_spec, lmax, radial)
    return SO3Kernel(fiber_in, tuple(fiber_out_ells), lmax, radial,
                     bases, transforms, out_spec, out_t)


@dataclass(frozen=True)
class VolumeKernel:
    """Plane-to-volume kernel: the same steerable basis at every height slice."""

    fiber_in: SO2RepSpec
    out_ells: tuple[int, ...]
    z_samples: tuple[float, ...]
    radial: RadialProfileSet
    bases: tuple[SteerableKernelBasis, ...]
    out_spec: SO2RepSpec
    out_transform: np.ndarray

    def kappa_slice(self, z_index: int, weights: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Kernel values on one slice, shape (N, out_dim, d_in)."""
        basis = self.bases[z_index]
        vals = basis.evaluate_all(np.atleast_2d(points))
        can = np.einsum("b,bnij->nij", np.asarray(weights, dtype=float), vals)
        return np.einsum("oi,nij->noj", self.out_transform, can)


def build_volume_kernel(fiber_in: SO2RepSpec, fiber_out_ells: tuple[int, ...],
                        z_samples: tuple[float, ...], radial: RadialProfileSet) -> VolumeKernel:
    if not z_samples:
        raise ValueError("need at least one height sample")
    _check_layer_shape(fiber_in)
    out_spec, out_t = so3_fiber_restriction(tuple(fiber_out_ells))
    # degree 0 alone: the degree-0 harmonic times the fiber is the fiber
    (basis,), _ = _degree_bases(fiber_in, out_spec, 0, radial)
    return VolumeKernel(fiber_in, tuple(fiber_out_ells), tuple(z_samples),
                        radial, (basis,) * len(z_samples), out_spec, out_t)


@dataclass(frozen=True)
class R3S2Kernel:
    """Six-degree-of-freedom kernel: plane to translation-times-sphere.

    The height coordinate is inert under in-plane rotation, so every slice
    poses the same plane-to-sphere problem; it is solved once and shared.
    """

    fiber_in: SO2RepSpec
    lmax: int
    z_samples: tuple[float, ...]
    radial: RadialProfileSet
    slices: tuple[InductionKernel, ...]

    def kappa(self, z_index: int, weights: np.ndarray, nhat: np.ndarray,
              points: np.ndarray) -> np.ndarray:
        return self.slices[z_index].kappa(weights, nhat, points)


def build_r3s2_kernel(fiber_in: SO2RepSpec, lmax: int, z_samples: tuple[float, ...],
                      radial: RadialProfileSet, out_channels: int = 1) -> R3S2Kernel:
    if not z_samples:
        raise ValueError("need at least one height sample")
    kernel = build_induction_kernel(fiber_in, out_channels, lmax, radial)
    return R3S2Kernel(fiber_in, lmax, tuple(z_samples), radial, (kernel,) * len(z_samples))
