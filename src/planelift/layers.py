"""Executable lifting layer: planar feature fields in, spherical signals out.

The lift is bilinear in (weights, field). For a given field and kernel it
is one weight-response map ``R`` with ``coeffs = weights @ R``; the forward
pass and the analytic gradient both go through that map, so the layer users
run is the layer the gradient check certifies. Fields on one grid share one
basis pass (``induction_forward_many``); one field is its one-field case.
That map is the kernel's ``response`` times the cell area: this module reads
a kernel only through ``fiber_in``, ``lmax``, ``out_channels``,
``weight_count`` and methods, and re-exports its ``corrupt_kernel``.

Spherical signals live purely in harmonic coefficient space, so rotating
them is an exact matrix action; grids appear only inside the pointwise
nonlinearity and the rotation-group readout, which is where discretization
error belongs. Equivariance is certified with analytically rotated
band-limited planar inputs, keeping resampling error out of the measurement:
like a spherical signal, such a Bessel field rotates in coefficient space,
each angular frequency m by a 2x2 turn of its amplitudes.

Forward passes are pure functions of immutable kernels; harness trials are
independent and may run in parallel.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import (
    InductionKernel,
    RadialProfileSet,
    SO2RepSpec,
    _check_layer_shape,
    _check_points,
    build_induction_kernel,
    corrupt_kernel,
)
from .so2_so3 import (
    MAX_ELL,
    Rotation3,
    SphericalHarmonicBasis,
    _check_array,
    _check_int,
    _check_positive,
    _wigner_grid_dot,
    _wigner_grid_table,
    so2_block,
    sphere_quadrature,
    wigner_d,
)

__all__ = [
    "PlanarFeatureField",
    "AnalyticField",
    "SphericalSignal",
    "SO3Signal",
    "rotate_field",
    "rotate_signal",
    "induction_forward",
    "induction_forward_many",
    "spherical_nonlinearity",
    "sphere_to_so3_correlation",
    "SO3Grid",
    "so3_equiangular_grid",
    "LayerConfig",
    "HarnessReport",
    "equivariance_harness",
    "corrupt_kernel",
    "gradient_check",
]

FIELD_BAND = 2  # the angular band of ``AnalyticField.random_band_limited``'s fields


# ---------------------------------------------------------------------------
# planar fields

@dataclass(frozen=True)
class PlanarFeatureField:
    """Fiber-valued samples on a square grid centered on the origin."""

    values: np.ndarray  # (H, W, d)
    spacing: float
    fiber_rep: SO2RepSpec

    def __post_init__(self):
        v = _check_array("field values", self.values, ("H", "W", self.fiber_rep.dim))
        _check_positive("spacing", self.spacing)
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[:2]

    def positions(self) -> np.ndarray:
        """Flattened sample positions, shape (H*W, 2)."""
        return _grid_positions(*self.shape, self.spacing)

    def flat_values(self) -> np.ndarray:
        return self.values.reshape(-1, self.fiber_rep.dim)


def _grid_positions(h: int, w: int, spacing: float) -> np.ndarray:
    xs = (np.arange(h) - (h - 1) / 2.0) * spacing
    ys = (np.arange(w) - (w - 1) / 2.0) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


@dataclass(frozen=True)
class AnalyticField:
    """A closed-form field; rotation acts exactly, with no resampling error."""

    func: object  # callable (N, 2) -> (N, d)
    fiber_rep: SO2RepSpec

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = _check_points(points)
        return _check_array("field function output", self.func(pts),
                            (len(pts), self.fiber_rep.dim))

    def sample(self, n: int, spacing: float) -> PlanarFeatureField:
        """Sample on the n x n grid of the given spacing centered on the origin;
        a Bessel field is one product of its amplitudes with the grid's
        cached mode table."""
        _check_int("grid size n", n, 1)
        _check_positive("spacing", spacing)
        if isinstance(self.func, _BesselModes):
            vals = self.func.on_grid(n, spacing)
        else:
            vals = self(_grid_positions(n, n, spacing))
        return PlanarFeatureField(vals.reshape(n, n, -1), spacing, self.fiber_rep)

    @staticmethod
    def random_band_limited(fiber: SO2RepSpec, rng: np.random.Generator,
                            m_band: int = FIELD_BAND) -> "AnalyticField":
        """Random finite sum of modes ``J_m(k r) (a cos(m phi) + b sin(m phi))``:
        two radial wavenumbers in [1, 6) per angular frequency m up to
        ``m_band``, drawn as ``ks``, then the cosine, then the sine amplitudes.

        The field's function is a ``_BesselModes`` holding these numbers, so
        ``rotate_field`` turns its amplitudes and ``sample`` reads a cached
        grid table; ``J_m`` comes from ``_bessel_j``'s backward recurrence.
        """
        _check_int("m_band", m_band)
        d, n_radial = fiber.dim, 2
        ks = rng.uniform(1.0, 6.0, size=(m_band + 1, n_radial))
        amp_c = rng.normal(size=(m_band + 1, n_radial, d))
        amp_s = rng.normal(size=(m_band + 1, n_radial, d))
        amp_s[0] = 0.0
        return AnalyticField(_BesselModes(ks, np.stack([amp_c, amp_s])), fiber)


def _bessel_modes(ks: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mode table of (N, 2) points for wavenumbers ``ks`` (M+1, 2): the rows
    ``J_m(k r) cos(m phi)`` for every (m, k), then ``J_m(k r) sin(m phi)``,
    shape (2 (M+1) 2, N)."""
    ms = np.arange(len(ks))
    r = np.hypot(points[:, 0], points[:, 1])
    phi = np.arctan2(points[:, 1], points[:, 0])
    bess = _bessel_j(len(ks) - 1, ks[..., None] * r)[ms, ms]  # J_m(k r), (M+1, 2, N)
    mphi = ms[:, None] * phi
    trig = np.stack([np.cos(mphi), np.sin(mphi)])[:, :, None, :]  # (2, M+1, 1, N)
    return (trig * bess).reshape(2 * ks.size, -1)


@lru_cache(maxsize=1)
def _grid_modes(ks: tuple[float, ...], n: int, spacing: float) -> np.ndarray:
    """Read-only mode table of the n x n grid, shape (2 (M+1) 2, n n), keyed
    on the wavenumbers and the grid, never on a field, so kept fields hold
    none (393 KB at 64x64, ``m_band`` 2). One entry serves a field and its
    rotations on one grid; four cost the ``lift_stream`` benchmark, a stream
    of fresh fields, 5% in op time and 3 MB of peak memory on 2 vCPUs."""
    table = _bessel_modes(np.reshape(ks, (-1, 2)), _grid_positions(n, n, spacing))
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class _BesselModes:
    """``sum_m sum_k J_m(k r) (a_mk cos(m phi) + b_mk sin(m phi))`` from the
    wavenumbers ``ks`` (M+1, 2) and fiber-valued amplitudes ``amps``
    (2, M+1, 2, d), cosine then sine, both read-only."""

    ks: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        for arr in (self.ks, self.amps):
            arr.setflags(write=False)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return _bessel_modes(self.ks, points).T @ self.amps.reshape(-1, self.amps.shape[-1])

    def on_grid(self, n: int, spacing: float) -> np.ndarray:
        """Values on the n x n grid, shape (n n, d)."""
        table = _grid_modes(tuple(self.ks.ravel().tolist()), n, spacing)
        return table.T @ self.amps.reshape(-1, self.amps.shape[-1])

    def rotated(self, theta: float, mix: np.ndarray) -> "_BesselModes":
        """The field turned by ``theta`` with fiber matrix ``mix``: at the
        turned-back angle ``phi - theta`` each frequency's (a, b) turns by
        ``m theta``, and the radial part stays."""
        mtheta = np.arange(len(self.ks))[:, None, None] * theta
        c, s = np.cos(mtheta), np.sin(mtheta)
        a, b = self.amps
        return _BesselModes(self.ks, np.stack([a * c - b * s, a * s + b * c]) @ mix.T)


_SERIES_X = 1e-4  # below this ``_bessel_j`` takes the two-term series, exact at 0


def _bessel_j(m_max: int, x: np.ndarray) -> np.ndarray:
    """``J_0 .. J_m_max`` at finite ``x >= 0``, shape ``(m_max + 1,) + x.shape``:
    Miller's backward recurrence ``J_{n-1} = (2n / x) J_n - J_{n+1}`` from the
    even order at or above ``m_max + ceil(max x) + 30``, so its cost grows
    linearly with ``max x``, rescaled every 8 steps and normalised by
    ``J_0 + 2 sum_k J_2k = 1``; below ``_SERIES_X`` the two-term series."""
    start = 2 * ((m_max + math.ceil(x.max(initial=0.0)) + 31) // 2)
    two_over_x = 2.0 / np.maximum(x, _SERIES_X)
    out = np.zeros((m_max + 1,) + x.shape)
    # J_{n+1}, J_n and the sum of J_2k (k >= 1), all up to one common scale
    upper, cur, even = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for n in range(start, 0, -1):
        if n <= m_max:
            out[n] = cur
        if n % 2 == 0:
            even += cur
        upper, cur = cur, n * two_over_x * cur - upper
        if n % 8 == 0:  # keep the growing solution near 1
            scale = 1.0 / (np.abs(cur) + np.abs(upper))
            upper, cur, even = upper * scale, cur * scale, even * scale
            out[n:] *= scale
    out[0] = cur
    out /= cur + 2.0 * even
    half, term = 0.5 * x, np.ones_like(x)
    for n in range(m_max + 1):  # term = (x/2)^n / n!
        out[n] = np.where(x < _SERIES_X, term * (1.0 - half * half / (n + 1)), out[n])
        term = term * half / (n + 1)
    return out


def _bilinear(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Bilinear samples of an (H, W, d) grid at (N, 2) fractional (row, col)
    coordinates, shape (N, d); zero outside ``[0, H-1] x [0, W-1]``."""
    top = np.array(values.shape[:2]) - 1
    inside = np.all((coords >= 0) & (coords <= top), axis=1)[:, None]
    clipped = np.clip(coords, 0, top)
    lo = np.minimum(clipped.astype(int), np.maximum(top - 1, 0))  # the cell's first corner
    (r0, c0), (r1, c1) = lo.T, np.minimum(lo + 1, top).T
    fr, fc = (clipped - lo).T[..., None]
    near = values[r0, c0] * (1 - fc) + values[r0, c1] * fc
    far = values[r1, c0] * (1 - fc) + values[r1, c1] * fc
    return np.where(inside, near * (1 - fr) + far * fr, 0.0)


def rotate_field(field, theta: float):
    """Planar rotation action: move sample positions and mix fibers.

    Analytic fields rotate exactly: a Bessel field of ``random_band_limited``
    by turning its amplitudes, any other by evaluating at turned-back points.
    Sampled fields are resampled by ``_bilinear``, zero outside the grid, and
    so carry interpolation error.
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    if isinstance(field, AnalyticField):
        mix = field.fiber_rep.matrix(theta)
        if isinstance(field.func, _BesselModes):
            return AnalyticField(field.func.rotated(theta, mix), field.fiber_rep)
        rot_back = so2_block(1, -theta)

        def rotated(points: np.ndarray) -> np.ndarray:
            return field(np.atleast_2d(points) @ rot_back.T) @ mix.T

        return AnalyticField(rotated, field.fiber_rep)

    if isinstance(field, PlanarFeatureField):
        h, w = field.shape
        pts = field.positions() @ so2_block(1, -theta).T
        coords = pts / field.spacing + (np.array([h, w]) - 1) / 2.0  # (row, col) per point
        mixed = _bilinear(field.values, coords) @ field.fiber_rep.matrix(theta).T
        return PlanarFeatureField(mixed.reshape(h, w, -1), field.spacing, field.fiber_rep)

    raise TypeError("expected PlanarFeatureField or AnalyticField")


# ---------------------------------------------------------------------------
# spherical signals

@dataclass(frozen=True)
class SphericalSignal:
    """Band-limited spherical signal as stacked real harmonic coefficients."""

    lmax: int
    coeffs: np.ndarray  # (channels, (lmax+1)^2)

    def __post_init__(self):
        _check_int("lmax", self.lmax, 0, MAX_ELL)
        # one channel may come as a vector
        object.__setattr__(self, "coeffs", _check_array(
            "coefficients", np.atleast_2d(self.coeffs), ("channels", (self.lmax + 1) ** 2)))

    @property
    def channels(self) -> int:
        return int(self.coeffs.shape[0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def degree_norms(self) -> np.ndarray:
        return np.array([np.linalg.norm(self.coeffs[:, SphericalHarmonicBasis.slice_of(l)])
                         for l in range(self.lmax + 1)])

    def synthesize(self, points: np.ndarray) -> np.ndarray:
        """Pointwise values on unit vectors, shape (channels, N)."""
        y = SphericalHarmonicBasis(self.lmax).evaluate(np.atleast_2d(points))
        return self.coeffs @ y.T


def rotate_signal(signal: SphericalSignal, rot: Rotation3) -> SphericalSignal:
    """Exact rotation in coefficient space, one Wigner block per degree."""
    out = np.empty_like(signal.coeffs)
    for ell in range(signal.lmax + 1):
        sl = SphericalHarmonicBasis.slice_of(ell)
        out[:, sl] = signal.coeffs[:, sl] @ wigner_d(ell, rot).T
    return SphericalSignal(signal.lmax, out)


def _lift_response(fields: Sequence[PlanarFeatureField], kernel: InductionKernel) -> np.ndarray:
    """Weight-response maps of the lift, shape (fields, weight_count, (lmax+1)^2):
    the kernel's response over the shared grid, times the cell area."""
    if not fields:
        raise ValueError("need at least one field to lift")
    if any(field.fiber_rep.freqs != kernel.fiber_in.freqs for field in fields):
        raise ValueError("field fiber representation does not match the kernel")
    if len({(field.shape, field.spacing) for field in fields}) > 1:
        raise ValueError("fields lifted together must share grid shape and spacing")
    vals = np.stack([field.flat_values() for field in fields], axis=1)  # (N, fields, d)
    return fields[0].spacing ** 2 * kernel.response(fields[0].positions(), vals)


def induction_forward_many(fields: Sequence[PlanarFeatureField], kernel: InductionKernel,
                           weights: np.ndarray) -> list[SphericalSignal]:
    """Lift planar fields that share one grid and fiber to spherical signals.

    The lifting integral is a Riemann sum over the grid: field ``i`` lifts to
    ``weights @ R_i`` for its weight-response map ``R_i``, linear in both the
    field and the weights. One basis pass per degree serves every field.
    """
    response = _lift_response(fields, kernel)
    w = kernel.check_weights(weights)
    return [SphericalSignal(kernel.lmax, w @ r) for r in response]


def induction_forward(field: PlanarFeatureField, kernel: InductionKernel,
                      weights: np.ndarray) -> SphericalSignal:
    """Lift one planar field: the one-field case of ``induction_forward_many``."""
    return induction_forward_many([field], kernel, weights)[0]


@lru_cache(maxsize=16, typed=True)
def _sphere_grid(lmax: int, band: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Harmonics up to ``lmax`` on the band-``band`` quadrature grid,
    shape (N, (lmax+1)^2), and the grid weights (N,), both read-only and
    cached. The default band, twice ``lmax``, is the one grid rule of the
    nonlinearity and its gradient. ``typed`` keys keep a float band, which
    the check rejects, from hitting an int band's entry."""
    band = 2 * lmax if band is None else band
    _check_int("grid_band", band)
    if band < lmax:
        raise ValueError("oversampling band must be at least the signal band")
    pts, wts = sphere_quadrature(band)
    y = SphericalHarmonicBasis(lmax).evaluate(pts)
    for arr in (y, wts):
        arr.setflags(write=False)
    return y, wts


def spherical_nonlinearity(signal: SphericalSignal, kind: str = "relu",
                           grid_band: int | None = None) -> SphericalSignal:
    """Pointwise nonlinearity through an oversampled sphere grid.

    Synthesizes on a quadrature grid of band ``grid_band`` (default twice
    the signal band, for aliasing control), applies the nonlinearity, and
    projects back to the original band. Exactly equivariant only in the
    limit of a dense grid; the residual shrinks as ``grid_band`` grows.
    """
    y, wts = _sphere_grid(signal.lmax, grid_band)
    vals = signal.coeffs @ y.T
    if kind == "relu":
        vals = np.maximum(vals, 0.0)
    elif kind == "softplus":
        vals = np.logaddexp(0.0, vals)
    else:
        raise ValueError(f"unknown nonlinearity {kind!r}")
    return SphericalSignal(signal.lmax, (vals * wts) @ y)


# ---------------------------------------------------------------------------
# rotation-group signals

class SO3Grid(Sequence):
    """ZYZ product grid of rotations, stored as its three angle axes.

    Item ``i`` is ``Rotation3(alphas[a], betas[b], gammas[g])`` with ``i``
    running over ``(a, b, g)`` in row-major order; items are built on demand.
    The grid keeps each degree's readout table once it is first read, so
    every signal read on one grid shares them.
    """

    def __init__(self, alphas, betas, gammas):
        self.alphas, self.betas, self.gammas = (_check_array("grid angles", np.ravel(axis), ("n",))
                                                for axis in (alphas, betas, gammas))
        if np.any((self.betas < 0.0) | (self.betas > np.pi)):
            raise ValueError("grid betas must lie in [0, pi]")
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _readout_table(self, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Degree ``ell``'s read-only ``so2_so3._wigner_grid_table`` of this
        grid, built on the first read (4 (2l+1)^2 floats per grid beta)."""
        table = self._tables.get(ell)
        if table is None:
            table = self._tables[ell] = _wigner_grid_table(ell, self.alphas, self.betas,
                                                           self.gammas)
        return table

    def __len__(self) -> int:
        return len(self.alphas) * len(self.betas) * len(self.gammas)

    def __getitem__(self, index: int) -> Rotation3:
        n, i = len(self), operator.index(index)
        i = i + n if i < 0 else i
        if not 0 <= i < n:
            raise IndexError(f"grid index {index} out of range for {n} cells")
        ab, g = divmod(i, len(self.gammas))
        a, b = divmod(ab, len(self.betas))
        return Rotation3(self.alphas[a], self.betas[b], self.gammas[g])


@dataclass(frozen=True)
class SO3Signal:
    """Band-limited function on the rotation group, one matrix coefficient
    per degree: ``f(g) = sum_l sum(D_l(g) * blocks[l])``.

    ``evaluate`` reads an ``SO3Grid`` separably, per degree, from the grid's
    readout table of ``D_l = Z_l(alpha) Y_l(beta) Z_l(gamma)``: the block
    multiplies the folded ``Y_l(beta)`` rows of every grid beta, then one
    matrix product folds in the alpha factors and one applies the gamma
    factors. The grid builds each degree's table once, so repeated reads on
    one grid build none. Any other sequence is read one rotation at a time,
    each as a one-cell grid.
    """

    lmax: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_int("lmax", self.lmax, 0, MAX_ELL)
        blocks = tuple(self.blocks)
        if len(blocks) != self.lmax + 1:
            raise ValueError(f"need lmax + 1 = {self.lmax + 1} blocks, got {len(blocks)}")
        checked = (_check_array(f"block {ell}", blk, (2 * ell + 1,) * 2)
                   for ell, blk in enumerate(blocks))
        object.__setattr__(self, "blocks", tuple(checked))

    def evaluate(self, rotations: Sequence[Rotation3]) -> np.ndarray:
        if not isinstance(rotations, SO3Grid):
            return np.array([self.evaluate(SO3Grid([g.alpha], [g.beta], [g.gamma]))[0]
                             for g in rotations], dtype=float)
        out = np.zeros(len(rotations))
        for ell, blk in enumerate(self.blocks):
            out += _wigner_grid_dot(rotations._readout_table(ell), blk)
        return out

    def left_rotate(self, rot: Rotation3) -> "SO3Signal":
        """Left translation: each block is premultiplied by its Wigner matrix."""
        return SO3Signal(self.lmax, tuple(wigner_d(ell, rot) @ blk
                                          for ell, blk in enumerate(self.blocks)))


def sphere_to_so3_correlation(signal: SphericalSignal,
                              filt: SphericalSignal) -> SO3Signal:
    """Correlate a spherical signal against a rotating filter.

    The value at ``g`` is the inner product of the filter rotated by ``g``
    with the signal; in coefficient space each degree contributes the outer
    product of the signal and filter coefficient vectors, summed over
    channels.
    """
    if signal.lmax != filt.lmax or signal.channels != filt.channels:
        raise ValueError("signal and filter must share band limit and channels")
    blocks = []
    for ell in range(signal.lmax + 1):
        sl = SphericalHarmonicBasis.slice_of(ell)
        s = signal.coeffs[:, sl]
        p = filt.coeffs[:, sl]
        blocks.append(np.einsum("ck,cj->kj", s, p))
    return SO3Signal(signal.lmax, tuple(blocks))


def so3_equiangular_grid(n_alpha: int = 24, n_beta: int = 12,
                         n_gamma: int = 24) -> SO3Grid:
    """ZYZ product grid including the identity cell; used only for readout."""
    for n in (n_alpha, n_beta, n_gamma):
        _check_int("grid counts", n, 1)
    return SO3Grid(np.arange(n_alpha) * (2.0 * np.pi / n_alpha),
                   np.linspace(0.0, np.pi, n_beta),
                   np.arange(n_gamma) * (2.0 * np.pi / n_gamma))


# ---------------------------------------------------------------------------
# certification harness

# Every layer built from a ``LayerConfig`` shares these: radial profiles on
# [0, R_MAX] of width RADIAL_WIDTH, a grid spanning [-EXTENT, EXTENT]^2, and
# harness fields of angular band FIELD_BAND.
#
# The lift is a Riemann sum over the square grid, and one rule sets the ring:
# the outer ring sits as far out as its tail allows, at the narrowest width
# the coarsest grid in use resolves with a margin.
# - Tail: the outer profile is machine epsilon at the inscribed radius EXTENT,
#   so the square's corners add nothing a rotation would move. Its factor
#   (r/R_MAX)^m lifts that to 2.8e-13 at m = 6 and r = EXTENT, which the
#   harness does not see: growing the grid to extent 1.5 at the same spacing
#   moves the lmax 6, grid_n 64 harness only from 6.8e-11 to 5.7e-11, and
#   halving the spacing takes it to 5.3e-13. Farther out is better: an
#   off-centre ring's profile has a kink at the origin, of size
#   exp(-R_MAX^2 / 2 RADIAL_WIDTH^2), and its quadrature error is what is
#   left of that residual. A ring that kept the m = 6 factor under epsilon
#   too would sit at 0.22, where criterion 7 reads 6.0e-9.
# - Width: the narrowest, in steps of 0.002, whose harness at the coarsest
#   grid the CLI, CI and tests run (lmax 2, grid_n 24) stays under half its
#   1e-5 tolerance over seeds 0-39 at two trials and seeds 0-9 at twenty.
#   The seeds' tail is long: over seeds 0-399 this width reads at most 6.5e-6.
EXTENT = 1.0
RADIAL_WIDTH = 0.082
R_MAX = EXTENT - RADIAL_WIDTH * math.sqrt(-2.0 * math.log(np.finfo(float).eps))
FD_STEP = 1e-5  # central-difference step of ``gradient_check``


@dataclass(frozen=True)
class LayerConfig:
    """Everything needed to instantiate a lifting layer for testing."""

    lmax: int = 6
    fiber_freqs: tuple[int, ...] = (0,)
    channels: int = 1
    radial_count: int = 2
    grid_n: int = 64

    def __post_init__(self):
        _check_int("grid_n", self.grid_n, 2)
        _check_int("radial_count", self.radial_count, 1)
        _check_layer_shape(self.fiber, self.lmax, self.channels)

    @property
    def fiber(self) -> SO2RepSpec:
        return SO2RepSpec(self.fiber_freqs)

    @property
    def spacing(self) -> float:
        return 2.0 * EXTENT / (self.grid_n - 1)

    def build_kernel(self) -> InductionKernel:
        radial = RadialProfileSet(self.radial_count, R_MAX, RADIAL_WIDTH)
        return build_induction_kernel(self.fiber, self.channels, self.lmax, radial)


@dataclass(frozen=True)
class HarnessReport:
    residuals: tuple[float, ...]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def as_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "passed": bool(self.passed),
            "residuals": list(self.residuals),
            "tolerance": self.tolerance,
        }


def equivariance_harness(config: LayerConfig, trials: int = 20,
                         theta_samples: int = 3, seed: int = 0,
                         tolerance: float = 1e-5,
                         kernel: InductionKernel | None = None) -> HarnessReport:
    """Measure the rotation-consistency defect of the lifting layer.

    Each trial draws random weights, a random band-limited analytic field
    and random in-plane angles, then compares lifting the rotated field
    against rotating the lifted signal. Fields rotate in closed form, so
    the measured residual isolates kernel and quadrature error.
    """
    _check_int("trials", trials, 1)
    _check_int("rotation angles per trial", theta_samples, 1)
    _check_positive("tolerance", tolerance)
    rng = np.random.default_rng(seed)
    kernel = kernel or config.build_kernel()
    residuals = []
    for _ in range(trials):
        w = rng.normal(size=(kernel.out_channels, kernel.weight_count))
        fld = AnalyticField.random_band_limited(config.fiber, rng)
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=theta_samples)
        base, *lifted = induction_forward_many(
            [f.sample(config.grid_n, config.spacing)
             for f in [fld, *(rotate_field(fld, theta) for theta in thetas)]], kernel, w)
        errors = [np.linalg.norm(out.coeffs - rotate_signal(base, Rotation3.about_z(t)).coeffs)
                  for t, out in zip(thetas, lifted)]
        residuals.append(float(max(errors)) / max(base.norm(), 1e-30))
    return HarnessReport(tuple(residuals), tolerance)


# ---------------------------------------------------------------------------
# gradient check

def _loss_and_grad(kernel: InductionKernel, field: PlanarFeatureField,
                   weights: np.ndarray, nonlinearity: str | None) -> tuple[float, np.ndarray]:
    """Half squared norm of the (optionally softplus-mapped) output, with
    the analytic weight gradient."""
    response = _lift_response([field], kernel)[0]
    coeffs = kernel.check_weights(weights) @ response  # (channels, ncoef)
    if nonlinearity is None:
        return 0.5 * float(np.sum(coeffs ** 2)), coeffs @ response.T
    if nonlinearity != "softplus":
        raise ValueError("gradient path supports the linear and softplus cases")
    y, qwts = _sphere_grid(kernel.lmax)
    grid_vals = coeffs @ y.T
    out = (np.logaddexp(0.0, grid_vals) * qwts) @ y
    d_grid = ((out @ y.T) * qwts) / (1.0 + np.exp(-grid_vals))
    return 0.5 * float(np.sum(out ** 2)), (d_grid @ y) @ response.T


def gradient_check(config: LayerConfig, nonlinearity: str | None = "softplus",
                   seed: int = 0) -> float:
    """Max relative error between the analytic gradient and central
    differences of the public forward pass (plus nonlinearity)."""
    rng = np.random.default_rng(seed)
    kernel = config.build_kernel()
    fld = AnalyticField.random_band_limited(config.fiber, rng)
    sampled = fld.sample(config.grid_n, config.spacing)
    w = rng.normal(size=(kernel.out_channels, kernel.weight_count))
    _, grad = _loss_and_grad(kernel, sampled, w, nonlinearity)

    def public_loss(flat_weights: np.ndarray) -> float:
        out = induction_forward(sampled, kernel, flat_weights.reshape(w.shape))
        if nonlinearity is not None:
            out = spherical_nonlinearity(out, nonlinearity)
        return 0.5 * float(np.sum(out.coeffs ** 2))

    scale = max(float(np.abs(grad).max()), 1e-30)
    worst = 0.0
    flat = w.ravel()
    for idx in rng.choice(flat.size, size=min(24, flat.size), replace=False):
        bump = np.zeros_like(flat)
        bump[idx] = FD_STEP
        fd = (public_loss(flat + bump) - public_loss(flat - bump)) / (2.0 * FD_STEP)
        worst = max(worst, abs(fd - grad.ravel()[idx]) / scale)
    return worst
