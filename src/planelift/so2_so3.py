"""Rotations, real Wigner-D matrices, real spherical harmonics, quadrature.

Conventions (fixed here once, everything downstream inherits them):

* rotations are ZYZ Euler triples, ``R = Rz(alpha) @ Ry(beta) @ Rz(gamma)``;
* spherical harmonics are real, orthonormal on the unit sphere, with no
  Condon-Shortley phase in the real basis, stored in order
  ``m = -l .. l`` (sine terms at negative indices);
* ``wigner_d`` is defined by the equivariance relation
  ``Y_l(R @ n) = D_l(R) @ Y_l(n)``, which makes it a genuine homomorphism.

The Wigner matrices are computed by the classical factorial sum in the
complex basis and conjugated into the real basis; an independent
matrix-action oracle for low degrees lives in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial.transform import Rotation as _ScipyRotation
from scipy.special import lpmv

__all__ = [
    "MAX_ELL",
    "Rotation3",
    "so2_block",
    "wigner_d",
    "wigner_d_z",
    "restrict_wigner",
    "SphericalHarmonicBasis",
    "sph_eval",
    "sphere_quadrature",
]

MAX_ELL = 16
_TWO_PI = 2.0 * np.pi


def _as_zyz(rot: _ScipyRotation) -> np.ndarray:
    # gimbal-locked triples are a valid convention choice, not a failure
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Gimbal lock detected")
        return rot.as_euler("ZYZ")


@dataclass(frozen=True)
class Rotation3:
    """A rotation stored as canonicalized ZYZ Euler angles."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a = float(self.alpha) % _TWO_PI
        g = float(self.gamma) % _TWO_PI
        b = float(self.beta)
        if not -1e-12 <= b <= np.pi + 1e-12:
            raise ValueError("beta must lie in [0, pi]; build via from_matrix for raw angles")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", min(max(b, 0.0), np.pi))
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(0.0, 0.0, 0.0)

    @staticmethod
    def about_z(theta: float) -> "Rotation3":
        return Rotation3(theta, 0.0, 0.0)

    @staticmethod
    def from_matrix(mat: np.ndarray) -> "Rotation3":
        a, b, g = _as_zyz(_ScipyRotation.from_matrix(np.asarray(mat, dtype=float)))
        return Rotation3(a, b, g)

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation3":
        quat = rng.normal(size=4)
        quat /= np.linalg.norm(quat)
        return Rotation3.from_matrix(_ScipyRotation.from_quat(quat).as_matrix())

    def matrix(self) -> np.ndarray:
        return _ScipyRotation.from_euler("ZYZ", [self.alpha, self.beta, self.gamma]).as_matrix()

    def compose(self, other: "Rotation3") -> "Rotation3":
        """Product ``self * other`` (apply ``other`` first), via quaternions."""
        ra = _ScipyRotation.from_euler("ZYZ", [self.alpha, self.beta, self.gamma])
        rb = _ScipyRotation.from_euler("ZYZ", [other.alpha, other.beta, other.gamma])
        a, b, g = _as_zyz(ra * rb)
        return Rotation3(a, b, g)

    def inverse(self) -> "Rotation3":
        return Rotation3.from_matrix(self.matrix().T)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix().T


def so2_block(k: int, theta: float) -> np.ndarray:
    if k == 0:
        return np.array([[1.0]])
    c, s = np.cos(k * theta), np.sin(k * theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# Wigner matrices

@lru_cache(maxsize=None)
def _fact(n: int) -> float:
    return float(math.factorial(n))


@lru_cache(maxsize=64)
def _d_term_table(ell: int) -> list[list[list[tuple[float, int, int]]]]:
    """Per (m', m): list of (coefficient, cos-power, sin-power) sum terms."""
    table = []
    for mp in range(-ell, ell + 1):
        row = []
        for m in range(-ell, ell + 1):
            pref = math.sqrt(_fact(ell + mp) * _fact(ell - mp) * _fact(ell + m) * _fact(ell - m))
            terms = []
            for s in range(max(0, m - mp), min(ell + m, ell - mp) + 1):
                denom = _fact(ell + m - s) * _fact(s) * _fact(mp - m + s) * _fact(ell - mp - s)
                coeff = ((-1.0) ** (mp - m + s)) * pref / denom
                terms.append((coeff, 2 * ell + m - mp - 2 * s, mp - m + 2 * s))
            row.append(terms)
        table.append(row)
    return table


@lru_cache(maxsize=4096)
def _small_d(ell: int, beta: float) -> np.ndarray:
    """Wigner small-d matrix, rows/cols ordered m = -l .. l.

    Cached per (degree, angle): readout grids reuse a handful of polar
    angles thousands of times. Callers must not mutate the result.
    """
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    size = 2 * ell + 1
    out = np.zeros((size, size))
    table = _d_term_table(ell)
    for i in range(size):
        for j in range(size):
            acc = 0.0
            for coeff, pc, ps in table[i][j]:
                acc += coeff * (c ** pc) * (s ** ps)
            out[i, j] = acc
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _real_basis_matrix(ell: int) -> np.ndarray:
    """Unitary map from complex to real spherical-harmonic coordinates."""
    size = 2 * ell + 1
    mat = np.zeros((size, size), dtype=np.complex128)
    mat[ell, ell] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for m in range(1, ell + 1):
        sign = (-1.0) ** m
        mat[ell + m, ell + m] = sign * inv_sqrt2       # cosine row
        mat[ell + m, ell - m] = inv_sqrt2
        mat[ell - m, ell + m] = -1j * sign * inv_sqrt2  # sine row
        mat[ell - m, ell - m] = 1j * inv_sqrt2
    return mat


def _check_ell(ell: int) -> None:
    if not 0 <= ell <= MAX_ELL:
        raise ValueError(f"degree {ell} out of supported range [0, {MAX_ELL}]")


def wigner_d(ell: int, rot: Rotation3) -> np.ndarray:
    """Real orthogonal Wigner matrix with ``Y_l(R n) = D_l(R) Y_l(n)``."""
    _check_ell(ell)
    m = np.arange(-ell, ell + 1)
    # conjugated complex matrix: exp(+i m' a) d(beta) exp(+i m g)
    dc = (np.exp(1j * m[:, None] * rot.alpha)
          * _small_d(ell, rot.beta)
          * np.exp(1j * m[None, :] * rot.gamma))
    basis = _real_basis_matrix(ell)
    out = basis @ dc @ basis.conj().T
    return np.ascontiguousarray(out.real)


def wigner_d_z(ell: int, theta: float) -> np.ndarray:
    """Fast path for rotations about z (no small-d evaluation needed)."""
    _check_ell(ell)
    size = 2 * ell + 1
    out = np.zeros((size, size))
    out[ell, ell] = 1.0
    for m in range(1, ell + 1):
        c, s = np.cos(m * theta), np.sin(m * theta)
        out[ell + m, ell + m] = c
        out[ell + m, ell - m] = -s
        out[ell - m, ell + m] = s
        out[ell - m, ell - m] = c
    return out


def restrict_wigner(ell: int) -> tuple[dict[int, int], np.ndarray]:
    """Planar-rotation content of the degree-l Wigner matrix.

    Returns the multiplicity map (each frequency 0..l exactly once) and the
    orthogonal change of basis ``Q`` such that ``Q.T @ D_l(Rz(theta)) @ Q``
    is block diagonal: first the frequency-0 scalar, then one standard
    rotation block per frequency 1..l.
    """
    _check_ell(ell)
    size = 2 * ell + 1
    q = np.zeros((size, size))
    q[ell, 0] = 1.0
    for m in range(1, ell + 1):
        q[ell + m, 2 * m - 1] = 1.0  # cosine component
        q[ell - m, 2 * m] = 1.0      # sine component
    return {k: 1 for k in range(ell + 1)}, q


# ---------------------------------------------------------------------------
# spherical harmonics

class SphericalHarmonicBasis:
    """Real orthonormal spherical harmonics stacked over degrees 0..lmax."""

    def __init__(self, lmax: int):
        _check_ell(lmax)
        self.lmax = lmax
        self.size = (lmax + 1) ** 2
        norms = []
        for ell in range(lmax + 1):
            for m in range(0, ell + 1):
                norms.append(math.sqrt((2 * ell + 1) / (4.0 * np.pi)
                                       * _fact(ell - m) / _fact(ell + m)))
        self._norms = norms

    @staticmethod
    def slice_of(ell: int) -> slice:
        return slice(ell * ell, (ell + 1) * (ell + 1))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at unit vectors; shape (..., 3) -> (..., (lmax+1)^2)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        z = np.clip(pts[:, 2], -1.0, 1.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.empty((pts.shape[0], self.size))
        idx = 0
        for ell in range(self.lmax + 1):
            base = ell * ell
            for m in range(0, ell + 1):
                norm = self._norms[idx]
                idx += 1
                plm = lpmv(m, ell, z)
                if m == 0:
                    out[:, base + ell] = norm * plm
                else:
                    # (-1)^m cancels the Condon-Shortley phase carried by lpmv
                    amp = ((-1.0) ** m) * math.sqrt(2.0) * norm * plm
                    out[:, base + ell + m] = amp * np.cos(m * phi)
                    out[:, base + ell - m] = amp * np.sin(m * phi)
        return out[0] if single else out


def sph_eval(lmax: int, nhat: np.ndarray) -> np.ndarray:
    """Stacked real harmonics at one unit vector; rejects non-unit input."""
    nhat = np.asarray(nhat, dtype=float)
    if abs(np.linalg.norm(nhat) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    return SphericalHarmonicBasis(lmax).evaluate(nhat)


def sphere_quadrature(band: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre x uniform-azimuth grid, exact for products of
    harmonics up to degree ``band`` each.

    Returns (points (N, 3), weights (N,)); weights sum to the sphere area.
    """
    n_theta = band + 1
    n_phi = 2 * (band + 1)
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = np.arange(n_phi) * (_TWO_PI / n_phi)
    sin_theta = np.sqrt(1.0 - x ** 2)
    pts = np.empty((n_theta * n_phi, 3))
    wts = np.empty(n_theta * n_phi)
    k = 0
    for i in range(n_theta):
        for j in range(n_phi):
            pts[k] = (sin_theta[i] * np.cos(phi[j]), sin_theta[i] * np.sin(phi[j]), x[i])
            wts[k] = wx[i] * (_TWO_PI / n_phi)
            k += 1
    return pts, wts
