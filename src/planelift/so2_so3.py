"""Rotations, real Wigner-D matrices, real spherical harmonics, quadrature.

Conventions (fixed here once, everything downstream inherits them):

* rotations are ZYZ Euler triples, ``R = Rz(alpha) @ Ry(beta) @ Rz(gamma)``;
  quaternions are ``(x, y, z, w)``, scalar last: ``compose`` multiplies
  them and ``from_matrix`` reads one by the largest pivot (Shepperd);
* spherical harmonics are real, orthonormal on the unit sphere, with no
  Condon-Shortley phase in the real basis, stored in order
  ``m = -l .. l`` (sine terms at negative indices), and computed by the
  normalized associated-Legendre recurrence from ``sin(theta) = hypot(x, y)``;
* ``wigner_d`` is defined by the equivariance relation
  ``Y_l(R @ n) = D_l(R) @ Y_l(n)``, which makes it a genuine homomorphism.

The Wigner matrices are real throughout and factor as
``D_l(R) = Z_l(alpha) @ J_l.T @ Z_l(beta) @ J_l @ Z_l(gamma)`` (Pinchon &
Hoggan, 2007): ``Z_l`` is the rotation about z, which mixes only the
``+m``/``-m`` pair, and ``J_l`` is the matrix of the quarter turn about x
carrying y to z, built once per degree by exact quadrature of the
harmonics. Degrees 0..``MAX_ELL`` are supported; orthogonality and
homomorphism errors stay below 1e-13 over that range. Independent
matrix-action oracles for degrees one and two live in the test suite.
The rotation-group readout applies the same factorisation to a whole ZYZ
product grid at once, in two parts: ``_wigner_grid_table`` builds what
depends on the grid alone (per degree, the folded ``Y_l`` rows of every grid
beta and the alpha and gamma z-factor stacks), which ``layers.SO3Grid``
keeps, and ``_wigner_grid_dot`` multiplies a block into those rows and
applies one matrix product per z-factor; a single rotation is the one-cell
grid.

The package's one integer rule and one array rule live here. ``_check_int``
rejects every degree, band, frequency, count and size outside its integer
range, naming the parameter. ``_check_array`` takes in every array a library
value or function is given: it rejects a complex value for a real array, a
shape off its spec (an int fixes an axis, a name marks a free non-empty axis)
and a non-finite entry, and returns a read-only copy, so the caller's array
stays its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

__all__ = [
    "MAX_ELL",
    "Rotation3",
    "so2_block",
    "wigner_d",
    "wigner_d_z",
    "restrict_wigner",
    "SphericalHarmonicBasis",
    "sphere_quadrature",
]

MAX_ELL = 32
_TWO_PI = 2.0 * np.pi
_EPS = np.finfo(float).eps
# |p|^2 of the library's own sphere points (``sphere_quadrature`` to band 128, the
# pole under 20000 random rotations) is within 4.4e-16 of 1; 1e-12 leaves a 2000x margin
_UNIT_TOL = 1e-12


def _check_int(name: str, value, low: int = 0, high: float = math.inf) -> None:
    """Reject ``value`` unless it is an integer in ``[low, high]``; a bool is not."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and low <= value <= high):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_positive(name: str, value) -> float:
    """``value`` as a float, rejected unless it is a finite positive real (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def _check_array(name: str, value, shape: tuple, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of ``value`` in ``dtype``, rejected unless it
    is exact in ``dtype`` (no complex value for a real array), finite and of
    ``shape``: an int fixes an axis, a str names a free non-empty axis, and
    axes with the same name must agree."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr) and np.dtype(dtype).kind != "c":
        raise ValueError(f"{name} must be real")
    sizes: dict[str, int] = {}
    if arr.ndim != len(shape) or not all(
            (n > 0 and sizes.setdefault(axis, n) == n) if isinstance(axis, str) else n == axis
            for axis, n in zip(shape, arr.shape)):
        spec = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({spec}), got {arr.shape}")
    out = arr.astype(dtype, order="C")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    out.setflags(write=False)
    return out


def _as_zyz(quat) -> tuple[float, float, float]:
    """ZYZ angles from the unit quaternion, accurate for every beta.

    With half angles ``b = beta/2``, ``s = (alpha+gamma)/2`` and
    ``d = (alpha-gamma)/2`` the quaternion is
    ``(-sin b sin d, sin b cos d, cos b sin s, cos b cos s)``. Within
    rounding of a pole, where ``d`` or ``s`` is free, gamma is 0.
    """
    x, y, z, w = quat
    sin_b, cos_b = np.hypot(x, y), np.hypot(z, w)
    s, d = np.arctan2(z, w), np.arctan2(-x, y)
    if sin_b <= _EPS:
        d = s
    elif cos_b <= _EPS:
        s = d
    return s + d, 2.0 * np.arctan2(sin_b, cos_b), s - d


def _matrix_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix by the largest pivot (Shepperd):
    row i of the symmetric ``K = 4 q q^T`` is ``4 q_i q``."""
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    k = np.empty((4, 4))
    k[:3, :3] = m + m.T
    k[:3, 3] = k[3, :3] = m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]
    k[np.diag_indices(4)] = *(1.0 - trace + 2.0 * np.diag(m)), 1.0 + trace
    row = k[np.argmax(np.diag(k))]
    return row / np.linalg.norm(row)


def _quat_product(p, q) -> tuple[float, float, float, float]:
    """Hamilton product ``p q`` of quaternions ``(x, y, z, w)``."""
    (px, py, pz, pw), (qx, qy, qz, qw) = p, q
    return (pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
            pw * qw - px * qx - py * qy - pz * qz)


@dataclass(frozen=True)
class Rotation3:
    """A rotation stored as canonicalized ZYZ Euler angles."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name, angle in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not math.isfinite(angle):
                raise ValueError(f"rotation angle {name} must be finite, got {angle}")
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
        m = _check_array("rotation matrix", mat, (3, 3))
        if not np.allclose(m @ m.T, np.eye(3), rtol=0.0, atol=1e-9) or np.linalg.det(m) <= 0.0:
            raise ValueError("expected a 3x3 rotation matrix")
        return Rotation3(*_as_zyz(_matrix_quat(m)))

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation3":
        quat = rng.normal(size=4)
        return Rotation3(*_as_zyz(quat / np.linalg.norm(quat)))

    def _quat(self) -> tuple[float, float, float, float]:
        """Unit quaternion ``(x, y, z, w)``, scalar last; ``_as_zyz`` inverts it."""
        b, s, d = self.beta / 2, (self.alpha + self.gamma) / 2, (self.alpha - self.gamma) / 2
        return (-math.sin(b) * math.sin(d), math.sin(b) * math.cos(d),
                math.cos(b) * math.sin(s), math.cos(b) * math.cos(s))

    def matrix(self) -> np.ndarray:
        """``Rz(alpha) @ Ry(beta) @ Rz(gamma)``."""
        ca, sa = math.cos(self.alpha), math.sin(self.alpha)
        cb, sb = math.cos(self.beta), math.sin(self.beta)
        cg, sg = math.cos(self.gamma), math.sin(self.gamma)
        return np.array([[ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
                         [sa * cb * cg + ca * sg, ca * cg - sa * cb * sg, sa * sb],
                         [-sb * cg, sb * sg, cb]])

    def compose(self, other: "Rotation3") -> "Rotation3":
        """Product ``self * other`` (apply ``other`` first), via quaternions."""
        return Rotation3(*_as_zyz(_quat_product(self._quat(), other._quat())))

    def inverse(self) -> "Rotation3":
        return Rotation3.from_matrix(self.matrix().T)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix().T


def so2_block(k: int, theta) -> np.ndarray:
    """Frequency-k planar rotation, stacked over any array of angles."""
    if k == 0:
        return np.ones(np.shape(theta) + (1, 1))
    c, s = np.cos(k * theta), np.sin(k * theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


# ---------------------------------------------------------------------------
# Wigner matrices

@lru_cache(maxsize=None)
def _j_matrix(ell: int) -> np.ndarray:
    """Real Wigner matrix of the quarter turn about x that carries y to z.

    Exact quadrature of ``Y_l(Q n) Y_l(n)^T`` over the sphere, snapped to
    the nearest orthogonal matrix (the polar factor), so ``J_0 == [[1.0]]``.
    """
    quarter = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    pts, wts = sphere_quadrature(ell)
    rotated = _harmonics(pts @ quarter.T, ell, ell)
    u, _, vt = np.linalg.svd((rotated * wts[:, None]).T @ _harmonics(pts, ell, ell))
    out = u @ vt
    out.setflags(write=False)
    return out


def _z_factor(ell: int, angles) -> tuple[np.ndarray, np.ndarray]:
    """``cos(m t)`` and ``-sin(m t)`` for m = -l .. l, one row per angle ``t``.

    With one row ``c, s``, ``Z_l(t) @ M == c[:, None] * M + s[:, None] * M[::-1]``.
    """
    ang = np.multiply.outer(np.asarray(angles, dtype=float), np.arange(-ell, ell + 1))
    return np.cos(ang), -np.sin(ang)


def _wigner_y(ell: int, betas) -> np.ndarray:
    """Wigner matrices of ``Ry(beta)``, ``J_l^T Z_l(beta) J_l``, one per angle:
    shape (n, 2l+1, 2l+1)."""
    c, s = _z_factor(ell, betas)
    j = _j_matrix(ell)
    return j.T @ (c[:, :, None] * j + s[:, :, None] * j[::-1])


def _z_sandwich(ell: int, alphas, y: np.ndarray, gammas) -> np.ndarray:
    """``Z_l(alpha) @ y @ Z_l(gamma)`` for a stack ``y`` of shape (n, 2l+1, 2l+1)."""
    # Z(g) on the right acts on columns as Z(-g) does on rows
    ca, sa = _z_factor(ell, alphas)
    cg, sg = _z_factor(ell, np.negative(gammas))
    left = ca[:, :, None] * y + sa[:, :, None] * y[:, ::-1]
    return left * cg[:, None, :] + left[:, :, ::-1] * sg[:, None, :]


def _wigner_grid_table(ell: int, alphas: np.ndarray, betas: np.ndarray,
                       gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of ``_wigner_grid_dot`` at degree ``ell`` that depend on the
    grid alone, read-only: the folded ``Y_l(b)`` rows (2 (2l+1), n_beta,
    2 (2l+1)), ``[[Y, Y[:, ::-1]], [Y[::-1], Y[::-1, ::-1]]]`` per grid beta
    with the beta axis second, and the alpha and negated-gamma z-factor
    stacks ``[cos | -sin]``, (n_alpha, 2 (2l+1)) and (n_gamma, 2 (2l+1)).
    The rows hold 4 (2l+1)^2 floats per grid beta."""
    y = _wigner_y(ell, betas)
    rows = np.concatenate([y, y[:, ::-1]], axis=1)  # (n_beta, 2 (2l+1), 2l+1)
    folded = np.concatenate([rows, rows[:, :, ::-1]], axis=2).transpose(1, 0, 2).copy()
    table = (folded, np.hstack(_z_factor(ell, alphas)),
             np.hstack(_z_factor(ell, np.negative(gammas))))
    for arr in table:
        arr.setflags(write=False)
    return table


def _wigner_grid_dot(table: tuple[np.ndarray, np.ndarray, np.ndarray],
                     block: np.ndarray) -> np.ndarray:
    """``sum(wigner_d(ell, (a, b, g)) * block)`` over the product grid whose
    degree-``ell`` ``_wigner_grid_table`` is ``table``, flattened with ``a``
    slowest and ``g`` fastest.

    ``Z_l(a)`` mixes rows ``i`` and ``-i`` of ``Y_l(b)`` and ``Z_l(g)`` mixes
    columns ``j`` and ``-j``, so the sum separates: ``block`` multiplies the
    folded rows, one product folds in the alpha factors, giving a (cos|sin of
    gamma) coefficient per (a, b) cell, and a second applies the gamma factors.
    """
    folded, alpha_z, gamma_z = table
    size = len(folded)
    per_cell = (alpha_z @ (folded * np.tile(block, (2, 2))[:, None, :]).reshape(size, -1)
                ).reshape(-1, size)
    return (per_cell @ gamma_z.T).ravel()


def wigner_d(ell: int, rot: Rotation3) -> np.ndarray:
    """Real orthogonal Wigner matrix with ``Y_l(R n) = D_l(R) Y_l(n)``."""
    _check_int("ell", ell, 0, MAX_ELL)
    return _z_sandwich(ell, [rot.alpha], _wigner_y(ell, [rot.beta]), [rot.gamma])[0]


def wigner_d_z(ell: int, theta: float) -> np.ndarray:
    """Wigner matrix of the rotation by ``theta`` about z: the z-factor alone."""
    _check_int("ell", ell, 0, MAX_ELL)
    (c,), (s,) = _z_factor(ell, [theta])
    eye = np.eye(2 * ell + 1)
    return c[:, None] * eye + s[:, None] * eye[::-1]


def restrict_wigner(ell: int) -> tuple[dict[int, int], np.ndarray]:
    """Planar-rotation content of the degree-l Wigner matrix.

    Returns the multiplicity map (each frequency 0..l exactly once) and the
    orthogonal change of basis ``Q`` such that ``Q.T @ D_l(Rz(theta)) @ Q``
    is block diagonal: first the frequency-0 scalar, then one standard
    rotation block per frequency 1..l.
    """
    _check_int("ell", ell, 0, MAX_ELL)
    size = 2 * ell + 1
    q = np.zeros((size, size))
    q[ell, 0] = 1.0
    for m in range(1, ell + 1):
        q[ell + m, 2 * m - 1] = 1.0  # cosine component
        q[ell - m, 2 * m] = 1.0      # sine component
    return {k: 1 for k in range(ell + 1)}, q


# ---------------------------------------------------------------------------
# spherical harmonics

def _harmonics(points: np.ndarray, lmax: int, lmin: int = 0) -> np.ndarray:
    """Real harmonics of degrees ``lmin..lmax`` at unit vectors (N, 3), shape
    (N, (lmax+1)^2 - lmin^2), by the normalized associated-Legendre recurrence.

    ``sin(theta)`` is ``hypot(x, y)``; ``sqrt(1 - z^2)`` loses digits at the poles.
    """
    x, y, z = points.T
    sin_t, phi = np.hypot(x, y), np.arctan2(y, x)
    out = np.empty((len(points), (lmax + 1) ** 2 - lmin * lmin))
    sectoral = np.full(len(points), math.sqrt(0.25 / np.pi))
    for m in range(lmax + 1):
        if m:
            sectoral = sectoral * (math.sqrt((2 * m + 1) / (2 * m)) * sin_t)
        scale = math.sqrt(2.0) if m else 1.0  # the real basis splits m > 0 into cos and sin
        cos_m, sin_m = scale * np.cos(m * phi), scale * np.sin(m * phi)
        prev, cur = 0.0, sectoral
        for ell in range(m, lmax + 1):
            if ell > m:
                a = math.sqrt((4 * ell * ell - 1) / (ell * ell - m * m))
                b = math.sqrt(((ell - 1) ** 2 - m * m) / (4 * (ell - 1) ** 2 - 1))
                prev, cur = cur, a * (z * cur - b * prev)
            if ell >= lmin:  # at m = 0 the cosine column overwrites the sine one
                col = ell * ell + ell - lmin * lmin
                out[:, col - m], out[:, col + m] = cur * sin_m, cur * cos_m
    return out


class SphericalHarmonicBasis:
    """Real orthonormal spherical harmonics stacked over degrees 0..lmax."""

    def __init__(self, lmax: int):
        _check_int("lmax", lmax, 0, MAX_ELL)
        self.lmax = lmax
        self.size = (lmax + 1) ** 2

    @staticmethod
    def slice_of(ell: int) -> slice:
        return slice(ell * ell, (ell + 1) * (ell + 1))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at unit vectors: (N, 3) -> (N, (lmax+1)^2), and (3,) -> ((lmax+1)^2,);
        a point whose |p|^2 is off 1 by more than ``_UNIT_TOL`` is an error."""
        pts = _check_array("points", np.atleast_2d(points), ("N", 3))
        off = float(np.abs(np.einsum("ni,ni->n", pts, pts) - 1.0).max())
        if off > _UNIT_TOL:
            raise ValueError(f"points must be unit vectors, |p|^2 is off 1 by {off:.1e}")
        out = _harmonics(pts, self.lmax)
        return out[0] if np.ndim(points) == 1 else out


def sphere_quadrature(band: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre x uniform-azimuth grid, exact for products of
    harmonics up to degree ``band`` each.

    Returns (points (N, 3), weights (N,)); weights sum to the sphere area.
    """
    _check_int("band", band)
    n_theta = band + 1
    n_phi = 2 * (band + 1)
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    phi = np.arange(n_phi) * (_TWO_PI / n_phi)
    sin_theta = np.sqrt(1.0 - x ** 2)
    pts = np.stack([np.multiply.outer(sin_theta, np.cos(phi)),
                    np.multiply.outer(sin_theta, np.sin(phi)),
                    np.repeat(x[:, None], n_phi, axis=1)], axis=-1).reshape(-1, 3)
    return pts, np.repeat(wx * (_TWO_PI / n_phi), n_phi)
