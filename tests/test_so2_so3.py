import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation
from scipy.special import lpmv

from planelift.kernels import RadialProfileSet, SO2RepSpec
from planelift.layers import LayerConfig, so3_equiangular_grid
from planelift.so2_so3 import (
    MAX_ELL,
    Rotation3,
    _UNIT_TOL,
    SphericalHarmonicBasis,
    _check_array,
    _matrix_quat,
    _quat_product,
    restrict_wigner,
    so2_block,
    sphere_quadrature,
    wigner_d,
    wigner_d_z,
)

RNG = np.random.default_rng(20240)

ROTATIONS = st.builds(Rotation3, st.floats(0.0, 2 * np.pi), st.floats(0.0, np.pi),
                      st.floats(0.0, 2 * np.pi))


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_rotation_composition_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = Rotation3.random(rng), Rotation3.random(rng)
        err = np.abs(a.compose(b).matrix() - a.matrix() @ b.matrix()).max()
        assert err < 1e-12


@pytest.mark.parametrize("beta", [6e-8, 1e-12, np.pi - 6e-8])
def test_rotation_composition_near_the_poles(beta):
    # within 1e-7 of a pole a gimbal-lock shortcut that drops gamma is off by ~beta
    a, b = Rotation3(0.3, beta, 0.0), Rotation3.about_z(1.0)
    assert np.abs(a.compose(b).matrix() - a.matrix() @ b.matrix()).max() < 1e-12


def _quat_distance(p, q):
    p, q = np.asarray(p), np.asarray(q)
    return min(np.abs(p - q).max(), np.abs(p + q).max())  # q and -q are one rotation


# Results that pass through the stored ZYZ triple carry up to an ulp of 2*pi
# (8.9e-16) per angle, and a matrix entry moves by at most the angle errors'
# sum: three angles plus the entry's own rounding.
ANGLE_TOL = 4 * np.spacing(2 * np.pi)


@settings(max_examples=200, deadline=None)
@given(a=ROTATIONS, b=ROTATIONS, seed=st.integers(0, 2 ** 32 - 1))
def test_rotation_numerics_match_scipy(a, b, seed):
    sa, sb = (ScipyRotation.from_euler("ZYZ", [g.alpha, g.beta, g.gamma]) for g in (a, b))
    mat = sa.as_matrix()
    assert np.abs(a.matrix() - mat).max() <= 1e-15
    assert _quat_distance(a._quat(), sa.as_quat()) <= 1e-15
    assert _quat_distance(_matrix_quat(mat), ScipyRotation.from_matrix(mat).as_quat()) <= 1e-15
    assert _quat_distance(_quat_product(sa.as_quat(), sb.as_quat()), (sa * sb).as_quat()) <= 1e-15
    assert np.abs(Rotation3.from_matrix(mat).matrix() - mat).max() <= ANGLE_TOL
    assert np.abs(a.compose(b).matrix() - (sa * sb).as_matrix()).max() <= ANGLE_TOL
    # random() consumes exactly one normal(size=4) draw, as a uniform quaternion
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = Rotation3.random(rng).matrix()
    assert np.abs(got - ScipyRotation.from_quat(ref.normal(size=4)).as_matrix()).max() <= ANGLE_TOL
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mat", [np.diag([1.0, 1.0, -1.0]), 1.01 * np.eye(3), np.eye(2),
                                 np.full((3, 3), np.nan)])
def test_from_matrix_rejects_non_rotations(mat):
    with pytest.raises(ValueError, match="rotation matrix"):
        Rotation3.from_matrix(mat)


@pytest.mark.parametrize("make, name", [
    (lambda: Rotation3(np.nan, 0.0, 0.0), "alpha"),
    (lambda: Rotation3(0.0, np.nan, 0.0), "beta"),
    (lambda: Rotation3(0.0, 0.5, -np.inf), "gamma"),
    (lambda: Rotation3.about_z(np.inf), "alpha"),
], ids=["alpha", "beta", "gamma", "about-z"])
def test_rotation_rejects_non_finite_angles(make, name):
    with pytest.raises(ValueError, match=f"rotation angle {name} must be finite"):
        make()


def test_rotation_inverse_and_canonical_ranges():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = Rotation3.random(rng)
        assert 0.0 <= g.alpha < 2 * np.pi
        assert 0.0 <= g.beta <= np.pi
        assert 0.0 <= g.gamma < 2 * np.pi
        assert np.abs(g.compose(g.inverse()).matrix() - np.eye(3)).max() < 1e-12


def test_so2_block_composition():
    assert np.array_equal(so2_block(0, 1.23), [[1.0]])
    assert np.abs(so2_block(3, 0.0) - np.eye(2)).max() == 0.0
    t1, t2 = 0.31, 1.71
    assert np.abs(so2_block(3, t1) @ so2_block(3, t2) - so2_block(3, t1 + t2)).max() < 1e-12


def test_wigner_degree_zero_and_range_check():
    g = Rotation3.random(np.random.default_rng(3))
    assert np.array_equal(wigner_d(0, g), [[1.0]])
    with pytest.raises(ValueError, match=rf"ell must be an integer in \[0, {MAX_ELL}\]"):
        wigner_d(MAX_ELL + 1, g)


@pytest.mark.parametrize("call, name", [
    (lambda: wigner_d(1.5, Rotation3.identity()), "ell"),
    (lambda: wigner_d_z(2.0, 0.3), "ell"),
    (lambda: restrict_wigner(1.5), "ell"),
    (lambda: SphericalHarmonicBasis(2.0), "lmax"),
    (lambda: sphere_quadrature(2.5), "band"),
    (lambda: sphere_quadrature(-1), "band"),
], ids=["wigner_d", "wigner_d_z", "restrict_wigner", "harmonics", "quadrature-fraction",
        "quadrature-negative"])
def test_non_integer_degrees_and_bands_name_the_parameter(call, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer "):
        call()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call, message", [
    (lambda b: LayerConfig(lmax=b), r"lmax must be an integer in \[0, 32\]"),
    (lambda b: RadialProfileSet(b, 0.5), "radial count must be an integer >= 1"),
    (lambda b: SO2RepSpec((b,)), "frequency must be an integer >= 0"),
    (lambda b: so3_equiangular_grid(b, 2, 2), "grid counts must be an integer >= 1"),
    (lambda b: wigner_d(b, Rotation3.identity()), r"ell must be an integer in \[0, 32\]"),
], ids=["LayerConfig", "RadialProfileSet", "SO2RepSpec", "so3_equiangular_grid", "wigner_d"])
def test_integer_checks_reject_bools(call, message, flag):
    # True used to pass as 1: LayerConfig stored lmax True, a radial set
    # counted True profiles and SO2RepSpec((True,)) read frequency 1
    with pytest.raises(ValueError, match=f"^{message}, got {flag}$"):
        call(flag)


def test_wigner_degree_one_is_conjugated_rotation_matrix():
    # degree-one real harmonics are linear: (y, z, x) ordering
    perm = np.zeros((3, 3))
    perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = Rotation3.random(rng)
        assert np.abs(wigner_d(1, g) - perm @ g.matrix() @ perm.T).max() < 1e-12


def test_wigner_z_rotation_eigenvalues():
    theta = 0.4321
    eig = np.linalg.eigvals(wigner_d(1, Rotation3.about_z(theta)))
    expected = np.sort_complex(np.array([1.0, np.exp(1j * theta), np.exp(-1j * theta)]))
    assert np.abs(np.sort_complex(eig) - expected).max() < 1e-12


def test_wigner_degree_two_against_quadratic_form_oracle():
    # independent route: degree-two harmonics are quadratic forms, so the
    # matrix action is conjugation of their coefficient matrices
    basis = SphericalHarmonicBasis(2)
    rng = np.random.default_rng(5)
    pts = np.array([_random_unit(rng) for _ in range(60)])
    design = np.stack([np.outer(p, p).ravel() for p in pts])
    sl = SphericalHarmonicBasis.slice_of(2)
    targets = basis.evaluate(pts)[:, sl]
    forms, *_ = np.linalg.lstsq(design, targets, rcond=None)
    forms = [forms[:, i].reshape(3, 3) for i in range(5)]
    forms = [(f + f.T) / 2 for f in forms]
    flat = np.stack([f.ravel() for f in forms], axis=1)
    for _ in range(10):
        g = Rotation3.random(rng)
        r = g.matrix()
        conjugated = np.stack([(r.T @ f @ r).ravel() for f in forms], axis=1)
        oracle, *_ = np.linalg.lstsq(flat, conjugated, rcond=None)
        assert np.abs(wigner_d(2, g) - oracle.T).max() < 1e-10


def test_wigner_composition_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a, b = Rotation3.random(rng), Rotation3.random(rng)
        ab = a.compose(b)
        for ell in (1, 3, 8):
            err = np.abs(wigner_d(ell, ab) - wigner_d(ell, a) @ wigner_d(ell, b)).max()
            assert err < 1e-10


def test_wigner_orthogonality():
    rng = np.random.default_rng(7)
    for ell in range(9):
        g = Rotation3.random(rng)
        d = wigner_d(ell, g)
        assert np.abs(d @ d.T - np.eye(2 * ell + 1)).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(ell=st.integers(0, MAX_ELL), a=ROTATIONS, b=ROTATIONS,
       theta=st.floats(0.0, 2 * np.pi))
def test_wigner_orthogonal_homomorphism_at_every_degree(ell, a, b, theta):
    da, db = wigner_d(ell, a), wigner_d(ell, b)
    assert np.abs(da @ da.T - np.eye(2 * ell + 1)).max() <= 1e-13
    assert np.abs(wigner_d(ell, a.compose(b)) - da @ db).max() <= 1e-13
    assert np.abs(wigner_d(ell, Rotation3.about_z(theta)) - wigner_d_z(ell, theta)).max() <= 1e-13


@lru_cache(maxsize=None)
def _quadrature_harmonics(ell):
    pts, wts = sphere_quadrature(ell)
    sl = SphericalHarmonicBasis.slice_of(ell)
    return pts, wts * SphericalHarmonicBasis(ell).evaluate(pts)[:, sl].T


@settings(max_examples=15, deadline=None)
@given(ell=st.integers(0, MAX_ELL), rot=ROTATIONS)
def test_wigner_is_the_harmonic_action_at_every_degree(ell, rot):
    # Y_l(R n) = D_l(R) Y_l(n) for all n, read off by exact quadrature as
    # D_l(R) = sum_k w_k Y_l(R n_k) Y_l(n_k)^T. Integrating keeps the check at
    # 1e-13: pointwise, the harmonics alone lose digits near the poles at high
    # degree.
    pts, weighted = _quadrature_harmonics(ell)
    rotated = SphericalHarmonicBasis(ell).evaluate(rot.apply(pts))
    action = weighted @ rotated[:, SphericalHarmonicBasis.slice_of(ell)]
    assert np.abs(action.T - wigner_d(ell, rot)).max() <= 1e-13


def test_wigner_z_fast_path_matches_general():
    for ell in range(7):
        for theta in (0.0, 0.37, 2.2, 5.9):
            err = np.abs(wigner_d(ell, Rotation3.about_z(theta))
                         - wigner_d_z(ell, theta)).max()
            assert err < 1e-12


@pytest.mark.parametrize("ell", range(9))
def test_restrict_wigner_frequencies_and_blocks(ell):
    mult, q = restrict_wigner(ell)
    assert mult == {k: 1 for k in range(ell + 1)}
    assert sum(1 if k == 0 else 2 for k in mult) == 2 * ell + 1
    assert np.abs(q @ q.T - np.eye(2 * ell + 1)).max() == 0.0
    for theta in (0.3, 1.4, 4.0):
        blk = q.T @ wigner_d_z(ell, theta) @ q
        expected = np.zeros_like(blk)
        expected[0, 0] = 1.0
        for m in range(1, ell + 1):
            expected[2 * m - 1:2 * m + 1, 2 * m - 1:2 * m + 1] = so2_block(m, theta)
        assert np.abs(blk - expected).max() < 1e-10


def test_restrict_wigner_against_diagonalization_oracle():
    theta = 0.25 / 8.0  # small enough that frequencies up to 8 stay unwrapped
    for ell in range(9):
        eig = np.linalg.eigvals(wigner_d_z(ell, theta))
        freqs = sorted(int(round(f)) for f in np.angle(eig) / theta)
        assert freqs == list(range(-ell, ell + 1))


def test_sph_eval_normalization_and_pole():
    north = np.array([0.0, 0.0, 1.0])
    vals = SphericalHarmonicBasis(6).evaluate(north)
    assert np.isclose(vals[0], 1.0 / np.sqrt(4 * np.pi))
    for ell in range(7):
        sl = SphericalHarmonicBasis.slice_of(ell)
        block = vals[sl].copy()
        center = block[ell]
        block[ell] = 0.0
        assert np.abs(block).max() < 1e-13  # only the zonal entry survives
        assert abs(center - np.sqrt((2 * ell + 1) / (4 * np.pi))) < 1e-12


def _lpmv_harmonics(lmax, pts):
    # the associated-Legendre formula through scipy, with its Condon-Shortley
    # phase cancelled
    z, phi = np.clip(pts[:, 2], -1.0, 1.0), np.arctan2(pts[:, 1], pts[:, 0])
    out = np.empty((len(pts), (lmax + 1) ** 2))
    for ell in range(lmax + 1):
        for m in range(ell + 1):
            norm = math.sqrt((2 * ell + 1) / (4 * np.pi)
                             * math.factorial(ell - m) / math.factorial(ell + m))
            plm = norm * lpmv(m, ell, z)
            if m == 0:
                out[:, ell * ell + ell] = plm
            else:
                amp = (-1.0) ** m * math.sqrt(2.0) * plm
                out[:, ell * ell + ell + m] = amp * np.cos(m * phi)
                out[:, ell * ell + ell - m] = amp * np.sin(m * phi)
    return out


def test_recurrence_matches_lpmv_formula():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = SphericalHarmonicBasis(MAX_ELL).evaluate(pts)
    assert np.abs(got - _lpmv_harmonics(MAX_ELL, pts)).max() <= 1e-13


@pytest.mark.parametrize("theta", [1e-2, 1e-5, 1e-8, 1e-12, 0.0])
def test_addition_theorem_near_the_poles(theta):
    # sum_m Y_lm(n)^2 = (2l+1)/(4 pi) at every n; the forward recurrence's
    # rounding error grows like l^2 where z is close to +-1
    rng = np.random.default_rng(11)
    phi = rng.uniform(0.0, 2 * np.pi, size=40)
    sign = np.repeat([1.0, -1.0], 20)
    pts = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                    sign * np.cos(theta)], axis=1)
    y = SphericalHarmonicBasis(MAX_ELL).evaluate(pts)
    for ell in range(MAX_ELL + 1):
        total = (y[:, SphericalHarmonicBasis.slice_of(ell)] ** 2).sum(axis=1)
        expected = (2 * ell + 1) / (4 * np.pi)
        assert np.abs(total - expected).max() <= (ell + 1) ** 2 * np.finfo(float).eps * expected


@pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-12])
def test_degree_one_harmonics_keep_their_digits_near_the_poles(eps):
    # Y_1 = sqrt(3 / 4 pi) (y, z, x): linear, so exact to a few ulp even
    # where z rounds to 1 and sqrt(1 - z^2) would lose every digit of x and y
    phi = np.linspace(0.1, 6.0, 7)
    pts = np.stack([eps * np.cos(phi), eps * np.sin(phi),
                    np.full(7, np.sqrt(1.0 - eps * eps))], axis=1)
    pts = np.concatenate([pts, pts * [1.0, 1.0, -1.0]])
    got = SphericalHarmonicBasis(1).evaluate(pts)[:, 1:]
    expected = np.sqrt(3 / (4 * np.pi)) * pts[:, [1, 2, 0]]
    assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


def test_harmonic_equivariance():
    basis = SphericalHarmonicBasis(8)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(40):
        g = Rotation3.random(rng)
        n = _random_unit(rng)
        rotated = basis.evaluate(g.matrix() @ n)
        base = basis.evaluate(n)
        for ell in range(9):
            sl = SphericalHarmonicBasis.slice_of(ell)
            err = np.abs(rotated[sl] - wigner_d(ell, g) @ base[sl]).max()
            worst = max(worst, err)
    assert worst < 1e-10


def test_quadrature_gram_identity():
    pts, wts = sphere_quadrature(8)
    assert len(pts) == 2 * 9 * 9
    y = SphericalHarmonicBasis(8).evaluate(pts)
    gram = (y * wts[:, None]).T @ y
    assert np.abs(gram - np.eye(81)).max() < 1e-8
    assert abs(wts.sum() - 4 * np.pi) < 1e-12


def test_quadrature_matches_loop_bit_for_bit():
    for band in range(12):
        n_theta, n_phi = band + 1, 2 * (band + 1)
        x, wx = np.polynomial.legendre.leggauss(n_theta)
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        sin_theta = np.sqrt(1.0 - x ** 2)
        pts = np.empty((n_theta * n_phi, 3))
        wts = np.empty(n_theta * n_phi)
        k = 0
        for i in range(n_theta):
            for j in range(n_phi):
                pts[k] = (sin_theta[i] * np.cos(phi[j]), sin_theta[i] * np.sin(phi[j]), x[i])
                wts[k] = wx[i] * (2.0 * np.pi / n_phi)
                k += 1
        got_pts, got_wts = sphere_quadrature(band)
        assert got_pts.shape == pts.shape and got_wts.shape == wts.shape
        assert got_pts.tobytes() == pts.tobytes() and got_wts.tobytes() == wts.tobytes()


def test_band_limited_roundtrip():
    # synthesize a random band-limited function on the grid and re-project
    lmax = 6
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=(lmax + 1) ** 2)
    pts, wts = sphere_quadrature(lmax)
    y = SphericalHarmonicBasis(lmax).evaluate(pts)
    values = y @ coeffs
    recovered = (y * wts[:, None]).T @ values
    assert np.abs(recovered - coeffs).max() < 1e-8


AXES = st.one_of(st.integers(0, 3), st.sampled_from("ab"))


@st.composite
def _spec_and_shape(draw):
    """An array spec and a shape that fits it half of the time."""
    spec = tuple(draw(st.lists(AXES, max_size=4)))
    if draw(st.booleans()):
        return spec, tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    sizes = {name: draw(st.integers(1, 3)) for name in "ab"}
    return spec, tuple(sizes[a] if isinstance(a, str) else a for a in spec)


def _fits(spec, shape):
    if len(spec) != len(shape):
        return False
    named = {}
    for axis, n in zip(spec, shape):
        if isinstance(axis, str):
            if n == 0 or named.setdefault(axis, n) != n:
                return False
        elif n != axis:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(spec_shape=_spec_and_shape(), dtype=st.sampled_from([float, np.complex128]))
def test_check_array_accepts_exactly_the_spec_and_returns_a_frozen_copy(spec_shape, dtype):
    spec, shape = spec_shape
    value = np.arange(math.prod(shape), dtype=float).reshape(shape)
    original = value.copy()
    if not _fits(spec, shape):
        with pytest.raises(ValueError, match=r"x must have shape \(.*\), got "):
            _check_array("x", value, spec, dtype)
        return
    out = _check_array("x", value, spec, dtype)
    assert out.dtype == np.dtype(dtype) and out.shape == shape
    assert np.array_equal(out, original) and out.flags.c_contiguous
    assert not out.flags.writeable and not np.shares_memory(out, value)
    value[...] = -1.0  # the caller's array stays its own
    assert value.flags.writeable and np.array_equal(out, original)


def test_check_array_messages():
    with pytest.raises(ValueError, match=r"^x must have shape \(2,\), got \(3,\)$"):
        _check_array("x", np.zeros(3), (2,))
    with pytest.raises(ValueError, match=r"^x must have shape \(N, N\), got \(2, 3\)$"):
        _check_array("x", np.zeros((2, 3)), ("N", "N"))
    with pytest.raises(ValueError, match=r"^x must have shape \(N, 2\), got \(0, 2\)$"):
        _check_array("x", np.zeros((0, 2)), ("N", 2))
    with pytest.raises(ValueError, match="^x must be finite$"):
        _check_array("x", [np.nan, 1.0], ("N",))
    # a complex value is never cut to its real part, even with a zero imaginary part
    with pytest.raises(ValueError, match="^x must be real$"):
        _check_array("x", np.ones(2, dtype=complex), ("N",))
    assert _check_array("x", [1, 2], ("N",)).dtype == float
    assert _check_array("x", [1j], ("N",), np.complex128)[0] == 1j


def test_harmonics_reject_points_off_the_unit_sphere():
    # (0, 0, 2) used to read Y_10 at twice its unit value, and the zero vector Y_00 alone
    basis = SphericalHarmonicBasis(2)
    for bad in ([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0 + 1e-11]):
        with pytest.raises(ValueError, match="points must be unit vectors"):
            basis.evaluate(np.array(bad))
    with pytest.raises(ValueError, match="points must be unit vectors"):
        basis.evaluate(np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.0]]))


def test_library_sphere_points_sit_far_inside_the_unit_bound():
    # the bound is 2000 times the worst |p|^2 - 1 of the library's own points
    rng = np.random.default_rng(12)
    poles = np.array([Rotation3.random(rng).apply(np.array([0.0, 0.0, 1.0]))
                      for _ in range(500)])
    for pts in [sphere_quadrature(band)[0] for band in range(0, 4 * MAX_ELL + 1, 8)] + [poles]:
        assert np.abs(np.einsum("ni,ni->n", pts, pts) - 1.0).max() <= _UNIT_TOL / 2000
        assert np.isfinite(SphericalHarmonicBasis(2).evaluate(pts)).all()
