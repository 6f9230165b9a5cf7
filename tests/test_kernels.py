import tracemalloc
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planelift import kernels
from planelift.kernels import (
    NULL_TOL,
    RadialProfileSet,
    SO2RepSpec,
    analytic_basis_count,
    build_induction_kernel,
    build_r3s2_kernel,
    build_so3_kernel,
    build_volume_kernel,
    grid_nullspace_dimension,
    so2_tensor,
    so3_fiber_restriction,
    solve_so2_basis,
)
from planelift.layers import AnalyticField, LayerConfig, induction_forward
from planelift.so2_so3 import Rotation3, SphericalHarmonicBasis, wigner_d, wigner_d_z


def _rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _toward(nhat):
    """A rotation taking the north pole e_z to the unit vector ``nhat``."""
    x, y, z = nhat
    return Rotation3(np.arctan2(y, x), np.arccos(np.clip(z, -1.0, 1.0)), 0.0)


def _random_spec(rng, max_freq=4, max_irreps=2):
    return SO2RepSpec(tuple(int(k) for k in
                            rng.integers(0, max_freq + 1, size=rng.integers(1, max_irreps + 1))))


# ---------------------------------------------------------------------------
# rep specs and tensor structure

def test_spec_dimensions():
    spec = SO2RepSpec((0, 2, 0, 1))
    assert spec.dim == 1 + 2 + 1 + 2
    assert spec.multiplicities() == {0: 2, 1: 1, 2: 1}
    theta = 0.77
    m = spec.matrix(theta)
    assert np.abs(m @ m.T - np.eye(spec.dim)).max() < 1e-14


@settings(max_examples=30, deadline=None)
@given(freqs=st.lists(st.integers(0, 5), min_size=1, max_size=4),
       angles=st.lists(st.floats(-20.0, 20.0), min_size=0, max_size=6))
def test_spec_matrix_stacks_scalar_calls_exactly(freqs, angles):
    spec = SO2RepSpec(tuple(freqs))
    stacked = spec.matrix(np.array(angles))
    assert stacked.shape == (len(angles), spec.dim, spec.dim)
    for t, got in zip(angles, stacked):
        assert np.array_equal(got, spec.matrix(t))
        # the block-diagonal matrix built one irrep at a time
        want = np.zeros((spec.dim, spec.dim))
        for k, off in zip(spec.freqs, spec.offsets()):
            blk = np.array([[1.0]]) if k == 0 else np.array(
                [[np.cos(k * t), -np.sin(k * t)], [np.sin(k * t), np.cos(k * t)]])
            want[off:off + len(blk), off:off + len(blk)] = blk
        assert np.array_equal(got, want)


def test_spec_rejects_negative_frequency():
    with pytest.raises(ValueError):
        SO2RepSpec((-1,))


@pytest.mark.parametrize("freq", [1.5, 0.25, float("nan"), float("inf"), "a", None])
def test_spec_rejects_non_integer_frequency(freq):
    with pytest.raises(ValueError, match=f"frequency must be an integer >= 0, got {freq!r}"):
        SO2RepSpec((0, freq))


def test_tensor_change_of_basis():
    rng = np.random.default_rng(0)
    for _ in range(15):
        a, b = _random_spec(rng), _random_spec(rng)
        spec, t = so2_tensor(a, b)
        assert spec.dim == a.dim * b.dim
        assert np.abs(t @ t.T - np.eye(t.shape[0])).max() < 1e-14
        for theta in rng.uniform(0, 2 * np.pi, size=3):
            lhs = t.T @ np.kron(a.matrix(theta), b.matrix(theta)) @ t
            assert np.abs(lhs - spec.matrix(theta)).max() < 1e-12


def test_so3_fiber_restriction_content():
    spec, t = so3_fiber_restriction((0, 2))
    assert spec.freqs == (0, 0, 1, 2)
    for theta in (0.3, 2.5):
        big = np.zeros((6, 6))
        big[0, 0] = 1.0
        big[1:, 1:] = wigner_d_z(2, theta)
        assert np.abs(t.T @ big @ t - spec.matrix(theta)).max() < 1e-10


# ---------------------------------------------------------------------------
# radial profiles

def test_radial_profiles_shape_and_peaks():
    radial = RadialProfileSet(3, 0.6)
    r = np.linspace(0, 0.6, 7)
    vals = radial.evaluate(r)
    assert vals.shape == (3, 7)
    assert np.allclose(vals.max(axis=1), 1.0)


@pytest.mark.parametrize("radii, message", [
    (np.array([0.5 + 1j]), "must be real"),
    (np.array([0.5, 0.2 + 0j]), "must be real"),   # complex dtype even with zero imaginary part
    (np.full((2, 2), 0.5), r"must have shape \(N,\), got \(2, 2\)"),
    (0.5, r"must have shape \(N,\), got \(\)"),
    (np.zeros(0), r"must have shape \(N,\), got \(0,\)"),
    (np.array([0.1, np.nan]), "must be finite"),
    (np.array([np.inf]), "must be finite"),
])
def test_radial_profiles_reject_bad_radii(radii, message):
    with pytest.raises(ValueError, match="radii " + message):
        RadialProfileSet(2, 1.0).evaluate(radii)


def test_radial_profiles_read_negative_radii_as_the_mirror_image():
    radial = RadialProfileSet(3, 0.6)
    r = np.linspace(0.0, 1.0, 11)
    mirror = np.exp(-0.5 * ((r[None, :] + radial.centers[:, None]) / radial.width) ** 2)
    assert np.array_equal(radial.evaluate(-r), mirror)
    assert np.array_equal(radial.evaluate(list(r)), radial.evaluate(r))


def test_degenerate_radial_set_rejected():
    with pytest.raises(ValueError, match="rank-deficient radial basis"):
        RadialProfileSet(3, 1e-9, width=10.0)  # rings collapse onto each other


@pytest.mark.parametrize("r_max", [np.nan, np.inf, 0.0, -0.5])
def test_radial_set_rejects_bad_r_max(r_max):
    with pytest.raises(ValueError, match="r_max must be finite and positive"):
        RadialProfileSet(2, r_max)


@pytest.mark.parametrize("width", [np.nan, np.inf, 0.0])
def test_radial_set_rejects_bad_width(width):
    with pytest.raises(ValueError, match="width must be finite and positive"):
        RadialProfileSet(2, 0.5, width=width)


@pytest.mark.parametrize("count", [2.5, 0, -1, "2"])
def test_radial_set_rejects_bad_count(count):
    with pytest.raises(ValueError, match="radial count must be an integer >= 1"):
        RadialProfileSet(count, 0.45)


@pytest.mark.parametrize("name, bad", [(name, bad) for name in ("r_max", "width")
                                       for bad in (True, False, 0.5 + 0j, "0.5", [0.5])]
                         + [("r_max", None)])  # a width of None asks for the default
def test_radial_set_rejects_bools_complex_and_non_numbers(name, bad):
    # True used to pass as 1.0, and complex or string values raised TypeError
    args = {"r_max": 0.5, "width": 0.2, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite and positive, got "):
        RadialProfileSet(2, **args)


def test_radial_set_stores_plain_floats():
    radial = RadialProfileSet(2, 1, width=np.float32(0.25))
    assert type(radial.r_max) is float and type(radial.width) is float
    assert radial == RadialProfileSet(2, 1.0, 0.25)
    assert hash(radial) == hash(RadialProfileSet(2, 1.0, 0.25))
    assert type(RadialProfileSet(4, np.float64(1.0)).width) is float


@pytest.mark.parametrize("count", [1, 2, 5])
def test_radial_centers_are_built_once_read_only_and_keep_the_profiles(count):
    radial = RadialProfileSet(count, 0.6, width=0.2)
    assert radial.centers is radial.centers and not radial.centers.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        radial.centers[0] = 1.0
    # equality, hashing and the repr stay keyed on (count, r_max, width)
    assert radial == RadialProfileSet(count, 0.6, width=0.2)
    assert hash(radial) == hash(RadialProfileSet(count, 0.6, width=0.2))
    assert repr(radial) == f"RadialProfileSet(count={count}, r_max=0.6, width=0.2)"
    # the profiles as they were computed from centers rebuilt on every access
    r = np.linspace(0.0, 1.0, 41)
    centers = np.array([0.0]) if count == 1 else np.linspace(0.0, 0.6, count)
    want = np.exp(-0.5 * ((r[None, :] - centers[:, None]) / 0.2) ** 2)
    assert np.array_equal(radial.centers, centers)
    assert np.array_equal(radial.evaluate(r), want)


# ---------------------------------------------------------------------------
# the solver

def test_isotropic_scalar_kernel():
    basis = solve_so2_basis(SO2RepSpec((0,)), SO2RepSpec((0,)), RadialProfileSet(1, 1.0))
    assert basis.count == 1
    pts = np.random.default_rng(1).normal(size=(10, 2))
    vals = basis.evaluate_all(pts)[0]
    # isotropic: value depends only on the radius
    radii = np.hypot(pts[:, 0], pts[:, 1])
    ref = basis.evaluate_all(np.stack([radii, np.zeros_like(radii)], axis=1))[0]
    assert np.abs(vals - ref).max() < 1e-12


@pytest.mark.parametrize("m_max", [-1, 2.5, "3", None])
def test_solver_and_count_reject_a_bad_cutoff(m_max):
    # the solver takes no cutoff; at m_max = -1 the count used to find one
    # solution where the truncated solver found none
    scalar = SO2RepSpec((0,))
    with pytest.raises(ValueError, match="m_max must be an integer >= 0"):
        analytic_basis_count(scalar, scalar, m_max)


def test_scalar_to_vector_count():
    basis = solve_so2_basis(SO2RepSpec((0,)), SO2RepSpec((1,)), RadialProfileSet(1, 1.0))
    assert basis.count == 2


def test_steerability_residual_sampled():
    rng = np.random.default_rng(2)
    rin, rout = SO2RepSpec((0, 1)), SO2RepSpec((1, 2))
    basis = solve_so2_basis(rin, rout, RadialProfileSet(2, 1.0))
    assert basis.count == 2 * analytic_basis_count(rin, rout, 4)
    pts = rng.normal(size=(25, 2))
    thetas = rng.uniform(0, 2 * np.pi, size=8)
    base = basis.evaluate_all(pts)
    for theta in thetas:
        lhs = basis.evaluate_all(pts @ _rot2(theta).T)
        rhs = np.einsum("ou,bnuv,wv->bnow", rout.matrix(theta), base, rin.matrix(theta))
        for idx in range(basis.count):
            assert np.abs(lhs[idx] - rhs[idx]).max() < 1e-8


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(3)
    radial = RadialProfileSet(1, 1.0)
    for _ in range(10):
        rin, rout = _random_spec(rng), _random_spec(rng)
        got = solve_so2_basis(rin, rout, radial).n_angular
        assert got == grid_nullspace_dimension(rin, rout)
        assert got == analytic_basis_count(rin, rout, rin.max_freq + rout.max_freq)


SPECS = st.lists(st.integers(0, 4), min_size=1, max_size=2).map(lambda ks: SO2RepSpec(tuple(ks)))
COUNT_SPECS = st.lists(st.integers(0, 16), min_size=1, max_size=3).map(
    lambda ks: SO2RepSpec(tuple(ks)))


def _assert_counts_match_formula_at_every_cutoff(basis):
    """The solutions of frequency <= m number ``analytic_basis_count`` at
    every m of the basis's band, and at its ``m_max`` they are all of them."""
    assert basis.m_max == basis.in_rep.max_freq + basis.out_rep.max_freq
    for m in range(basis.m_max + 1):
        kept = sum(sol.m <= m for sol in basis.angular)
        assert kept == analytic_basis_count(basis.in_rep, basis.out_rep, m), m
    assert kept == basis.n_angular


@settings(max_examples=30, deadline=None)
@given(rin=COUNT_SPECS, rout=COUNT_SPECS)
# a spec with no frequencies admits nothing: the oracle used to raise on its empty system
@example(rin=SO2RepSpec(()), rout=SO2RepSpec((0, 3)))
@example(rin=SO2RepSpec((2,)), rout=SO2RepSpec(()))
@example(rin=SO2RepSpec(()), rout=SO2RepSpec(()))
def test_solver_count_matches_formula_and_grid_oracle(rin, rout):
    basis = solve_so2_basis(rin, rout, RadialProfileSet(1, 1.0))
    _assert_counts_match_formula_at_every_cutoff(basis)
    assert basis.n_angular == grid_nullspace_dimension(rin, rout)


def test_solver_over_counts_at_rational_turns(monkeypatch):
    # a quarter and a half turn satisfy exp(i j theta) = 1 for every j divisible
    # by 4, so frequencies that differ by 4 pass as solutions: 43 against 15
    rin, rout = SO2RepSpec((0, 1, 3)), SO2RepSpec((0, 2))
    monkeypatch.setattr(kernels, "_SOLVE_ANGLES", (np.pi / 2, np.pi))
    got = solve_so2_basis(rin, rout, RadialProfileSet(1, 1.0)).n_angular
    assert got == 43 and analytic_basis_count(rin, rout, 5) == 15


def _full_svd_null_space(in_rep, out_rep, m_max):
    """Dense reference for the solve: per frequency, the SVD of the whole
    system stacked angle by angle over a circle of enough angles that no
    exponent aliases. Returns ``{m: (count, projector)}``."""
    dd = out_rep.dim * in_rep.dim
    eye = np.eye(dd)
    n = max(4 * (m_max + 1), 2 * (m_max + in_rep.max_freq + out_rep.max_freq) + 3)
    out = {}
    for m in range(m_max + 1):
        rows = []
        for t in np.arange(n) * (2.0 * np.pi / n):
            conj = np.kron(out_rep.matrix(t), in_rep.matrix(t))
            c, s = np.cos(m * t), np.sin(m * t)
            if m == 0:
                rows.append(eye - conj)
            else:
                top = np.hstack([c * eye - conj, s * eye])
                bot = np.hstack([-s * eye, c * eye - conj])
                rows.append(np.vstack([top, bot]))
        _, svals, vt = np.linalg.svd(np.vstack(rows), full_matrices=False)
        smax = max(svals[0], 1.0) if len(svals) else 1.0
        null = vt[np.sum(svals > NULL_TOL * smax):]
        out[m] = (len(null), null.T @ null)
    return out


def _per_angle_kron_solve(in_rep, out_rep, m_max):
    """The solver with its conjugations built one ``np.kron`` per angle:
    ``(m, cos block, sin block)`` per solution. Adding 0.0 turns kron's
    negative zeros positive, as the einsum's sum from zero does; the SVD
    reads a zero's sign, so it would pick another basis of a degenerate
    null space."""
    dd = out_rep.dim * in_rep.dim
    thetas = np.array(kernels._SOLVE_ANGLES)
    conjugations = np.stack([np.kron(out_rep.matrix(t), in_rep.matrix(t)) + 0.0
                             for t in thetas])
    eye, out = np.eye(dd), []
    for m in range(m_max + 1):
        rows = np.cos(m * thetas)[:, None, None] * eye - conjugations
        if m:
            off = np.sin(m * thetas)[:, None, None] * eye
            rows = np.block([[rows, off], [-off, rows]])
        _, svals, vt = np.linalg.svd(np.concatenate(rows), full_matrices=False)
        smax = max(svals[0], 1.0) if len(svals) else 1.0
        for vec in vt[np.sum(svals > NULL_TOL * smax):]:
            out.append((m, vec[:dd], vec[dd:] if m else np.zeros(dd)))
    return out


@settings(max_examples=40, deadline=None)
@given(rin=SPECS, rout=SPECS)
def test_broadcast_conjugations_solve_bit_identically(rin, rout):
    basis = solve_so2_basis(rin, rout, RadialProfileSet(1, 1.0))
    _assert_counts_match_formula_at_every_cutoff(basis)
    want = _per_angle_kron_solve(rin, rout, basis.m_max)
    assert len(basis.angular) == len(want)
    for sol, (m, cos, sin) in zip(basis.angular, want):
        assert sol.m == m
        assert np.array_equal(sol.cos_coeff.ravel(), cos)
        assert np.array_equal(sol.sin_coeff.ravel(), sin)


def _assert_solve_matches_full_svd(basis):
    """Same solution count per m, and null-space projectors within 1e-12."""
    for m, (count, projector) in _full_svd_null_space(basis.in_rep, basis.out_rep,
                                                      basis.m_max).items():
        sols = [s for s in basis.angular if s.m == m]
        assert len(sols) == count, m
        vecs = np.array([np.concatenate([s.cos_coeff.ravel(), s.sin_coeff.ravel()]) if m
                         else s.cos_coeff.ravel() for s in sols]).reshape(count, len(projector))
        assert np.abs(vecs.T @ vecs - projector).max(initial=0.0) <= 1e-12, m


@settings(max_examples=40, deadline=None)
@given(rin=SPECS, rout=SPECS)
def test_reduced_solve_matches_full_svd(rin, rout):
    basis = solve_so2_basis(rin, rout, RadialProfileSet(1, 1.0))
    _assert_counts_match_formula_at_every_cutoff(basis)
    _assert_solve_matches_full_svd(basis)


_SCALAR, _VECTOR = SO2RepSpec((0,)), SO2RepSpec((0, 1))


@pytest.mark.parametrize("build", [
    lambda r: build_induction_kernel(_SCALAR, 1, 10, r),
    lambda r: build_induction_kernel(SO2RepSpec((0, 1, 2)), 1, 6, r),
    lambda r: build_so3_kernel(_VECTOR, (0, 1), 3, r),
    lambda r: build_volume_kernel(_VECTOR, (0, 1), (-0.2, 0.3), r),
    lambda r: build_r3s2_kernel(_SCALAR, 6, (-0.2, 0.3), r),
], ids=["sphere-lmax10", "sphere-fiber012-lmax6", "so3-lmax3", "volume", "r3s2-lmax6"])
def test_reduced_solve_matches_full_svd_on_every_bench_degree(build):
    # the five kernels one pass of the benchmark's kernel_solve workload builds
    for basis in build(RadialProfileSet(2, 0.45, 0.09)).bases:
        _assert_solve_matches_full_svd(basis)


@pytest.mark.parametrize("k_in, k_out", [(32, 0), (20, 13), (16, 16), (32, 32)])
def test_grid_oracle_counts_pairs_past_a_64_angle_grid(k_in, k_out):
    # 64 angles alias frequencies from 32 on: 32 -> 0 read 0, 20 -> 13 and 16 -> 16 read 2
    rin, rout = SO2RepSpec((k_in,)), SO2RepSpec((k_out,))
    assert grid_nullspace_dimension(rin, rout) == analytic_basis_count(rin, rout, k_in + k_out)


def _dense_grid_nullspace_dimension(in_rep, out_rep):
    """The grid oracle as one dense real system over all grid values, on the
    smallest even grid of at least 64 angles whose Nyquist frequency exceeds
    the pair's summed top frequency."""
    dd = out_rep.dim * in_rep.dim
    n_grid = max(64, 2 * (in_rep.max_freq + out_rep.max_freq) + 2)
    freqs = np.fft.fftfreq(n_grid, d=1.0 / n_grid)
    dft = np.fft.fft(np.eye(n_grid), axis=0)
    idft = np.conj(dft).T / n_grid
    rows = []
    for theta in (2.0 * np.pi * 0.6180339887498949, 2.0 * np.pi * 0.41421356237309515):
        shift = (idft @ np.diag(np.exp(1j * freqs * theta)) @ dft).real
        conj = np.kron(out_rep.matrix(theta), in_rep.matrix(theta))
        rows.append(np.kron(shift, np.eye(dd)) - np.kron(np.eye(n_grid), conj))
    system = np.vstack(rows)
    svals = np.linalg.svd(system, compute_uv=False)
    smax = max(svals[0], 1.0)
    return int(np.sum(svals <= NULL_TOL * smax)) + system.shape[1] - len(svals)


# frequencies past 32 need a grid of more than 64 angles, which both forms must size alike
WIDE_SPECS = st.lists(st.integers(0, 36), min_size=1, max_size=2).map(
    lambda ks: SO2RepSpec(tuple(ks)))


@settings(max_examples=30, deadline=None)
@given(rin=WIDE_SPECS, rout=WIDE_SPECS.filter(lambda spec: len(spec.freqs) == 1))
@example(rin=SO2RepSpec((16,)), rout=SO2RepSpec((16,)))
@example(rin=SO2RepSpec((0, 32)), rout=SO2RepSpec((32,)))
def test_grid_oracle_per_frequency_matches_dense_system(rin, rout):
    assert grid_nullspace_dimension(rin, rout) == _dense_grid_nullspace_dimension(rin, rout)


def test_grid_oracle_count_is_insensitive_to_its_threshold(monkeypatch):
    # null singular values stay below 1.5e-14 and all others above 0.48, so any
    # threshold between 1e-13 and 1e-3 gives every single-irrep pair one count
    pairs = [(SO2RepSpec((ki,)), SO2RepSpec((ko,))) for ki in range(37) for ko in range(37)]
    counts = {}
    for tol in (1e-13, 1e-3):
        monkeypatch.setattr(kernels, "NULL_TOL", tol)
        counts[tol] = [grid_nullspace_dimension(rin, rout) for rin, rout in pairs]
    assert counts[1e-13] == counts[1e-3]


@pytest.mark.parametrize("build", [
    lambda r: build_so3_kernel(SO2RepSpec((0, 1)), (0, 1), 3, r),
    lambda r: build_induction_kernel(SO2RepSpec((0, 1, 2)), 1, 6, r),
], ids=["so3-fiber01-out01-lmax3", "sphere-fiber012-lmax6"])
def test_grid_oracle_counts_every_degree_of_library_kernels(build):
    kernel = build(RadialProfileSet(1, 0.5))
    for basis in kernel.bases:
        assert basis.n_angular == grid_nullspace_dimension(basis.in_rep, basis.out_rep)


def test_solutions_keep_only_their_null_block():
    # each coefficient array may view the null rows of its frequency, never
    # the SVD's whole (2dd x 2dd) right factor
    rin, rout = SO2RepSpec((0, 1, 2)), SO2RepSpec((0, 1, 2))
    basis = solve_so2_basis(rin, rout, RadialProfileSet(1, 1.0))
    width = 2 * rin.dim * rout.dim
    for sol in basis.angular:
        null_rows = sum(other.m == sol.m for other in basis.angular)
        for arr in (sol.cos_coeff, sol.sin_coeff):
            owner = arr if arr.base is None else arr.base
            assert owner.size <= null_rows * width


def test_evaluated_basis_keeps_one_copy_of_its_solutions():
    # the stacked (cos, sin) blocks are built per call; a basis that cached
    # them would keep A * 2 * d_out * d_in * 8 bytes past the call
    fiber, radial, pts = SO2RepSpec((0, 1, 2)), RadialProfileSet(1, 1.0), np.full((4, 2), 0.25)
    # a first call may fill numpy's own caches; make it on another basis
    solve_so2_basis(fiber, fiber, radial).evaluate_all(pts)
    basis = solve_so2_basis(fiber, fiber, radial)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        basis.evaluate_all(pts)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stacked = basis.n_angular * 2 * fiber.dim ** 2 * 8  # 10 KB
    assert kept < 1024 < stacked, kept


def _per_element_reference(basis, pts):
    """Element ``idx`` evaluated on its own: profile ``idx // n_angular``
    times ``(r / max(center, width))^m`` (m > 0 only) times the angular
    solution ``idx % n_angular``; stacked in element order."""
    radii = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    out = np.zeros((basis.count, len(pts), basis.out_rep.dim, basis.in_rep.dim))
    for idx in range(basis.count):
        p, a = divmod(idx, basis.n_angular)
        sol = basis.angular[a]
        prof = basis.radial.evaluate(radii)[p]
        if sol.m > 0:
            scale = max(float(basis.radial.centers[p]), basis.radial.width)
            prof = prof * (radii / scale) ** sol.m
        ang = np.cos(sol.m * phi)[:, None, None] * sol.cos_coeff[None]
        if sol.m > 0:
            ang = ang + np.sin(sol.m * phi)[:, None, None] * sol.sin_coeff[None]
        out[idx] = prof[:, None, None] * ang
    return out


COORDS = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(rin=SPECS, rout=SPECS, profiles=st.integers(1, 3), r_max=st.floats(0.3, 2.0),
       points=st.lists(st.tuples(COORDS, COORDS), max_size=8), data=st.data())
def test_evaluate_all_matches_per_element_formula(rin, rout, profiles, r_max, points, data):
    full = solve_so2_basis(rin, rout, RadialProfileSet(profiles, r_max))
    _assert_counts_match_formula_at_every_cutoff(full)
    # a truncated basis, which may have no solution at all, filters the full one
    m = data.draw(st.integers(0, full.m_max), label="m")
    basis = replace(full, angular=tuple(sol for sol in full.angular if sol.m <= m))
    pts = np.array([(0.0, 0.0)] + points)  # the origin, where r^m matters most
    got = basis.evaluate_all(pts)
    assert got.shape == (basis.count, len(pts), rout.dim, rin.dim)
    assert np.array_equal(got, _per_element_reference(basis, pts))


def test_empty_basis_evaluates_to_no_elements():
    # frequency 2 against a scalar output needs m = 2; keeping every degree's
    # solutions of frequency <= 1 leaves degree 0 with no solution at all,
    # degree 1 with two
    solved = build_induction_kernel(SO2RepSpec((2,)), 1, 1, RadialProfileSet(1, 0.45))
    kernel = replace(solved, bases=tuple(
        replace(b, angular=tuple(sol for sol in b.angular if sol.m <= 1)) for b in solved.bases))
    assert [b.count for b in kernel.bases] == [0, 2]
    pts = np.random.default_rng(12).normal(size=(5, 2)) * 0.3
    empty = kernel.bases[0]
    assert empty.evaluate_all(pts).shape == (0, 5, 1, empty.in_rep.dim)
    w = np.ones((1, kernel.weight_count))
    blocks = kernel.coefficient_blocks(w, pts)
    assert blocks[0].shape == (1, 5, 1, 2) and not blocks[0].any()
    assert blocks[1].shape == (1, 5, 3, 2) and blocks[1].any()
    field = AnalyticField.random_band_limited(SO2RepSpec((2,)), np.random.default_rng(13),
                                              m_band=2).sample(16, 0.05)
    coeffs = induction_forward(field, kernel, w).coeffs
    assert coeffs[0, 0] == 0.0 and np.abs(coeffs[0, 1:]).max() > 0.0


def test_basis_elements_linearly_independent():
    rng = np.random.default_rng(4)
    basis = solve_so2_basis(SO2RepSpec((0, 1)), SO2RepSpec((0, 1)), RadialProfileSet(2, 1.0))
    pts = rng.normal(size=(80, 2))
    flat = basis.evaluate_all(pts).reshape(basis.count, -1)
    assert np.linalg.matrix_rank(flat, tol=1e-8) == basis.count


def test_projection_splits_constraint_violation():
    # projecting onto the solved subspace removes the violation; what is
    # left violates exactly as much as the original did
    rng = np.random.default_rng(5)
    rin, rout = SO2RepSpec((0, 1)), SO2RepSpec((1,))
    radial = RadialProfileSet(2, 1.0)
    basis = solve_so2_basis(rin, rout, radial)
    pts = rng.normal(size=(120, 2))
    sample = basis.evaluate_all(pts).reshape(basis.count, -1)

    def violation(fn):
        worst = 0.0
        for theta in (0.7, 2.1, 4.4):
            lhs = fn(pts @ _rot2(theta).T)
            rhs = np.einsum("ou,nuv,wv->now", rout.matrix(theta), fn(pts),
                            rin.matrix(theta))
            worst = max(worst, np.abs(lhs - rhs).max())
        return worst

    # a random smooth kernel-shaped function with the same radial content
    coeff = rng.normal(size=(2, 4, 2, rout.dim, rin.dim))

    def random_fn(p):
        radii = np.hypot(p[:, 0], p[:, 1])
        phi = np.arctan2(p[:, 1], p[:, 0])
        prof = radial.evaluate(radii)
        out = np.zeros((p.shape[0], rout.dim, rin.dim))
        for pi in range(2):
            for m in range(4):
                ang = np.cos(m * phi)[:, None, None] * coeff[pi, m, 0] \
                    + np.sin(m * phi)[:, None, None] * coeff[pi, m, 1]
                out += prof[pi][:, None, None] * ang
        return out

    target = random_fn(pts).reshape(-1)
    sol, *_ = np.linalg.lstsq(sample.T, target, rcond=None)
    projected = np.einsum("b,bnuv->nuv", sol, basis.evaluate_all(pts))

    def projected_fn(p):
        return np.einsum("b,bnuv->nuv", sol, basis.evaluate_all(p))

    def residual_fn(p):
        return random_fn(p) - projected_fn(p)

    assert violation(projected_fn) < 1e-8
    assert abs(violation(random_fn) - violation(residual_fn)) < 1e-6


# ---------------------------------------------------------------------------
# lifted kernel families

def test_induction_kernel_degree_zero_is_isotropic():
    kernel = build_induction_kernel(SO2RepSpec((0,)), 1, 0, RadialProfileSet(2, 0.5))
    assert kernel.weight_count == 2
    rng = np.random.default_rng(6)
    w = rng.normal(size=(1, 2))
    pts = rng.normal(size=(10, 2)) * 0.3
    n1 = _toward(np.array([0.0, 0.0, 1.0]))
    n2 = _toward(np.array([0.0, 1.0, 0.0]))
    assert np.abs(kernel.kappa(w, n1, pts) - kernel.kappa(w, n2, pts)).max() < 1e-12


def test_induction_kernel_input_structure():
    fiber = SO2RepSpec((0, 1))
    kernel = build_induction_kernel(fiber, 1, 6, RadialProfileSet(1, 0.5))
    for ell, basis in enumerate(kernel.bases):
        mults = basis.in_rep.multiplicities()
        # tensor rule: one copy of each harmonic frequency per scalar fiber
        # slot, shifted copies for the frequency-one slot
        expected: dict[int, int] = {}
        for k in range(ell + 1):
            for f in fiber.freqs:
                if k == 0 and f == 0:
                    expected[0] = expected.get(0, 0) + 1
                elif k == 0 or f == 0:
                    kk = max(k, f)
                    expected[kk] = expected.get(kk, 0) + 1
                else:
                    expected[k + f] = expected.get(k + f, 0) + 1
                    if k == f:
                        expected[0] = expected.get(0, 0) + 2
                    else:
                        expected[abs(k - f)] = expected.get(abs(k - f), 0) + 1
        assert mults == expected


def test_induction_kernel_equivariance():
    fiber = SO2RepSpec((0, 1))
    kernel = build_induction_kernel(fiber, 2, 3, RadialProfileSet(2, 0.5, width=0.12))
    rng = np.random.default_rng(7)
    w = rng.normal(size=(2, kernel.weight_count))
    pts = rng.normal(size=(12, 2)) * 0.4
    nhat = np.array([0.3, -0.5, 0.81])
    g = _toward(nhat / np.linalg.norm(nhat))
    for theta in rng.uniform(0, 2 * np.pi, size=6):
        hz = Rotation3.about_z(theta)
        lhs = kernel.kappa(w, hz.compose(g), pts @ _rot2(theta).T)
        rhs = np.einsum("ncv,wv->ncw", kernel.kappa(w, g, pts), fiber.matrix(theta))
        assert np.abs(lhs - rhs).max() < 1e-8


def test_induction_kernel_linear_in_weights():
    kernel = build_induction_kernel(SO2RepSpec((0,)), 1, 2, RadialProfileSet(2, 0.5))
    rng = np.random.default_rng(8)
    w1 = rng.normal(size=(1, kernel.weight_count))
    w2 = rng.normal(size=(1, kernel.weight_count))
    pts = rng.normal(size=(9, 2)) * 0.4
    g = _toward(np.array([0.0, 0.6, 0.8]))
    combined = kernel.kappa(w1 + w2, g, pts)
    split = kernel.kappa(w1, g, pts) + kernel.kappa(w2, g, pts)
    assert np.abs(combined - split).max() < 1e-12


def test_so3_kernel_degree_zero_matches_sphere_family():
    fiber = SO2RepSpec((0, 1))
    radial = RadialProfileSet(2, 0.5)
    sphere = build_induction_kernel(fiber, 1, 0, radial)
    so3 = build_so3_kernel(fiber, (0,), 0, radial)
    assert so3.bases[0].count == sphere.bases[0].count


def test_per_degree_basis_dimensions_match_oracle():
    radial = RadialProfileSet(1, 0.5)
    sphere = build_induction_kernel(SO2RepSpec((0, 1)), 1, 2, radial)
    so3 = build_so3_kernel(SO2RepSpec((0,)), (1,), 2, radial)
    for kernel in (sphere, so3):
        for basis in kernel.bases:
            assert basis.n_angular == grid_nullspace_dimension(basis.in_rep, basis.out_rep)


_OUT_SCALAR = SO2RepSpec((0,))


@pytest.mark.parametrize("build, fiber, out_spec, lmax", [
    (lambda r: build_induction_kernel(SO2RepSpec((0, 1, 2)), 1, 2, r),
     SO2RepSpec((0, 1, 2)), _OUT_SCALAR, 2),
    (lambda r: build_so3_kernel(SO2RepSpec((0, 1)), (1,), 1, r),
     SO2RepSpec((0, 1)), SO2RepSpec((0, 1)), 1),
    (lambda r: build_volume_kernel(SO2RepSpec((0, 1, 2)), (0, 1), (0.0,), r),
     SO2RepSpec((0, 1, 2)), SO2RepSpec((0, 0, 1)), 0),
], ids=["sphere", "so3", "volume"])
def test_kernel_cutoff_is_derived_and_tight(build, fiber, out_spec, lmax):
    # an irrep pair needs frequencies up to the sum of its frequencies, so
    # degree l, whose input holds frequencies up to l + fiber.max_freq, is
    # solved up to exactly that sum with out_spec.max_freq, and nothing is lost
    kernel = build(RadialProfileSet(1, 0.5))
    for ell, basis in enumerate(kernel.bases):
        assert basis.out_rep == out_spec
        assert basis.m_max == ell + fiber.max_freq + out_spec.max_freq
        assert max(sol.m for sol in basis.angular) == basis.m_max
        assert basis.n_angular == grid_nullspace_dimension(basis.in_rep, basis.out_rep)
    assert kernel.bases[-1].m_max == lmax + fiber.max_freq + out_spec.max_freq


@pytest.mark.parametrize("build, svds", [
    (lambda: build_induction_kernel(_OUT_SCALAR, 1, 10, RadialProfileSet(2, 0.45)), 66),
    (lambda: LayerConfig().build_kernel(), 28),
    (lambda: build_induction_kernel(SO2RepSpec((0, 1, 2)), 1, 6, RadialProfileSet(2, 0.45)), None),
    (lambda: build_so3_kernel(_VECTOR, (0, 1), 3, RadialProfileSet(1, 0.5)), None),
    (lambda: build_volume_kernel(_VECTOR, (0, 1), (-0.2, 0.3), RadialProfileSet(1, 0.5)), None),
], ids=["sphere-lmax10", "layer-config", "sphere-fiber012-lmax6", "so3-lmax3", "volume"])
def test_each_degree_runs_one_svd_per_frequency_it_admits(build, svds, monkeypatch):
    # degree l solves m = 0..l + fiber + out, not the top degree's band: the
    # lmax-10 scalar kernel ran 121 SVDs and LayerConfig's 49 when every
    # degree took the top degree's cutoff
    build()  # fill the cached changes of basis, so only the solves are counted
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    kernel = build()
    assert len(calls) == sum(basis.m_max + 1 for basis in kernel.bases)
    assert svds is None or len(calls) == svds


def test_so3_kernel_equivariance():
    fiber = SO2RepSpec((0,))
    kernel = build_so3_kernel(fiber, (0, 1), 2, RadialProfileSet(1, 0.5, width=0.15))
    rng = np.random.default_rng(9)
    w = rng.normal(size=kernel.weight_count)
    pts = rng.normal(size=(10, 2)) * 0.4
    g = Rotation3.random(rng)
    for theta in rng.uniform(0, 2 * np.pi, size=5):
        hz = Rotation3.about_z(theta)
        out_rot = np.zeros((kernel.out_dim, kernel.out_dim))
        pos = 0
        for ell in kernel.out_ells:
            d = 2 * ell + 1
            out_rot[pos:pos + d, pos:pos + d] = wigner_d(ell, hz)
            pos += d
        lhs = kernel.kappa(w, hz.compose(g), pts @ _rot2(theta).T)
        rhs = np.einsum("ou,nuv,wv->now", out_rot, kernel.kappa(w, g, pts),
                        fiber.matrix(theta))
        assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("extra", [-1, 1])
def test_so3_split_weights_checks_length_first(extra):
    kernel = build_so3_kernel(SO2RepSpec((0,)), (0,), 1, RadialProfileSet(1, 0.5))
    n = kernel.weight_count
    pts = np.zeros((1, 2))
    assert kernel.kappa(np.zeros(n), Rotation3.identity(), pts).shape == (1, 1, 1)
    with pytest.raises(ValueError, match=rf"shape \({n},\), got \({n + extra},\)"):
        kernel.kappa(np.zeros(n + extra), Rotation3.identity(), pts)


def test_volume_kernel_heights_share_one_solve():
    fiber = SO2RepSpec((0, 1))
    kernel = build_volume_kernel(fiber, (1,), (-0.5, 0.0, 0.5),
                                 RadialProfileSet(2, 0.5))
    # the constraint does not involve the height: one degree-0 solve serves
    # every height
    assert kernel.lmax == 0 and len(kernel.bases) == 1
    rng = np.random.default_rng(10)
    w = rng.normal(size=kernel.bases[0].count)
    pts = rng.normal(size=(14, 2)) * 0.4
    g = Rotation3.random(rng)  # D_0 = 1: the volume kernel ignores the rotation
    base = kernel.kappa(w, g, pts)
    assert np.array_equal(base, kernel.kappa(w, Rotation3.identity(), pts))
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        lhs = kernel.kappa(w, g, pts @ _rot2(theta).T)
        out_rot = wigner_d_z(1, theta)
        rhs = np.einsum("ou,nuv,wv->now", out_rot, base, fiber.matrix(theta))
        assert np.abs(lhs - rhs).max() < 1e-8


def test_volume_kernel_isotropic_single_slice():
    kernel = build_volume_kernel(SO2RepSpec((0,)), (0,), (0.0,), RadialProfileSet(1, 0.5))
    assert kernel.bases[0].count == 1
    assert kernel.bases[0].angular[0].m == 0


def test_r3s2_kernel_consistency():
    fiber = SO2RepSpec((0,))
    radial = RadialProfileSet(2, 0.5, width=0.12)
    single = build_r3s2_kernel(fiber, 2, (0.0,), radial)
    sphere = build_induction_kernel(fiber, 1, 2, radial)
    assert single.weight_count == sphere.weight_count
    multi = build_r3s2_kernel(fiber, 2, (-1.0, 0.0, 1.0), radial)
    assert len(multi.bases) == 3  # one solve per degree, shared by every height

    rng = np.random.default_rng(11)
    w = rng.normal(size=(1, single.weight_count))
    pts = rng.normal(size=(10, 2)) * 0.4
    g = _toward(np.array([0.6, 0.0, 0.8]))
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        hz = Rotation3.about_z(theta)
        lhs = multi.kappa(w, hz.compose(g), pts @ _rot2(theta).T)
        rhs = multi.kappa(w, g, pts)  # trivial in/out fibers
        assert np.abs(lhs - rhs).max() < 1e-8


def test_empty_height_samples_rejected():
    with pytest.raises(ValueError):
        build_volume_kernel(SO2RepSpec((0,)), (0,), (), RadialProfileSet(1, 0.5))
    with pytest.raises(ValueError):
        build_r3s2_kernel(SO2RepSpec((0,)), 1, (), RadialProfileSet(1, 0.5))


_SCALAR, _EMPTY, _RADIAL = SO2RepSpec((0,)), SO2RepSpec(()), RadialProfileSet(1, 0.5)


@pytest.mark.parametrize("build", [
    lambda: build_induction_kernel(_SCALAR, 1, -1, _RADIAL),
    lambda: build_induction_kernel(_SCALAR, 0, 2, _RADIAL),
    lambda: build_induction_kernel(_EMPTY, 1, 2, _RADIAL),
    lambda: build_r3s2_kernel(_SCALAR, -1, (0.0,), _RADIAL),
    lambda: build_so3_kernel(_SCALAR, (0,), -1, _RADIAL),
    lambda: build_so3_kernel(_EMPTY, (0,), 1, _RADIAL),
    lambda: build_so3_kernel(_SCALAR, (), 1, _RADIAL),
    lambda: build_volume_kernel(_SCALAR, (), (0.0,), _RADIAL),
    lambda: build_volume_kernel(_EMPTY, (0,), (0.0,), _RADIAL),
    lambda: build_volume_kernel(_SCALAR, (0,), (float("nan"),), _RADIAL),
    lambda: build_volume_kernel(_SCALAR, (0,), ("a",), _RADIAL),
    lambda: build_r3s2_kernel(_SCALAR, 1, (float("inf"),), _RADIAL),
    lambda: build_induction_kernel(_SCALAR, 1.5, 1, _RADIAL),
    lambda: build_induction_kernel(_SCALAR, 1, 1.5, _RADIAL),
    lambda: LayerConfig(lmax=-1),
    lambda: LayerConfig(channels=0),
    lambda: LayerConfig(fiber_freqs=()),
], ids=["lmax", "channels", "empty-fiber", "r3s2-lmax", "so3-lmax", "so3-empty-fiber",
        "so3-no-out-degrees", "volume-no-out-degrees", "volume-empty-fiber", "volume-nan-height",
        "volume-text-height", "r3s2-inf-height", "fractional-channels", "fractional-lmax",
        "config-lmax", "config-channels", "config-empty-fiber"])
def test_degenerate_layer_shapes_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_non_integer_output_degree_names_the_parameter():
    with pytest.raises(ValueError, match=r"ell must be an integer in \[0, 32\], got 1.5"):
        build_so3_kernel(_SCALAR, (1.5,), 1, _RADIAL)


def test_kappa_rejects_misshapen_or_non_finite_weights():
    pts = np.zeros((1, 2))
    volume = build_volume_kernel(_SCALAR, (0,), (0.0,), _RADIAL)
    assert volume.weight_count == 1
    with pytest.raises(ValueError, match=r"shape \(1,\), got \(7,\)"):
        volume.kappa(np.ones(7), Rotation3.identity(), pts)
    sphere = build_induction_kernel(_SCALAR, 2, 1, _RADIAL)
    n = sphere.weight_count
    with pytest.raises(ValueError, match=rf"shape \(2, {n}\), got \({n},\)"):
        sphere.kappa(np.ones(n), Rotation3.identity(), pts)
    w = np.ones((2, n))
    w[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sphere.kappa(w, Rotation3.identity(), pts)


@pytest.mark.parametrize("build", [
    lambda: build_so3_kernel(_SCALAR, (0,), 1, _RADIAL),
    lambda: build_volume_kernel(_SCALAR, (0,), (0.0,), _RADIAL),
], ids=["so3", "volume"])
def test_lift_rejects_a_rotation_group_kernel(build):
    # the same type as a sphere kernel, but its weights fill every row
    kernel = build()
    field = AnalyticField.random_band_limited(_SCALAR, np.random.default_rng(0)).sample(8, 0.1)
    with pytest.raises(ValueError, match="sphere kernel"):
        induction_forward(field, kernel, np.ones((1, kernel.weight_count)))


@pytest.mark.parametrize("build", [
    lambda: build_so3_kernel(_SCALAR, (0,), 1, _RADIAL),
    lambda: build_volume_kernel(_SCALAR, (0,), (0.0,), _RADIAL),
], ids=["so3", "volume"])
def test_response_reads_only_sphere_kernels(build):
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="sphere kernel"):
        build().response(pts, np.ones((4, 1, 1)))
    sphere = build_induction_kernel(_SCALAR, 1, 1, _RADIAL)
    assert sphere.response(pts, np.ones((4, 3, 1))).shape == (3, sphere.weight_count, 4)
    for values in (np.ones((4, 1)), np.ones((3, 1, 1)), np.ones((4, 1, 2))):
        with pytest.raises(ValueError, match="values must have shape"):
            sphere.response(pts, values)


def test_response_rejects_bad_points_and_non_finite_input_before_evaluating(monkeypatch):
    sphere = build_induction_kernel(_SCALAR, 1, 1, _RADIAL)

    def unreachable(*args):
        raise AssertionError("the basis was evaluated before the input check")

    monkeypatch.setattr(kernels, "_elements", unreachable)
    pts, vals = np.full((4, 2), 0.25), np.ones((4, 1, 1))
    # a third column would be dropped silently, lifting other points than given
    with pytest.raises(ValueError,
                       match=r"points must have shape \(N, 2\), got \(4, 3\)"):
        sphere.response(np.ones((4, 3)), vals)
    nan_pts, nan_vals = pts.copy(), vals.copy()
    nan_pts[1, 0], nan_vals[2, 0, 0] = np.nan, np.inf
    for p, v, message in ((nan_pts, vals, "points must be finite"),
                          (pts, nan_vals, "values must be finite")):
        with pytest.raises(ValueError, match=message):
            sphere.response(p, v)



@pytest.mark.parametrize("bad", ["third column", "nan", "inf", "empty"])
def test_kernel_evaluators_reject_bad_points(bad):
    # a third column used to be dropped silently and a NaN point to give NaN values
    pts = np.full((4, 2), 0.25)
    if bad == "third column":
        pts = np.full((4, 3), 0.25)
    elif bad == "empty":
        pts = np.zeros((0, 2))
    else:
        pts[2, 1] = float(bad)
    kernel = build_induction_kernel(_SCALAR, 1, 1, _RADIAL)
    weights = np.ones(kernel.weight_count)
    evaluators = (lambda: kernel.bases[0].evaluate_all(pts),
                  lambda: kernel.coefficient_blocks(weights, pts),
                  lambda: kernel.kappa(weights, Rotation3(0.1, 0.2, 0.3), pts))
    for evaluate in evaluators:
        with pytest.raises(ValueError, match=r"points must (have shape \(N, 2\)|be finite)"):
            evaluate()


def test_kernel_inputs_reject_complex_values():
    # numpy would drop the imaginary part, even a zero one, with only a ComplexWarning
    sphere = build_induction_kernel(_SCALAR, 1, 1, _RADIAL)
    pts, vals, z = np.full((4, 2), 0.25), np.ones((4, 1, 1)), 1.0 + 0.0j
    for call, name in ((lambda: sphere.response(pts * z, vals), "points"),
                       (lambda: sphere.response(pts, vals * z), "values"),
                       (lambda: sphere.check_weights(np.ones((1, sphere.weight_count)) * z),
                        "weights")):
        with pytest.raises(ValueError, match=f"^{name} must be real$"):
            call()


def _change_of_basis(ell, fiber):
    """Degree ell's cached change of basis, canonical <- (harmonic x fiber)."""
    return kernels._tensor_with_harmonics(ell, fiber)[1]


def test_solved_kernels_are_read_only():
    kernel = build_so3_kernel(SO2RepSpec((0, 1)), (0, 1), 1, _RADIAL)
    arrays = [so3_fiber_restriction(kernel.out_ells)[1]]
    arrays += [_change_of_basis(ell, kernel.fiber_in) for ell in range(kernel.lmax + 1)]
    for basis in kernel.bases:
        arrays += [a for sol in basis.angular for a in (sol.cos_coeff, sol.sin_coeff)]
    assert arrays and not any(a.flags.writeable for a in arrays)


def test_induction_kernel_holds_only_its_independent_fields():
    kernel = build_so3_kernel(_VECTOR, (0, 1), 3, _RADIAL)
    assert [f.name for f in fields(kernel)] == [
        "fiber_in", "out_ells", "bases", "out_channels", "space"]
    # lmax is derived, so dropping degrees cannot leave it stale
    short = replace(kernel, bases=kernel.bases[:2])
    assert short.lmax == 1 and len(short.coefficient_blocks(
        np.ones(short.weight_count), np.zeros((1, 2)))) == 2


def test_kernels_with_one_fiber_share_read_only_changes_of_basis():
    sphere = build_induction_kernel(SO2RepSpec((0, 1)), 2, 3, _RADIAL)
    so3 = build_so3_kernel(SO2RepSpec((0, 1)), (0, 1), 2, RadialProfileSet(2, 0.4))
    for ell in range(3):
        t = _change_of_basis(ell, sphere.fiber_in)
        assert t is _change_of_basis(ell, so3.fiber_in) and not t.flags.writeable
    twin = build_so3_kernel(SO2RepSpec((0, 1)), (0, 1), 1, _RADIAL)
    assert so3_fiber_restriction(twin.out_ells)[1] is so3_fiber_restriction(so3.out_ells)[1]


def test_a_second_identical_kernel_keeps_no_second_change_of_basis():
    fiber, radial = SO2RepSpec((0, 1, 2)), RadialProfileSet(1, 0.5)

    def kept_by_build():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel = build_so3_kernel(fiber, (0, 1), 3, radial)
            return kernel, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    # a first solve may fill numpy's own caches; make it on another fiber
    build_so3_kernel(SO2RepSpec((0, 2)), (0, 1), 3, radial)
    kernels._tensor_with_harmonics.cache_clear()
    kernels.so3_fiber_restriction.cache_clear()
    first, cold = kept_by_build()
    _, warm = kept_by_build()
    # the first build fills the cache with every change of basis (17 KB); the
    # second reads those copies and keeps only its own bases
    shared = sum(_change_of_basis(ell, fiber).nbytes for ell in range(first.lmax + 1))
    assert cold - warm >= shared > 16_000, (cold, warm, shared)


def _counting_stacked(monkeypatch):
    """A list that grows by one each time a basis stacks its solutions."""
    calls, stacked = [], kernels.SteerableKernelBasis._stacked

    def counting(basis):
        calls.append(basis)
        return stacked(basis)

    monkeypatch.setattr(kernels.SteerableKernelBasis, "_stacked", counting)
    return calls


def _lift_inputs(n=16, fields_=2, d=1, seed=0):
    axis = np.linspace(-0.5, 0.5, n)
    pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    return pts, np.random.default_rng(seed).normal(size=(len(pts), fields_, d))


def test_each_kernel_builds_its_lift_plan_once(monkeypatch):
    kernel = build_induction_kernel(_VECTOR, 2, 4, RadialProfileSet(2, 0.5))
    calls = _counting_stacked(monkeypatch)
    pts, values = _lift_inputs(d=_VECTOR.dim)
    first = kernel.response(pts, values)
    assert len(calls) == kernel.lmax + 1
    assert np.array_equal(kernel.response(pts, values), first)
    assert np.array_equal(kernel.response(pts[:40], values[:40]), kernel.response(
        pts[:40], values[:40]))  # another point set reads the same plan
    assert len(calls) == kernel.lmax + 1
    assert all(not arr.flags.writeable for pair in kernel._lift_plan for arr in pair)


def test_replaced_and_corrupted_kernels_build_plans_of_their_own(monkeypatch):
    kernel = build_induction_kernel(_VECTOR, 1, 3, RadialProfileSet(2, 0.5))
    pts, values = _lift_inputs(d=_VECTOR.dim)
    lifted = kernel.response(pts, values)
    calls = _counting_stacked(monkeypatch)
    twin = replace(kernel)
    assert np.array_equal(twin.response(pts, values), lifted)
    assert len(calls) == kernel.lmax + 1 and twin._lift_plan is not kernel._lift_plan
    short = replace(kernel, bases=kernel.bases[:2])
    assert short.response(pts, values).shape == (2, short.weight_count, 4)
    bad = kernels.corrupt_kernel(kernel, np.random.default_rng(0))
    wrong = bad.response(pts, values)
    monkeypatch.undo()
    # the corrupted kernel lifts as a fresh build of its bases does, not as the original
    fresh = kernels.InductionKernel(bad.fiber_in, bad.out_ells, bad.bases, 1, "sphere")
    assert np.array_equal(wrong, fresh.response(pts, values))
    assert np.abs(wrong - lifted).max() > 1e-1 * np.abs(lifted).max()
    assert np.array_equal(kernel.response(pts, values), lifted)


def _solve_pass(radial):
    """The kernel families the benchmark's solve pass builds, one of each."""
    heights = (-0.3, 0.0, 0.2)
    return [build_induction_kernel(_SCALAR, 1, 10, radial),
            build_induction_kernel(SO2RepSpec((0, 1, 2)), 1, 6, radial),
            build_so3_kernel(_VECTOR, (0, 1), 3, radial),
            build_volume_kernel(_VECTOR, (0, 1), heights, radial),
            build_r3s2_kernel(_SCALAR, 6, heights, radial)]


def _check_pass(built):
    """Read every kernel as a steerability check and ``kappa`` do, never lifting."""
    pts = np.random.default_rng(1).normal(size=(8, 2)) * 0.2
    for kernel in built:
        for basis in kernel.bases:
            basis.evaluate_all(pts)
    built[2].kappa(np.ones(built[2].weight_count), Rotation3(0.3, 0.4, 0.5), pts)


def test_solving_and_checking_kernels_builds_no_lift_plan():
    # a built kernel keeps its bases alone: evaluating them, as the benchmark's
    # steerability check does, and reading an SO(3) kernel keep nothing more
    radial = RadialProfileSet(2, 0.45, 0.09)
    for _ in range(2):  # the first passes fill numpy's and the module's caches
        _check_pass(_solve_pass(radial))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = _solve_pass(radial)
        kept = tracemalloc.get_traced_memory()[0] - before
        _check_pass(built)
        checked = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all("_lift_plan" not in vars(kernel) for kernel in built)
    assert kept > 100_000 and checked <= 1.01 * kept, (kept, checked)


def test_kernels_compare_and_hash_by_identity():
    # the generated __eq__ compared array fields and raised "truth value of an
    # array ... is ambiguous"; the generated __hash__ raised on the arrays
    a, b = (build_so3_kernel(_VECTOR, (0, 1), 1, RadialProfileSet(1, 0.5)) for _ in range(2))
    parts = [(a, b), (a.bases[1], b.bases[1]), (a.bases[1].angular[0], b.bases[1].angular[0])]
    for one, twin in parts:
        assert one == one and hash(one) == hash(one)
        assert one != twin and not one == twin
        assert len({one, twin}) == 2
    # replace still builds, and a rebuilt kernel is a new object
    short = replace(a, bases=a.bases[:1])
    assert short.lmax == 0 and short != a and short.bases[0] == a.bases[0]


_SPHERE = build_induction_kernel(_VECTOR, 1, 2, _RADIAL)
_SO3 = build_so3_kernel(_VECTOR, (0, 1), 2, _RADIAL)


@pytest.mark.parametrize("make, message", [
    # "Sphere" used to read as SO(3): weight_count 27 -> 105
    (lambda: replace(_SPHERE, space="Sphere"), "space must be"),
    # the lift used to return a (1, 27, 9) map that ignored the output fiber
    (lambda: replace(_SPHERE, out_ells=(1,)), "sphere kernel has output degrees"),
    # kappa used to fail late: "cannot reshape array of size 180 into shape (2,5,60)"
    (lambda: replace(_SO3, out_channels=2), "one output channel"),
    (lambda: replace(_SO3, bases=(replace(_SO3.bases[0], radial=RadialProfileSet(2, 0.5)),)
                     + _SO3.bases[1:]), "one radial profile set"),
    (lambda: replace(_SO3, fiber_in=SO2RepSpec((0, 2))), "basis 0 does not solve"),
    (lambda: replace(_SO3, out_ells=(1, 0)), "basis 0 does not solve"),
    (lambda: replace(_SO3, bases=_SO3.bases[1:]), "basis 0 does not solve"),
    (lambda: replace(_SO3, bases=()), "lmax must be"),
], ids=["space", "sphere-out-fiber", "so3-channels", "radial", "fiber", "out-order",
        "shifted-degrees", "no-bases"])
def test_inconsistent_kernels_are_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@lru_cache(maxsize=None)
def _oracle_sphere(fiber, lmax):
    return build_induction_kernel(SO2RepSpec(fiber), 1, lmax, RadialProfileSet(2, 0.45))


@settings(max_examples=25, deadline=None)
@given(fiber=st.sampled_from([(0,), (1,), (0, 1), (2, 0)]), lmax=st.integers(0, 4),
       channels=st.integers(1, 3), alpha=st.floats(0.0, 2 * np.pi), beta=st.floats(0.0, np.pi),
       gamma=st.floats(0.0, 2 * np.pi), out_ells=st.sampled_from([(0,), (1,), (0, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_lifted_kernels_are_one_construction(fiber, lmax, channels, alpha, beta, gamma,
                                             out_ells, seed):
    rng = np.random.default_rng(seed)
    g = Rotation3(alpha, beta, gamma)
    pts = rng.normal(size=(6, 2)) * 0.3
    # the sphere kernel at g reads the harmonics at g e_z, evaluated
    # independently of the Wigner matrices kappa contracts with
    sphere = replace(_oracle_sphere(fiber, lmax), out_channels=channels)
    w = rng.normal(size=(channels, sphere.weight_count))
    y = SphericalHarmonicBasis(lmax).evaluate(g.apply(np.array([0.0, 0.0, 1.0])))
    expected = sum(np.einsum("cnkv,k->ncv", fl, y[SphericalHarmonicBasis.slice_of(ell)])
                   for ell, fl in enumerate(sphere.coefficient_blocks(w, pts)))
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(sphere.kappa(w, g, pts) - expected).max() <= 1e-12 * scale
    # and it is the SO(3) reading of the same solve with weights in row m = 0 alone
    rows, pos = [], 0
    for ell, basis in enumerate(sphere.bases):
        block = np.zeros((2 * ell + 1, basis.count))
        block[ell] = np.sqrt((2 * ell + 1) / (4 * np.pi)) * w[0, pos:pos + basis.count]
        rows.append(block.ravel())
        pos += basis.count
    so3 = replace(sphere, out_channels=1, space="so3")
    got = so3.kappa(np.concatenate(rows), g, pts)
    assert np.abs(got - expected[:, :1]).max() <= 1e-12 * scale
    # the volume family is the SO(3) kernel at degree 0, for any rotation
    fiber_in, radial = SO2RepSpec(fiber), RadialProfileSet(2, 0.45)
    volume = build_volume_kernel(fiber_in, out_ells, (0.0, 0.3), radial)
    degree0 = build_so3_kernel(fiber_in, out_ells, 0, radial)
    wv = rng.normal(size=volume.weight_count)
    assert np.array_equal(volume.kappa(wv, g, pts), degree0.kappa(wv, g, pts))
