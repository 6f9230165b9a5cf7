import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planelift import kernels, so2_so3
from planelift.kernels import (
    RadialProfileSet,
    SO2RepSpec,
    build_induction_kernel,
)
from planelift.layers import (
    _SERIES_X,
    EXTENT,
    FIELD_BAND,
    R_MAX,
    RADIAL_WIDTH,
    AnalyticField,
    LayerConfig,
    PlanarFeatureField,
    SO3Grid,
    SO3Signal,
    SphericalSignal,
    _bessel_j,
    _bilinear,
    _grid_modes,
    _grid_positions,
    _lift_response,
    corrupt_kernel,
    equivariance_harness,
    gradient_check,
    induction_forward,
    induction_forward_many,
    rotate_field,
    rotate_signal,
    so3_equiangular_grid,
    sphere_to_so3_correlation,
    spherical_nonlinearity,
)
from planelift.so2_so3 import (
    Rotation3,
    SphericalHarmonicBasis,
    so2_block,
    sphere_quadrature,
    wigner_d,
)


def _small_kernel(lmax=2, fiber=(0,), channels=1):
    return build_induction_kernel(SO2RepSpec(fiber), channels, lmax,
                                  RadialProfileSet(2, 0.45, width=0.09))


def _sample_field(fn, fiber, n=48, extent=1.0):
    spacing = 2.0 * extent / (n - 1)
    return AnalyticField(fn, SO2RepSpec(fiber)).sample(n, spacing)


# ---------------------------------------------------------------------------
# forward pass

def test_zero_field_maps_to_zero():
    kernel = _small_kernel()
    field = PlanarFeatureField(np.zeros((16, 16, 1)), 0.1, SO2RepSpec((0,)))
    rng = np.random.default_rng(0)
    out = induction_forward(field, kernel, rng.normal(size=(1, kernel.weight_count)))
    assert np.abs(out.coeffs).max() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_values_rejected(bad):
    values = np.zeros((8, 8, 1))
    values[3, 4, 0] = bad
    with pytest.raises(ValueError, match="field values must be finite"):
        PlanarFeatureField(values, 0.1, SO2RepSpec((0,)))


@pytest.mark.parametrize("spacing", [0.0, -0.1, np.nan, np.inf, True, "0.1", 0.1 + 0j])
def test_bad_spacing_rejected(spacing):
    with pytest.raises(ValueError, match="spacing must be finite and positive"):
        PlanarFeatureField(np.ones((8, 8, 1)), spacing, SO2RepSpec((0,)))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_rotation_angle_rejected(theta):
    field = AnalyticField(lambda pts: pts[:, :1], SO2RepSpec((0,)))
    for target in (field, field.sample(8, 0.1)):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            rotate_field(target, theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    kernel = _small_kernel()
    field = PlanarFeatureField(np.ones((8, 8, 1)), 0.1, SO2RepSpec((0,)))
    weights = np.ones((1, kernel.weight_count))
    weights[0, -1] = bad
    with pytest.raises(ValueError, match="weights must be finite"):
        induction_forward(field, kernel, weights)


def test_fiber_mismatch_rejected():
    kernel = _small_kernel(fiber=(0, 1))
    field = PlanarFeatureField(np.zeros((8, 8, 1)), 0.1, SO2RepSpec((0,)))
    with pytest.raises(ValueError, match="fiber"):
        induction_forward(field, kernel, np.zeros((1, kernel.weight_count)))


def test_symmetric_field_excites_only_zonal_modes():
    kernel = _small_kernel(lmax=4)
    field = _sample_field(
        lambda p: np.exp(-np.hypot(p[:, 0], p[:, 1]) ** 2 / 0.08)[:, None], (0,), n=64)
    rng = np.random.default_rng(1)
    out = induction_forward(field, kernel, rng.normal(size=(1, kernel.weight_count)))
    for ell in range(5):
        sl = SphericalHarmonicBasis.slice_of(ell)
        block = out.coeffs[0, sl].copy()
        block[ell] = 0.0  # zonal entry excluded
        assert np.abs(block).max() < 1e-10


def test_forward_is_bilinear():
    kernel = _small_kernel()
    rng = np.random.default_rng(2)
    f1 = _sample_field(lambda p: np.exp(-np.sum(p ** 2, 1) / 0.1)[:, None], (0,), n=24)
    f2 = PlanarFeatureField(rng.normal(size=f1.values.shape), f1.spacing, f1.fiber_rep)
    w1 = rng.normal(size=(1, kernel.weight_count))
    w2 = rng.normal(size=(1, kernel.weight_count))

    sum_field = PlanarFeatureField(f1.values + f2.values, f1.spacing, f1.fiber_rep)
    lhs = induction_forward(sum_field, kernel, w1).coeffs
    rhs = induction_forward(f1, kernel, w1).coeffs + induction_forward(f2, kernel, w1).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12

    lhs = induction_forward(f1, kernel, w1 + w2).coeffs
    rhs = induction_forward(f1, kernel, w1).coeffs + induction_forward(f1, kernel, w2).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12


@lru_cache(maxsize=None)
def _cached_kernel(fiber, lmax, channels):
    return _small_kernel(lmax, fiber, channels)


def _coefficient_block_lift(field, kernel, weights):
    """The lift as the cell area times the grid sum of the kernel's
    coefficient stacks against the fiber values."""
    blocks = kernel.coefficient_blocks(weights, field.positions())
    vals = field.flat_values()
    return field.spacing ** 2 * np.concatenate(
        [np.einsum("cnkv,nv->ck", fl, vals) for fl in blocks], axis=1)


@settings(max_examples=20, deadline=None)
@given(fiber=st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
       lmax=st.integers(0, 4), channels=st.integers(1, 3), n=st.integers(6, 16),
       seed=st.integers(0, 2**32 - 1))
def test_forward_matches_coefficient_blocks_and_is_bilinear(fiber, lmax, channels, n, seed):
    kernel = _cached_kernel(fiber, lmax, channels)
    rng = np.random.default_rng(seed)
    spec = SO2RepSpec(fiber)
    f1, f2 = (PlanarFeatureField(rng.normal(size=(n, n, spec.dim)), 0.9 / (n - 1), spec)
              for _ in range(2))
    w1, w2 = rng.normal(size=(2, channels, kernel.weight_count))
    a, b = rng.normal(size=2)

    out = induction_forward(f1, kernel, w1).coeffs
    oracle = _coefficient_block_lift(f1, kernel, w1)
    scale = max(float(np.abs(oracle).max()), 1e-300)
    assert np.abs(out - oracle).max() <= 1e-12 * scale

    other_w = induction_forward(f1, kernel, w2).coeffs
    other_f = induction_forward(f2, kernel, w1).coeffs
    mixed_f = PlanarFeatureField(a * f1.values + b * f2.values, f1.spacing, spec)
    for lhs, other in ((induction_forward(f1, kernel, a * w1 + b * w2).coeffs, other_w),
                       (induction_forward(mixed_f, kernel, w1).coeffs, other_f)):
        scale = abs(a) * np.abs(out).max() + abs(b) * np.abs(other).max()
        assert np.abs(lhs - (a * out + b * other)).max() <= 1e-12 * max(scale, 1e-300)


def _one_field_response(field, kernel):
    """The one-field weight-response map as it was built before the lift
    took several fields: one basis pass per field."""
    pts = field.positions()
    vals = field.flat_values()
    d = kernel.fiber_in.dim
    response = np.zeros((kernel.weight_count, (kernel.lmax + 1) ** 2))
    pos = 0
    for ell, basis in enumerate(kernel.bases):
        t = kernels._tensor_with_harmonics(ell, kernel.fiber_in)[1]
        bvals = basis.evaluate_all(pts)[:, :, 0, :]
        moments = np.tensordot(bvals, vals, axes=([1], [0]))
        block = np.einsum("bjv,kvj->bk", moments, t.reshape(2 * ell + 1, d, -1))
        response[pos:pos + basis.count, SphericalHarmonicBasis.slice_of(ell)] = block
        pos += basis.count
    return field.spacing ** 2 * response


@settings(max_examples=20, deadline=None)
@given(fiber=st.sampled_from([(0,), (0, 1), (0, 1, 2)]), lmax=st.integers(0, 4),
       count=st.integers(1, 4), n=st.integers(16, 32), channels=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@example(fiber=(0, 1, 2), lmax=0, count=4, n=25, channels=1, seed=25)
def test_many_field_lift_matches_one_field_lifts(fiber, lmax, count, n, channels, seed):
    kernel = _cached_kernel(fiber, lmax, channels)
    rng = np.random.default_rng(seed)
    spec = SO2RepSpec(fiber)
    fields = [PlanarFeatureField(rng.normal(size=(n, n, spec.dim)), 2.0 / (n - 1), spec)
              for _ in range(count)]
    w = rng.normal(size=(channels, kernel.weight_count))
    many = induction_forward_many(fields, kernel, w)
    assert len(many) == count
    for field, got in zip(fields, many):
        response = _one_field_response(field, kernel)
        one = induction_forward(field, kernel, w)
        # summation order moves the last product by rounding of the terms it
        # sums, whose size cancellation in the output can hide; the lift sums
        # over point blocks, so it is held to the same bound as the dense map
        scale = max(float((np.abs(w) @ np.abs(response)).max()), 1e-300)
        assert np.abs(one.coeffs - w @ response).max() <= 1e-13 * scale
        assert np.abs(got.coeffs - one.coeffs).max() <= 1e-13 * scale


def _support_mask(basis, radii, magnitudes):
    """The points where, for some profile p, some m of the basis and some
    field, ``prof_p(r) (r/s_p)^m |v|`` exceeds machine epsilon times its
    largest value over the points, |v| (``magnitudes``, (N, fields)) the
    field's largest fiber entry."""
    radial = basis.radial
    inside = np.zeros(len(radii), dtype=bool)
    for center, prof in zip(radial.centers, radial.evaluate(radii)):
        for m in {sol.m for sol in basis.angular}:
            term = (prof * (radii / max(center, radial.width)) ** m)[:, None] * magnitudes
            inside |= (term > np.finfo(float).eps * term.max(axis=0)).any(axis=1)
    return inside


def _support_sizes(kernel, field):
    """Per degree, the number of points in ``_support_mask``."""
    radii = np.hypot(*field.positions().T)
    magnitudes = np.abs(field.flat_values()).max(axis=1)[:, None]
    return [int(_support_mask(basis, radii, magnitudes).sum()) for basis in kernel.bases]


def _recording_evaluations(monkeypatch):
    """Sizes of the point blocks the lift evaluates its bases on, in order:
    the points axis of each call of the one element formula."""
    sizes, elements = [], kernels._elements

    def recording(blocks, ms, factors, trig, work=None):
        sizes.append(trig.shape[-1])
        return elements(blocks, ms, factors, trig, work)

    monkeypatch.setattr(kernels, "_elements", recording)
    return sizes


@pytest.mark.parametrize("fiber", [(0,), (0, 1), (0, 1, 2)])
@pytest.mark.parametrize("n, budget", [(9, 20000), (6, 1), (1, 2 << 20)],
                         ids=["short-last-block", "one-point-blocks", "one-point"])
def test_blocked_lift_matches_the_dense_response(monkeypatch, fiber, n, budget):
    kernel = _cached_kernel(fiber, 3, 1)
    spec = SO2RepSpec(fiber)
    field = PlanarFeatureField(np.random.default_rng(n).normal(size=(n, n, spec.dim)), 0.25, spec)
    monkeypatch.setattr(kernels, "_LIFT_BLOCK_BYTES", budget)
    sizes = _recording_evaluations(monkeypatch)
    got = _lift_response([field], kernel)[0]
    monkeypatch.undo()
    # every point of a degree's support is read once, in blocks of the budget's size
    per_degree, run, inside = [], [], _support_sizes(kernel, field)
    for size in sizes:
        run.append(size)
        if sum(run) == inside[len(per_degree)]:
            per_degree, run = per_degree + [run], []
    assert len(per_degree) == kernel.lmax + 1 and not run
    if n == 9:
        assert max(inside) < n * n  # the corners lie outside the support
        assert any(len(blocks) > 1 and blocks[-1] < blocks[0] for blocks in per_degree)
    else:
        assert all(set(blocks) == {1} for blocks in per_degree)
    want = _one_field_response(field, kernel)
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("rim", [1.0, 1e8], ids=["white-noise", "loud-rim"])
@pytest.mark.parametrize("fiber", [(0,), (0, 1), (0, 1, 2)])
def test_support_lift_matches_the_dense_response(monkeypatch, fiber, rim):
    # the default ring on the default grid spacing: the lift skips a fifth or
    # more of the points. A loud rim (values 1e8 beyond r = 0.95) moves the
    # support out, since a term is dropped only below rounding of the largest
    # term, not of the largest factor
    config = LayerConfig(lmax=2, fiber_freqs=fiber, grid_n=48)
    kernel = config.build_kernel()
    values = np.random.default_rng(len(fiber)).normal(size=(48, 48, config.fiber.dim))
    field = PlanarFeatureField(values, config.spacing, config.fiber)
    loud = np.hypot(*field.positions().T).reshape(48, 48) > 0.95
    field = PlanarFeatureField(values * np.where(loud, rim, 1.0)[..., None], config.spacing,
                               config.fiber)
    sizes = _recording_evaluations(monkeypatch)
    got = _lift_response([field], kernel)[0]
    monkeypatch.undo()
    inside = _support_sizes(kernel, field)
    assert sum(sizes) == sum(inside)
    assert max(inside) < (0.85 if rim == 1.0 else 1.0) * 48 * 48
    want = _one_field_response(field, kernel)
    scale = max(float(np.abs(want).max()), 1e-300)
    assert np.abs(got - want).max() <= 1e-13 * scale


def _per_block_response(kernel, points, values, magnitude=False):
    """The lift as it was built before the polar table: per degree, the
    points of ``_support_mask``, then ``evaluate_all`` and one ``tensordot``
    per block of them, summed into the degree's moments. With ``magnitude``
    every factor is taken in absolute value, which gives each entry the sum
    of its terms' magnitudes, the scale its rounding is measured against."""
    size = np.abs if magnitude else np.asarray
    d, nf = kernel.fiber_in.dim, values.shape[1]
    radii, magnitudes = np.hypot(*points.T), np.abs(values).max(axis=2)
    vals = size(values.reshape(len(points), -1))
    response = np.zeros((nf, kernel.weight_count, (kernel.lmax + 1) ** 2))
    pos = 0
    for ell, basis in enumerate(kernel.bases):
        t = kernels._tensor_with_harmonics(ell, kernel.fiber_in)[1]
        keep = _support_mask(basis, radii, magnitudes)
        d_can = basis.in_rep.dim
        rows = max(1, kernels._LIFT_BLOCK_BYTES // (8 * max(basis.count * d_can, 1)))
        pts, v = points[keep], vals[keep]
        moments = np.zeros((basis.count, d_can, vals.shape[1]))
        for i in range(0, len(pts), rows):
            bvals = size(basis.evaluate_all(pts[i:i + rows])[:, :, 0, :])
            moments += np.tensordot(bvals, v[i:i + rows], axes=([1], [0]))
        moments = moments.reshape(basis.count, d_can, nf, d)
        block = np.einsum("bjfv,kvj->fbk", moments, size(t.reshape(2 * ell + 1, d, -1)))
        response[:, pos:pos + basis.count, SphericalHarmonicBasis.slice_of(ell)] = block
        pos += basis.count
    return response


@lru_cache(maxsize=None)
def _default_ring_kernel(fiber, lmax):
    return LayerConfig(lmax=lmax, fiber_freqs=fiber).build_kernel()


@settings(max_examples=25, deadline=None)
@given(fiber=st.sampled_from([(0,), (0, 1), (0, 1, 2), (0, 2)]), lmax=st.integers(0, 6),
       nx=st.integers(1, 33), ny=st.integers(1, 33), fields=st.integers(1, 3),
       rim=st.sampled_from([1.0, 1e8]), budget=st.sampled_from([1, 20000, 1 << 20]),
       seed=st.integers(0, 2**32 - 1))
@example(fiber=(0, 1, 2), lmax=6, nx=33, ny=32, fields=3, rim=1e8, budget=1 << 20, seed=1)
@example(fiber=(0, 2), lmax=3, nx=1, ny=2, fields=1, rim=1.0, budget=1, seed=2)
def test_polar_table_lift_matches_the_per_block_evaluate_all_lift(fiber, lmax, nx, ny, fields,
                                                                  rim, budget, seed):
    # the polar-table lift against the lift it replaced, on odd, tiny and
    # non-square grids spanning [-1, 1], with a rim 1e8 louder beyond r = 0.95
    kernel = _default_ring_kernel(fiber, lmax)
    spacing = 2.0 * EXTENT / max(nx - 1, ny - 1, 1)
    xs, ys = (np.arange(nx) - (nx - 1) / 2) * spacing, (np.arange(ny) - (ny - 1) / 2) * spacing
    pts = np.stack([g.ravel() for g in np.meshgrid(xs, ys, indexing="ij")], axis=1)
    values = np.random.default_rng(seed).normal(size=(len(pts), fields, kernel.fiber_in.dim))
    values[np.hypot(*pts.T) > 0.95] *= rim
    with mock.patch.object(kernels, "_LIFT_BLOCK_BYTES", budget):
        got = kernel.response(pts, values)
        want = _per_block_response(kernel, pts, values)
    scale = _per_block_response(kernel, pts, values, magnitude=True)
    assert got.shape == want.shape == (fields, kernel.weight_count, (lmax + 1) ** 2)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_response_checks_its_points_and_builds_its_table_once(monkeypatch):
    # each evaluate_all call used to check and copy its points again, and
    # build its trig and radial factors again, once per degree and block
    kernel = LayerConfig(lmax=3, fiber_freqs=(0, 1), grid_n=16).build_kernel()
    counts = {}

    def counting(name, fn):
        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return counted

    for name in ("_check_points", "_check_array", "_polar"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    monkeypatch.setattr(RadialProfileSet, "_factors",
                        counting("_factors", RadialProfileSet._factors))
    monkeypatch.setattr(kernels, "_LIFT_BLOCK_BYTES", 4096)  # many blocks per degree
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(256, 2))
    kernels._grid_polar.cache_clear()  # a miss, whatever ran before
    kernel.response(pts, np.ones((256, 2, 3)))
    assert counts == {"_check_points": 1, "_check_array": 2, "_polar": 1, "_factors": 1}


def _uncached_response(kernel, pts, values):
    kernels._grid_polar.cache_clear()
    return kernel.response(pts, values)


def test_cached_polar_table_lifts_bit_identically():
    kernel = _default_ring_kernel((0, 1), 3)
    pts = _grid_positions(24, 24, 2.0 / 23)
    values = np.random.default_rng(8).normal(size=(len(pts), 2, 3))
    cold = _uncached_response(kernel, pts, values)
    warm = kernel.response(pts, values)
    assert kernels._grid_polar.cache_info().hits == 1
    assert np.array_equal(warm, cold)
    assert np.array_equal(warm, _uncached_response(kernel, pts, values))


def test_interleaved_point_sets_each_lift_from_their_own_table():
    # equal point counts with other values, and other radial sets and top
    # frequencies on one point set, each key a table of its own
    spec, ring = SO2RepSpec((0, 1)), RadialProfileSet(2, R_MAX, RADIAL_WIDTH)
    sets = [_grid_positions(24, 24, 2.0 / 23), _grid_positions(24, 24, 1.9 / 23),
            _grid_positions(16, 36, 2.0 / 35)]
    lifts = [(pts, kernel) for pts in sets[:2] for kernel in (
        build_induction_kernel(spec, 1, 3, ring), build_induction_kernel(spec, 1, 1, ring),
        build_induction_kernel(spec, 1, 3, RadialProfileSet(2, R_MAX, 1.5 * RADIAL_WIDTH)))]
    lifts.append((sets[2], lifts[0][1]))
    values = np.random.default_rng(9).normal(size=(len(sets[0]), 1, spec.dim))
    want = [_uncached_response(kernel, pts, values) for pts, kernel in lifts]
    # a table served to the wrong key would show: lifts of one shape differ
    for i, a in enumerate(want):
        for b in want[i + 1:]:
            assert a.shape != b.shape or np.abs(a - b).max() > 1e-3 * np.abs(a).max()
    kernels._grid_polar.cache_clear()
    for _ in range(2):
        for (pts, kernel), expected in zip(lifts, want):
            assert np.array_equal(kernel.response(pts, values), expected)
    assert kernels._grid_polar.cache_info().hits == 0


def test_polar_table_is_read_only_and_cached_once():
    kernel = _default_ring_kernel((0, 1), 2)
    pts = _grid_positions(16, 16, 2.0 / 15)
    kernel.response(pts, np.ones((len(pts), 1, 3)))
    m_top = max(sol.m for basis in kernel.bases for sol in basis.angular)
    trig, factors = kernels._grid_polar(pts.tobytes(), m_top, kernel.bases[0].radial)
    info = kernels._grid_polar.cache_info()
    assert info.hits >= 1 and info.maxsize == 1 and info.currsize <= 1
    assert trig.shape == (m_top + 1, 2, len(pts)) and factors.shape == (m_top + 1, 2, len(pts))
    assert not trig.flags.writeable and not factors.flags.writeable


def test_lifted_fields_on_one_grid_keep_at_most_one_table():
    # 50 lifted fields on one 64x64 grid hold their values and lifts; the one
    # polar table (0.9 MB at lmax 6) and its 64 KB key stay in the cache alone
    config = LayerConfig(lmax=6, fiber_freqs=(0,))
    kernel = _default_ring_kernel((0,), 6)
    w = np.ones((1, kernel.weight_count))
    rng = np.random.default_rng(0)
    kernels._grid_polar.cache_clear()
    kept = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            field = PlanarFeatureField(rng.normal(size=(64, 64, 1)), config.spacing, config.fiber)
            kept.append((field, induction_forward(field, kernel, w)))
        held = tracemalloc.get_traced_memory()[0] - base
        table = sum(a.nbytes for a in kernels._grid_polar(
            field.positions().tobytes(), 6, kernel.bases[0].radial))
        info = kernels._grid_polar.cache_info()
        kernels._grid_polar.cache_clear()
        per_pair = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    assert info.misses == 1 and info.currsize == 1
    assert 0.9e6 <= table <= 0.95e6
    key = field.positions().nbytes
    assert table <= held - len(kept) * per_pair <= table + key + 4096
    assert per_pair <= field.values.nbytes + 4096


@pytest.mark.parametrize("fiber", [(0,), (0, 1), (0, 1, 2)])
def test_quarter_turns_of_a_pixel_image_rotate_its_lift_exactly(fiber):
    # the square grid is invariant under quarter turns, so turning any image
    # by rot90 and its fibers by rho(q pi/2) turns its lift exactly: an oracle
    # of the stored blocks on white noise, an input no analytic field reaches.
    # The residual reads at most 3.0e-15; turning the image the wrong way
    # reads 0.54 to 1.54, and a corrupted kernel 1.5 to 1.8 at q = 1
    config = LayerConfig(lmax=6, fiber_freqs=fiber)
    kernel = config.build_kernel()
    rng = np.random.default_rng(len(fiber))
    values = rng.normal(size=(64, 64, config.fiber.dim))
    w = rng.normal(size=(1, kernel.weight_count))

    def residuals(kernel, turns, sense=1):
        """Relative misses of the lifts of the image turned by ``sense * q``,
        for q in ``turns``, against the lift of the image turned by q."""
        fields = [PlanarFeatureField(np.rot90(values, sense * q, axes=(0, 1))
                                     @ config.fiber.matrix(q * np.pi / 2).T,
                                     config.spacing, config.fiber) for q in (0, *turns)]
        lifts = induction_forward_many(fields, kernel, w)
        rotated = [rotate_signal(lifts[0], Rotation3.about_z(q * np.pi / 2)).coeffs
                   for q in turns]
        return [np.linalg.norm(lift.coeffs - want) / np.linalg.norm(want)
                for lift, want in zip(lifts[1:], rotated)]

    assert max(residuals(kernel, (1, 2, 3))) <= 1e-13
    assert min(residuals(kernel, (1, 3), sense=-1)) > 1e-1
    assert residuals(corrupt_kernel(kernel, np.random.default_rng(104)), (1,))[0] > 1e-1


def _polar_quadrature_response(field, kernel, n_r=96, n_phi=64):
    """The lift's weight-response map by Gauss-Legendre in r times the
    trapezoid rule in phi on the inscribed disc: exact in phi for the
    integrand's angular band, so it carries none of the square grid's error."""
    x, wx = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * EXTENT * (x + 1.0)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    pts = np.stack([np.outer(r, np.cos(phi)).ravel(), np.outer(r, np.sin(phi)).ravel()], axis=1)
    wts = np.repeat(0.5 * EXTENT * wx * r * (2.0 * np.pi / n_phi), n_phi)
    return kernel.response(pts, (field(pts) * wts[:, None])[:, None, :])[0]


@pytest.mark.parametrize("fiber, lmax", [((0,), 6), ((0, 1, 2), 3)])
def test_square_grid_lift_matches_polar_quadrature(fiber, lmax):
    # an oracle of the lift's value, which equivariance cannot check. What is
    # left (2.6e-7 for both fibers) sits in the m = 0 elements of the outer
    # ring, whose profile has a kink at the origin that the square grid
    # resolves only to that level; the m > 0 elements agree to 1.5e-10. The
    # old ring (R_MAX 0.45, width 0.09) reads 1.3e-9, and 5.5e-10 to 1.0e-9
    # at m > 0. Each bound is twice the measured figure
    config = LayerConfig(lmax=lmax, fiber_freqs=fiber)
    kernel = config.build_kernel()
    field = AnalyticField.random_band_limited(config.fiber, np.random.default_rng(3))
    want = _polar_quadrature_response(field, kernel)
    got = _lift_response([field.sample(config.grid_n, config.spacing)], kernel)[0]
    scale = float(np.abs(want).max())
    m_positive = np.concatenate([np.tile([sol.m > 0 for sol in basis.angular], basis.radial.count)
                                 for basis in kernel.bases])
    assert np.abs(got - want).max() <= 5e-7 * scale
    assert np.abs(got - want)[m_positive].max() <= 3e-10 * scale


def test_lift_memory_does_not_grow_with_the_grid():
    # a lift holding each degree's whole basis stack grows 4x here (68.6 to 273.6 MiB)
    kernel = _cached_kernel((0, 1, 2), 4, 1)
    spec = SO2RepSpec((0, 1, 2))
    w = np.ones((1, kernel.weight_count))
    peaks = []
    for n in (32, 64):
        field = PlanarFeatureField(np.random.default_rng(n).normal(size=(n, n, spec.dim)),
                                   2.0 / (n - 1), spec)
        tracemalloc.start()
        try:
            induction_forward(field, kernel, w)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0] + 1e6, peaks


def test_lift_memory_is_one_block_budget():
    # blocks dominate at an 8 MiB budget; each block used to allocate its own
    # values while the previous block was still alive, which read 2.05 budgets
    # here. One workspace per call reads 1.17 (the rest is the block's table
    # rows and sums), so 1.4 leaves 0.23 budgets of margin
    budget = 8 << 20
    kernel = _cached_kernel((0, 1, 2), 4, 1)
    spec = SO2RepSpec((0, 1, 2))
    w = np.ones((1, kernel.weight_count))
    field = PlanarFeatureField(np.random.default_rng(64).normal(size=(64, 64, spec.dim)),
                               2.0 / 63, spec)
    with mock.patch.object(kernels, "_LIFT_BLOCK_BYTES", budget):
        induction_forward(field, kernel, w)  # the polar table is cached from here on
        tracemalloc.start()
        try:
            induction_forward(field, kernel, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.4 * budget, peak / budget


def _root(array):
    while array.base is not None:
        array = array.base
    return array


def test_every_block_of_one_lift_is_built_in_one_workspace(monkeypatch):
    # a fresh array per block churned the heap, so the lift's speed followed
    # glibc's trimming; a second call must get a workspace of its own
    kernel = _default_ring_kernel((0, 1), 3)
    pts = _grid_positions(24, 24, 2.0 / 23)
    values = np.random.default_rng(3).normal(size=(len(pts), 2, 3))
    parts, elements = [], kernels._elements

    def recording(*args):
        parts.append(elements(*args))
        return parts[-1]

    monkeypatch.setattr(kernels, "_elements", recording)
    monkeypatch.setattr(kernels, "_LIFT_BLOCK_BYTES", 20000)  # several blocks per degree
    calls = []
    for _ in range(2):
        kernel.response(pts, values)
        calls.append(parts[:])
        parts.clear()
    for blocks in calls:
        per_degree = Counter(part.shape[:2] for part in blocks)  # (profiles, solutions)
        assert len(per_degree) == kernel.lmax + 1 and min(per_degree.values()) >= 2
        assert all(np.shares_memory(part, blocks[0]) for part in blocks)
        # room for the largest block, no more
        assert _root(blocks[0]).nbytes == max(part.nbytes for part in blocks)
    assert not np.shares_memory(calls[0][0], calls[1][0])


def test_lifts_in_two_threads_equal_their_serial_lifts(monkeypatch):
    # forward passes are pure and may run in parallel: a buffer shared between
    # calls would mix two lifts' blocks, since numpy releases the GIL inside them
    kernel = _default_ring_kernel((0, 1), 3)
    pts = _grid_positions(32, 32, 2.0 / 31)
    fields = [np.random.default_rng(seed).normal(size=(len(pts), 2, 3)) for seed in range(8)]
    monkeypatch.setattr(kernels, "_LIFT_BLOCK_BYTES", 20000)  # many blocks per lift
    serial = [kernel.response(pts, values) for values in fields]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(kernel.response, pts, values) for values in fields]
            parallel = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got, want in zip(parallel, serial))


def test_many_field_lift_rejects_mismatched_or_no_fields():
    kernel = _small_kernel(fiber=(0, 1))
    spec = SO2RepSpec((0, 1))
    base = PlanarFeatureField(np.ones((8, 8, 3)), 0.1, spec)
    w = np.ones((1, kernel.weight_count))
    for other, message in ((PlanarFeatureField(np.ones((9, 8, 3)), 0.1, spec), "grid shape"),
                           (PlanarFeatureField(np.ones((8, 8, 3)), 0.2, spec), "spacing"),
                           (PlanarFeatureField(np.ones((8, 8, 3)), 0.1, SO2RepSpec((0, 0, 0))),
                            "fiber")):
        with pytest.raises(ValueError, match=message):
            induction_forward_many([base, other], kernel, w)
    with pytest.raises(ValueError, match="at least one field"):
        induction_forward_many([], kernel, w)


@pytest.mark.parametrize("bad", [np.ones((1, 7)), np.ones(7), np.full((1, 8), np.nan)],
                         ids=["columns", "vector", "nan"])
def test_bad_weights_raise_one_message_for_lift_and_blocks(bad):
    # both read the kernel's one weight check; 7 and 8 bracket weight_count
    kernel = _small_kernel(lmax=1)
    assert kernel.weight_count == 8
    field = PlanarFeatureField(np.ones((8, 8, 1)), 0.1, SO2RepSpec((0,)))
    messages = []
    for call in (lambda: induction_forward(field, kernel, bad),
                 lambda: kernel.coefficient_blocks(bad, field.positions())):
        with pytest.raises(ValueError, match="weights must") as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# band-limited test fields

def _per_mode_jv_field(fiber, rng, m_band):
    """The field drawn in the same order and summed one ``jv`` call per mode."""
    from scipy.special import jv

    d = fiber.dim
    ks = rng.uniform(1.0, 6.0, size=(m_band + 1, 2))
    amp_c = rng.normal(size=(m_band + 1, 2, d))
    amp_s = rng.normal(size=(m_band + 1, 2, d))
    amp_s[0] = 0.0

    def evaluate(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros((len(pts), d))
        for m in range(m_band + 1):
            cm, sm = np.cos(m * phi), np.sin(m * phi)
            for j in range(2):
                out += jv(m, ks[m, j] * r)[:, None] * (cm[:, None] * amp_c[m, j]
                                                       + sm[:, None] * amp_s[m, j])
        return out

    return evaluate


@pytest.mark.parametrize("fiber", [(0,), (0, 1)])
@pytest.mark.parametrize("m_band", range(6))
def test_band_limited_field_matches_per_mode_jv(m_band, fiber):
    spec = SO2RepSpec(fiber)
    rng = np.random.default_rng(100 + m_band)
    pts = np.vstack([rng.uniform(-1.0, 1.0, size=(400, 2)),
                     [[0.0, 0.0], [1e-8, 0.0], [0.0, -1e-8], [-3e-7, 4e-7], [1e-4, -1e-4]]])
    for seed in range(4):
        fast = AnalyticField.random_band_limited(spec, np.random.default_rng(seed), m_band)
        slow = _per_mode_jv_field(spec, np.random.default_rng(seed), m_band)
        assert np.abs(fast(pts) - slow(pts)).max() <= 1e-14


def test_bessel_recurrence_matches_scipy_jv():
    from scipy.special import jv

    cut = [np.nextafter(_SERIES_X, 0.0), _SERIES_X, np.nextafter(_SERIES_X, 1.0)]
    x = np.concatenate([np.linspace(0.0, 50.0, 6001), [0.0, 1e-300], cut])
    orders = np.arange(9)
    assert np.abs(_bessel_j(8, x) - jv(orders[:, None], x)).max() <= 3e-15
    # any argument shape; x == 0 gives J_0 = 1 and J_n = 0 exactly
    grid = x[:6000].reshape(3, 2, 1000)
    got = _bessel_j(8, grid)
    assert got.shape == (9, 3, 2, 1000)
    assert np.abs(got - jv(orders[:, None, None, None], grid)).max() <= 3e-15
    assert np.array_equal(_bessel_j(3, np.zeros(2)), [[1.0, 1.0]] + [[0.0, 0.0]] * 3)


@settings(max_examples=30, deadline=None)
@given(top=st.floats(0.0, 30.0), seed=st.integers(0, 2**31 - 1))
@example(top=0.0, seed=0).via("x == 0 only")
@example(top=2 * _SERIES_X, seed=1).via("all near the series cut")
def test_bessel_recurrence_satisfies_addition_identity(top, seed):
    # J_0^2 + 2 sum_n J_n^2 = 1; orders past 2 max(x) + 10 add far below rounding
    x = np.random.default_rng(seed).uniform(0.0, top, size=200)
    j = _bessel_j(70, x)
    assert np.abs(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2, axis=0) - 1.0).max() <= 5e-15


@settings(max_examples=40, deadline=None)
@given(m_band=st.integers(0, 5), radius=st.floats(1e-3, 1.4),
       fiber=st.sampled_from([(0,), (0, 1), (2,)]), seed=st.integers(0, 2**31 - 1))
def test_band_limited_field_is_band_limited_on_circles(m_band, radius, fiber, seed):
    field = AnalyticField.random_band_limited(SO2RepSpec(fiber), np.random.default_rng(seed),
                                              m_band)
    angles = 2.0 * np.pi * np.arange(64) / 64
    spectrum = np.fft.rfft(field(radius * np.stack([np.cos(angles), np.sin(angles)], 1)), axis=0)
    above = np.linalg.norm(spectrum[m_band + 1:])
    assert above <= 1e-13 * np.linalg.norm(spectrum)


@pytest.mark.parametrize("m_band", [-1, 2.5, "2", None])
def test_band_limited_field_rejects_bad_band(m_band):
    with pytest.raises(ValueError, match="m_band must be an integer >= 0"):
        AnalyticField.random_band_limited(SO2RepSpec((0,)), np.random.default_rng(0), m_band)


def _point_rotated(field, theta):
    """The field turned by ``theta`` as a function of points: its values at
    the turned-back points, fibers mixed. The reference for ``rotate_field``
    on a Bessel field, which turns the amplitudes instead."""
    rot_back = so2_block(1, -theta)
    mix = field.fiber_rep.matrix(theta)

    def rotated(points):
        return field(np.atleast_2d(points) @ rot_back.T) @ mix.T

    return AnalyticField(rotated, field.fiber_rep)


_FIELD_FIBERS = st.sampled_from([(0,), (0, 1), (0, 1, 2), (2,)])
_TURNS = st.one_of(st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]),
                   st.floats(-2.0 * np.pi, 2.0 * np.pi))


@settings(max_examples=80, deadline=None)
@given(fiber=_FIELD_FIBERS, m_band=st.integers(0, 5), n=st.integers(1, 33),
       thetas=st.lists(_TURNS, min_size=1, max_size=2), seed=st.integers(0, 2**31 - 1))
@example(fiber=(0, 1, 2), m_band=5, n=33, thetas=[np.pi / 2, -np.pi], seed=0).via("composed")
@example(fiber=(2,), m_band=0, n=1, thetas=[np.pi], seed=1).via("one point, m = 0 only")
def test_band_limited_rotation_matches_point_rotation(fiber, m_band, n, thetas, seed):
    rng = np.random.default_rng(seed)
    field = AnalyticField.random_band_limited(SO2RepSpec(fiber), rng, m_band)
    spacing = 2.0 * EXTENT / max(n - 1, 1)
    grid, off = _grid_positions(n, n, spacing), rng.uniform(-1.3, 1.3, size=(40, 2))
    rotated, want = field, field
    for theta in thetas:
        rotated, want = rotate_field(rotated, theta), _point_rotated(want, theta)
    on_grid, off_grid = want(grid), want(off)
    bound = 1e-14 * max(np.abs(on_grid).max(), np.abs(off_grid).max())
    assert np.abs(rotated.sample(n, spacing).values.reshape(n * n, -1) - on_grid).max() <= bound
    assert np.abs(rotated(off) - off_grid).max() <= bound


@settings(max_examples=40, deadline=None)
@given(fiber=_FIELD_FIBERS, m_band=st.integers(0, 5), n=st.integers(1, 33),
       seed=st.integers(0, 2**31 - 1))
def test_band_limited_sample_is_bit_identical_to_pointwise_values(fiber, m_band, n, seed):
    field = AnalyticField.random_band_limited(SO2RepSpec(fiber), np.random.default_rng(seed),
                                              m_band)
    spacing = 2.0 * EXTENT / max(n - 1, 1)
    want = field(_grid_positions(n, n, spacing)).reshape(n, n, -1)
    assert np.array_equal(field.sample(n, spacing).values, want)


@pytest.mark.parametrize("fiber", [(0,), (0, 1), (2,)])
@pytest.mark.parametrize("theta", [0.4, 2.0, -1.1])
def test_band_limited_rotation_by_the_wrong_sign_fails(fiber, theta):
    # negative control: amplitudes turned by -theta under the right fiber mix
    field = AnalyticField.random_band_limited(SO2RepSpec(fiber), np.random.default_rng(5))
    wrong = AnalyticField(field.func.rotated(-theta, field.fiber_rep.matrix(theta)),
                          field.fiber_rep)
    want = _point_rotated(field, theta).sample(24, 2.0 / 23).values
    got = wrong.sample(24, 2.0 / 23).values
    assert np.abs(got - want).max() > 1e-1 * np.abs(want).max()


def test_band_limited_samples_hold_no_mode_table():
    # each kept (field, sample) pair holds its values and a few small arrays;
    # the n x n mode tables stay in the bounded cache alone
    n, spacing = 32, 2.0 / 31
    rng = np.random.default_rng(0)
    _grid_modes.cache_clear()
    kept = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            field = AnalyticField.random_band_limited(SO2RepSpec((0,)), rng)
            kept.append((field, field.sample(n, spacing)))
            info = _grid_modes.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        _grid_modes.cache_clear()
        per_pair = (tracemalloc.get_traced_memory()[0] - base) / len(kept)
    finally:
        tracemalloc.stop()
    values = kept[0][1].values.nbytes  # 8 KB; a table is 12 times that
    assert values <= per_pair <= values + 4096
    # a field and its rotations share one table
    field = kept[-1][0]
    for theta in (0.0, 0.3, 2.0):
        rotate_field(field, theta).sample(n, spacing)
    assert _grid_modes.cache_info()[:2] == (2, 1)  # (hits, misses)


@pytest.mark.parametrize("n", [0, -3, 2.5, "8"])
def test_sample_rejects_bad_grid_size(n):
    field = AnalyticField(lambda p: p[:, :1], SO2RepSpec((0,)))
    with pytest.raises(ValueError, match="grid size n must be an integer >= 1"):
        field.sample(n, 0.1)


@pytest.mark.parametrize("spacing", [0.0, -0.1, np.nan, np.inf, True, "0.1", 0.1 + 0j])
def test_sample_rejects_bad_spacing(spacing):
    field = AnalyticField(lambda p: p[:, :1], SO2RepSpec((0,)))
    with pytest.raises(ValueError, match="spacing must be finite and positive"):
        field.sample(8, spacing)


@pytest.mark.parametrize("func, shape", [
    (lambda p: p, r"\(5, 2\)"),          # two components for a three-dim fiber
    (lambda p: p[:, 0], r"\(5,\)"),      # flat output
    (lambda p: np.ones((4, 3)), r"\(4, 3\)"),  # one row short
])
def test_field_call_rejects_wrong_output_shape(func, shape):
    field = AnalyticField(func, SO2RepSpec((0, 1)))
    pts = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValueError, match=r"field function output must have shape \(5, 3\), got "
                                         + shape):
        field(pts)


def test_field_call_rejects_non_finite_values():
    field = AnalyticField(lambda p: 1.0 / p[:, :1], SO2RepSpec((0,)))
    with pytest.raises(ValueError, match="field function output must be finite"), \
            np.errstate(divide="ignore"):
        field(np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("points", [
    np.zeros((1, 3)),                  # a third coordinate column
    np.zeros((2, 2, 2)),               # not a list of points
    np.array([[0.0, np.nan]]),
    np.array([[np.inf, 0.0], [0.1, 0.2]]),
    np.zeros((0, 2)),                  # no points
])
def test_field_call_rejects_bad_points(points):
    def never(p):
        raise AssertionError("the field function must not see bad points")

    with pytest.raises(ValueError, match=r"points must (have shape \(N, 2\)|be finite)"):
        AnalyticField(never, SO2RepSpec((0,)))(points)


# ---------------------------------------------------------------------------
# field rotation

def test_rotate_field_zero_angle_identity():
    rng = np.random.default_rng(3)
    field = PlanarFeatureField(rng.normal(size=(12, 12, 1)), 0.1, SO2RepSpec((0,)))
    rotated = rotate_field(field, 0.0)
    assert np.abs(rotated.values - field.values).max() < 1e-12


def _map_coordinates(values, coords):
    """scipy's order-1 resampler of each fiber component at (N, 2) (row, col)
    coordinates: the reference for ``rotate_field`` on sampled fields."""
    from scipy.ndimage import map_coordinates

    return np.stack([map_coordinates(values[:, :, v], coords.T, order=1, mode="constant")
                     for v in range(values.shape[2])], axis=1)


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 2**31 - 1))
def test_bilinear_matches_map_coordinates(h, w, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(h, w, 2))
    # half the points straddle the low edge of an axis, half the high edge
    coords = rng.uniform(-1.5, 0.5, size=(400, 2)) + rng.integers(0, 2, size=(400, 2)) * [h, w]
    edges = np.array([0.0, -1e-12, np.nextafter(0.0, -1.0)])  # on, just outside, one ulp out
    coords[:3, 0], coords[3:6, 0] = edges, (h - 1) - edges
    coords[6:9, 1], coords[9:12, 1] = edges, (w - 1) - edges
    assert np.abs(_bilinear(values, coords) - _map_coordinates(values, coords)).max() <= 1e-15


@pytest.mark.parametrize("fiber", [(0,), (0, 1)])
def test_rotate_sampled_field_matches_map_coordinates(fiber):
    spec = SO2RepSpec(fiber)
    rng = np.random.default_rng(8)
    field = PlanarFeatureField(rng.uniform(-1.0, 1.0, size=(20, 17, spec.dim)), 0.1, spec)
    h, w = field.shape
    for theta in (0.3, -2.0, np.pi / 2, np.pi):
        c, s = np.cos(theta), np.sin(theta)
        pts = field.positions() @ np.array([[c, -s], [s, c]])  # each point turned by -theta
        coords = pts / field.spacing + [(h - 1) / 2.0, (w - 1) / 2.0]
        want = _map_coordinates(field.values, coords) @ spec.matrix(theta).T
        assert np.abs(rotate_field(field, theta).values - want.reshape(h, w, -1)).max() <= 1e-15


def test_rotate_analytic_half_turn_twice():
    fld = AnalyticField(lambda p: (p[:, 0] + 2 * p[:, 1] ** 2)[:, None], SO2RepSpec((0,)))
    twice = rotate_field(rotate_field(fld, np.pi), np.pi)
    pts = np.random.default_rng(4).normal(size=(30, 2))
    assert np.abs(twice(pts) - fld(pts)).max() < 1e-12


def test_rotate_sampled_half_turn_twice_within_interp_error():
    rng = np.random.default_rng(5)
    fld = _sample_field(lambda p: np.exp(-np.sum(p ** 2, 1) / 0.2)[:, None]
                        * np.cos(3 * p[:, 0])[:, None], (0,), n=48)
    twice = rotate_field(rotate_field(fld, np.pi), np.pi)
    interior = (slice(8, -8), slice(8, -8))
    assert np.abs(twice.values[interior] - fld.values[interior]).max() < 5e-2


def test_rotate_field_trivial_fiber_transports_values():
    theta = 0.7
    fld = AnalyticField(lambda p: p[:, :1] ** 2, SO2RepSpec((0,)))
    rot = rotate_field(fld, theta)
    c, s = np.cos(theta), np.sin(theta)
    back = np.array([[c, s], [-s, c]])
    pts = np.random.default_rng(6).normal(size=(20, 2))
    assert np.abs(rot(pts) - fld(pts @ back.T)).max() < 1e-12


def test_rotate_field_mixes_vector_fibers():
    theta = 1.1
    fld = AnalyticField(lambda p: np.stack([np.ones(len(p)), np.zeros(len(p))], 1),
                        SO2RepSpec((1,)))
    rot = rotate_field(fld, theta)
    val = rot(np.array([[0.3, 0.2]]))[0]
    assert np.allclose(val, [np.cos(theta), np.sin(theta)])


# ---------------------------------------------------------------------------
# signal rotation

def test_rotate_signal_identity_and_inverse():
    rng = np.random.default_rng(7)
    sig = SphericalSignal(5, rng.normal(size=(2, 36)))
    ident = rotate_signal(sig, Rotation3.identity())
    assert np.abs(ident.coeffs - sig.coeffs).max() < 1e-14
    g = Rotation3.random(rng)
    back = rotate_signal(rotate_signal(sig, g), g.inverse())
    assert np.abs(back.coeffs - sig.coeffs).max() < 1e-10


def test_rotate_signal_preserves_degree_norms():
    rng = np.random.default_rng(8)
    sig = SphericalSignal(6, rng.normal(size=(1, 49)))
    g = Rotation3.random(rng)
    assert np.abs(rotate_signal(sig, g).degree_norms() - sig.degree_norms()).max() < 1e-10


def test_rotate_signal_matches_pointwise_rotation():
    rng = np.random.default_rng(9)
    sig = SphericalSignal(4, rng.normal(size=(1, 25)))
    g = Rotation3.random(rng)
    pts, _ = sphere_quadrature(4)
    rotated = rotate_signal(sig, g).synthesize(pts)
    moved = sig.synthesize(pts @ g.matrix())  # f(g^{-1} n) at each grid point
    assert np.abs(rotated - moved).max() < 1e-8


# ---------------------------------------------------------------------------
# nonlinearity

def test_relu_keeps_nonnegative_constant():
    coeffs = np.zeros((1, 16))
    coeffs[0, 0] = 3.0
    sig = SphericalSignal(3, coeffs)
    out = spherical_nonlinearity(sig, "relu")
    assert np.abs(out.coeffs - sig.coeffs).max() < 1e-10


def test_relu_split_reproduces_absolute_value():
    rng = np.random.default_rng(10)
    sig = SphericalSignal(3, rng.normal(size=(1, 16)))
    minus = SphericalSignal(3, -sig.coeffs)
    split = spherical_nonlinearity(sig, "relu").coeffs \
        + spherical_nonlinearity(minus, "relu").coeffs
    pts, wts = sphere_quadrature(6)
    y = SphericalHarmonicBasis(3).evaluate(pts)
    abs_coeffs = (np.abs(sig.synthesize(pts)) * wts) @ y
    assert np.abs(split - abs_coeffs).max() < 1e-10


def test_nonlinearity_equivariance_improves_with_oversampling():
    rng = np.random.default_rng(11)
    lmax = 4
    sig = SphericalSignal(lmax, rng.normal(size=(1, 25)))
    g = Rotation3.random(rng)
    residuals = []
    for band in (lmax, 2 * lmax, 4 * lmax):
        a = spherical_nonlinearity(rotate_signal(sig, g), "relu", band)
        b = rotate_signal(spherical_nonlinearity(sig, "relu", band), g)
        residuals.append(float(np.linalg.norm(a.coeffs - b.coeffs)))
    assert residuals[1] < residuals[0]
    assert residuals[2] < residuals[1]


def test_unknown_nonlinearity_rejected():
    sig = SphericalSignal(1, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        spherical_nonlinearity(sig, "tanh")


def test_nonlinearity_rejects_non_integer_band():
    sig = SphericalSignal(2, np.ones((1, 9)))
    with pytest.raises(ValueError, match="grid_band must be an integer"):
        spherical_nonlinearity(sig, "relu", 2.5)


@pytest.mark.parametrize("lmax, coeffs", [(2.0, np.ones((1, 9))), (-1, np.ones((1, 0))),
                                          (40, np.ones((1, 41 ** 2)))],
                         ids=["float", "negative", "above-max-ell"])
def test_signal_rejects_bad_degree(lmax, coeffs):
    # at 40, rotate_signal would fail only at its 34th block, naming neither lmax nor 40
    with pytest.raises(ValueError, match=r"lmax must be an integer in \[0, 32\]"):
        SphericalSignal(lmax, coeffs)


def test_signal_rejects_coefficients_with_more_axes():
    # atleast_2d leaves a 3-D array as it is; rotation and the nonlinearity
    # would then fail late in a matrix product
    with pytest.raises(ValueError,
                       match=r"coefficients must have shape \(channels, 9\), got \(1, 9, 1\)"):
        SphericalSignal(2, np.ones((1, 9, 1)))


# ---------------------------------------------------------------------------
# correlation head

def test_correlation_pointwise_identity():
    rng = np.random.default_rng(12)
    sig = SphericalSignal(4, rng.normal(size=(3, 25)))
    filt = SphericalSignal(4, rng.normal(size=(3, 25)))
    corr = sphere_to_so3_correlation(sig, filt)
    for _ in range(8):
        g = Rotation3.random(rng)
        direct = float(np.sum(rotate_signal(filt, g).coeffs * sig.coeffs))
        assert abs(corr.evaluate([g])[0] - direct) < 1e-8


def test_zero_filter_gives_zero_output():
    rng = np.random.default_rng(13)
    sig = SphericalSignal(3, rng.normal(size=(1, 16)))
    corr = sphere_to_so3_correlation(sig, SphericalSignal(3, np.zeros((1, 16))))
    gs = [Rotation3.random(rng) for _ in range(4)]
    assert np.abs(corr.evaluate(gs)).max() == 0.0


def test_correlation_left_equivariance():
    rng = np.random.default_rng(14)
    sig = SphericalSignal(4, rng.normal(size=(2, 25)))
    filt = SphericalSignal(4, rng.normal(size=(2, 25)))
    g0 = Rotation3.random(rng)
    lhs = sphere_to_so3_correlation(rotate_signal(sig, g0), filt)
    rhs = sphere_to_so3_correlation(sig, filt).left_rotate(g0)
    gs = [Rotation3.random(rng) for _ in range(10)]
    assert np.abs(lhs.evaluate(gs) - rhs.evaluate(gs)).max() < 1e-8


def test_self_correlation_peaks_at_identity_cell():
    rng = np.random.default_rng(15)
    sig = SphericalSignal(5, rng.normal(size=(1, 36)))
    corr = sphere_to_so3_correlation(sig, sig)
    grid = so3_equiangular_grid(10, 6, 10)
    values = corr.evaluate(grid)
    top = grid[int(np.argmax(values))]
    assert np.abs(top.matrix() - np.eye(3)).max() < 1e-12


def _pointwise_readout(signal, rotations):
    """The readout as one Wigner matrix per rotation and degree."""
    return np.array([sum(float(np.sum(wigner_d(ell, g) * blk))
                         for ell, blk in enumerate(signal.blocks))
                     for g in rotations])


ROTATIONS = st.builds(Rotation3, st.floats(0.0, 2 * np.pi), st.floats(0.0, np.pi),
                      st.floats(0.0, 2 * np.pi))
# equiangular grids hold beta = 0 and beta = pi and repeat each beta many times
READOUT_SETS = st.one_of(
    st.lists(ROTATIONS, max_size=40),
    st.lists(ROTATIONS, min_size=1, max_size=1),
    st.builds(so3_equiangular_grid, st.integers(1, 8), st.integers(2, 7), st.integers(1, 8)),
)


@settings(max_examples=40, deadline=None)
@given(lmax=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), rotations=READOUT_SETS)
@example(lmax=12, seed=0, rotations=[])
@example(lmax=12, seed=1, rotations=[Rotation3(1.0, np.pi, 2.0)])
@example(lmax=6, seed=2, rotations=so3_equiangular_grid(24, 12, 24))
def test_batched_readout_matches_pointwise_wigner(lmax, seed, rotations):
    rng = np.random.default_rng(seed)
    signal = SO3Signal(lmax, tuple(rng.normal(size=(2 * l + 1, 2 * l + 1))
                                   for l in range(lmax + 1)))
    got = signal.evaluate(rotations)
    assert got.shape == (len(rotations),)
    scale = np.sqrt(sum(float(np.sum(blk ** 2)) for blk in signal.blocks))
    assert np.abs(got - _pointwise_readout(signal, rotations)).max(initial=0.0) <= 1e-12 * scale


def _rebuilt_grid_dot(ell, alphas, betas, gammas, block):
    """The readout of one degree as it was before the grid kept its tables:
    every grid-only factor rebuilt on each call, then the two products."""
    y = so2_so3._wigner_y(ell, betas)
    rows = np.concatenate([y, y[:, ::-1]], axis=1)
    folded = np.concatenate([rows, rows[:, :, ::-1]], axis=2) * np.tile(block, (2, 2))
    size = 2 * (2 * ell + 1)
    per_cell = (np.hstack(so2_so3._z_factor(ell, alphas))
                @ folded.transpose(1, 0, 2).reshape(size, -1)).reshape(-1, size)
    return (per_cell @ np.hstack(so2_so3._z_factor(ell, np.negative(gammas))).T).ravel()


def _rebuilt_readout(signal, rotations):
    if not isinstance(rotations, SO3Grid):
        return np.array([_rebuilt_readout(signal, SO3Grid([g.alpha], [g.beta], [g.gamma]))[0]
                         for g in rotations], dtype=float)
    out = np.zeros(len(rotations))
    for ell, blk in enumerate(signal.blocks):
        out += _rebuilt_grid_dot(ell, rotations.alphas, rotations.betas, rotations.gammas, blk)
    return out


@settings(max_examples=40, deadline=None)
@given(lmax=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), rotations=READOUT_SETS)
@example(lmax=6, seed=0, rotations=so3_equiangular_grid(24, 12, 24)).via("demo pose grid")
@example(lmax=6, seed=1, rotations=so3_equiangular_grid(12, 6, 12)).via("benchmark grid")
@example(lmax=0, seed=2, rotations=so3_equiangular_grid(1, 2, 1)).via("beta 0 and pi")
@example(lmax=4, seed=3, rotations=[Rotation3(1.0, np.pi, 2.0), Rotation3(0.5, 0.0, 0.0)])
def test_grid_tables_read_out_bit_identically_to_rebuilt_factors(lmax, seed, rotations):
    rng = np.random.default_rng(seed)
    signal = SO3Signal(lmax, tuple(rng.normal(size=(2 * l + 1, 2 * l + 1))
                                   for l in range(lmax + 1)))
    want = _rebuilt_readout(signal, rotations)
    assert np.array_equal(signal.evaluate(rotations), want)
    assert np.array_equal(signal.evaluate(rotations), want)  # from the kept tables


def test_each_grid_builds_each_degree_table_once(monkeypatch):
    calls, wigner_y = [], so2_so3._wigner_y

    def counting(ell, betas):
        calls.append(ell)
        return wigner_y(ell, betas)

    monkeypatch.setattr(so2_so3, "_wigner_y", counting)
    rng = np.random.default_rng(0)
    grid, other = so3_equiangular_grid(6, 4, 6), so3_equiangular_grid(6, 4, 6)
    low, high = (SO3Signal(lmax, tuple(rng.normal(size=(2 * l + 1, 2 * l + 1))
                                       for l in range(lmax + 1))) for lmax in (2, 4))
    first = [low.evaluate(grid), high.evaluate(grid)]
    assert calls == [0, 1, 2, 3, 4]  # the lmax 4 read builds only degrees 3 and 4
    assert np.array_equal(low.evaluate(grid), first[0])
    assert np.array_equal(high.evaluate(grid), first[1])
    assert calls == [0, 1, 2, 3, 4]
    # a second grid with the same axes keeps tables of its own
    assert np.array_equal(high.evaluate(other), first[1])
    assert calls == [0, 1, 2, 3, 4] * 2
    assert all(not arr.flags.writeable for arr in grid._readout_table(4))


def test_so3_grid_builds_the_product_list_on_demand():
    alphas = np.arange(5) * (2.0 * np.pi / 5)
    betas = np.linspace(0.0, np.pi, 4)
    gammas = np.arange(3) * (2.0 * np.pi / 3)
    expected = [Rotation3(a, b, g) for a in alphas for b in betas for g in gammas]
    grid = so3_equiangular_grid(5, 4, 3)
    assert len(grid) == len(expected) == 60
    assert grid[0] == expected[0]
    assert grid[-1] == grid[len(grid) - 1] == expected[-1]
    assert grid[-60] == expected[0]
    with pytest.raises(IndexError):
        grid[len(grid)]
    with pytest.raises(IndexError):
        grid[-61]
    assert list(grid) == expected
    assert [grid[i] for i in range(len(grid))] == expected
    with pytest.raises(ValueError, match="betas"):
        SO3Grid([0.0], [-0.5], [0.0])
    with pytest.raises(ValueError, match="finite"):
        SO3Grid([np.nan], [0.0], [0.0])


@pytest.mark.parametrize("counts", [(2.5, 3, 3), (3, 3.0, 3), (3, 3, 0)])
def test_so3_grid_rejects_non_integer_counts(counts):
    # 2.5 alphas spaced 2 pi / 2.5 would leave a 72 degree gap at the wrap
    with pytest.raises(ValueError, match="grid counts must be an integer >= 1"):
        so3_equiangular_grid(*counts)


@pytest.mark.parametrize("blocks, message", [
    ((np.ones((1, 1)),), "need lmax"),
    ((np.ones((1, 1)), np.ones((3, 2))), "block 1 must have shape"),
    ((np.ones((1, 1)), np.full((3, 3), np.nan)), "block 1 must be finite"),
])
def test_so3_signal_rejects_malformed_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        SO3Signal(1, blocks)


@pytest.mark.parametrize("build, given, read", [
    (lambda a: PlanarFeatureField(a, 0.1, SO2RepSpec((0,))), np.ones((4, 4, 1)),
     lambda v: v.values),
    (lambda a: SphericalSignal(1, a), np.ones((2, 4)), lambda v: v.coeffs),
    (lambda a: SO3Signal(1, (np.ones((1, 1)), a)), np.eye(3), lambda v: v.blocks[1]),
], ids=["field", "signal", "so3_signal"])
def test_values_keep_their_own_copy_of_the_callers_array(build, given, read):
    # a float64 C-ordered array used to be frozen in place, or kept and aliased
    a = given.copy()
    value = build(a)
    assert a.flags.writeable and not read(value).flags.writeable
    a[...] = 7.0
    assert not np.any(read(value) == 7.0)


_Z = 1.0 + 0.5j


@pytest.mark.parametrize("build, name", [
    (lambda: PlanarFeatureField(np.full((4, 4, 1), _Z), 0.1, SO2RepSpec((0,))), "field values"),
    (lambda: SphericalSignal(1, np.full(4, _Z)), "coefficients"),
    (lambda: SO3Signal(0, (np.full((1, 1), _Z),)), "block 0"),
    (lambda: SO3Grid([0.0], [_Z], [0.0]), "grid angles"),
    (lambda: AnalyticField(lambda p: p[:, :1] * _Z, SO2RepSpec((0,)))(np.ones((2, 2))),
     "field function output"),
    (lambda: AnalyticField(lambda p: p[:, :1], SO2RepSpec((0,)))(np.full((2, 2), _Z)), "points"),
    (lambda: Rotation3.from_matrix(np.eye(3) * _Z), "rotation matrix"),
    (lambda: SphericalHarmonicBasis(2).evaluate(np.array([0.0, 0.0, _Z])), "points"),
    (lambda: SO2RepSpec((1,)).matrix([0.5 * _Z]), "theta"),
], ids=["field", "signal", "so3_signal", "grid", "call", "points", "from_matrix", "harmonics",
        "so2_matrix"])
def test_complex_input_is_rejected_not_cut_to_real(build, name):
    # numpy would drop the imaginary part with only a ComplexWarning
    with pytest.raises(ValueError, match=f"^{name} must be real$"):
        build()


def test_empty_input_is_rejected_where_it_comes_in():
    # an empty field used to reach the lift and fail there in a numpy reshape
    with pytest.raises(ValueError,
                       match=r"field values must have shape \(H, W, 1\), got \(0, 8, 1\)"):
        PlanarFeatureField(np.zeros((0, 8, 1)), 0.1, SO2RepSpec((0,)))
    with pytest.raises(ValueError, match=r"grid angles must have shape \(n,\), got \(0,\)"):
        SO3Grid([0.0], [], [0.0])


@pytest.mark.parametrize("lmax", [2.0, -1, 33])
def test_so3_signal_rejects_a_degree_outside_the_certified_range(lmax):
    # at 33 the evaluator would build J_0..J_33, past MAX_ELL
    ells = range(int(lmax) + 1) if lmax >= 0 else ()
    blocks = tuple(np.eye(2 * ell + 1) for ell in ells)
    with pytest.raises(ValueError, match=r"lmax must be an integer in \[0, 32\], got"):
        SO3Signal(lmax, blocks)


# ---------------------------------------------------------------------------
# harness and gradients

def _small_grid_worst(width):
    """The worst harness residual at the coarsest grid in use, lmax 2 and
    grid_n 24, over seeds 0-39 at two trials and seeds 0-9 at twenty, for a
    ring of this width placed where its tail is machine epsilon at EXTENT."""
    r_max = EXTENT - width * np.sqrt(-2.0 * np.log(np.finfo(float).eps))
    config = LayerConfig(lmax=2, grid_n=24)
    kernel = build_induction_kernel(config.fiber, 1, 2, RadialProfileSet(2, r_max, width))
    runs = [(2, seed) for seed in range(40)] + [(20, seed) for seed in range(10)]
    return max(equivariance_harness(config, trials=trials, seed=seed, kernel=kernel).max_residual
               for trials, seed in runs)


def test_ring_constants_follow_their_rule():
    # tail: the outer profile is machine epsilon at the inscribed radius
    outer = RadialProfileSet(2, R_MAX, RADIAL_WIDTH).evaluate(np.array([EXTENT]))[-1, 0]
    assert outer == pytest.approx(np.finfo(float).eps, rel=1e-9, abs=0.0)
    # width: the narrowest, in steps of 0.002, that keeps the coarsest grid's
    # harness under half its 1e-5 tolerance over the seed sweep
    assert round(RADIAL_WIDTH / 0.002) * 0.002 == pytest.approx(RADIAL_WIDTH, abs=1e-12)
    assert _small_grid_worst(RADIAL_WIDTH) < 1e-5 / 2
    assert _small_grid_worst(RADIAL_WIDTH - 0.002) >= 1e-5 / 2


def test_sphere_grid_is_cached_read_only():
    from planelift.layers import _sphere_grid

    y, wts = _sphere_grid(3)
    assert _sphere_grid(3)[0] is y and _sphere_grid(3)[1] is wts
    assert not y.flags.writeable and not wts.flags.writeable
    # a cached int band must not let an equal float band past the check
    _sphere_grid(3, 6)
    with pytest.raises(ValueError, match="grid_band must be an integer"):
        _sphere_grid(3, 6.0)


def test_harness_isotropic_case_is_exact():
    config = LayerConfig(lmax=0, grid_n=32)
    report = equivariance_harness(config, trials=2, theta_samples=2, seed=1)
    assert report.max_residual < 1e-12


def test_harness_passes_at_moderate_band():
    config = LayerConfig(lmax=4, grid_n=48)
    report = equivariance_harness(config, trials=3, theta_samples=2, seed=2)
    assert report.passed
    assert report.max_residual < 1e-6


def test_harness_vector_fibers():
    config = LayerConfig(lmax=3, fiber_freqs=(0, 1), grid_n=48)
    report = equivariance_harness(config, trials=2, theta_samples=2, seed=3)
    assert report.max_residual < 1e-6


def test_harness_fails_on_corrupted_kernel():
    rng = np.random.default_rng(16)
    config = LayerConfig(lmax=3, grid_n=32)
    broken = corrupt_kernel(config.build_kernel(), rng)
    report = equivariance_harness(config, trials=2, theta_samples=2, seed=4,
                                  kernel=broken)
    assert not report.passed
    assert report.max_residual > 1e-1


def _parent_corrupt_kernel(kernel, rng):
    """The negative control's draw loop as it was written in ``layers``."""
    from dataclasses import replace

    from planelift.kernels import _AngularSolution

    bases = []
    for basis in kernel.bases:
        broken = tuple(
            _AngularSolution(sol.m, rng.normal(size=sol.cos_coeff.shape),
                             rng.normal(size=sol.sin_coeff.shape))
            for sol in basis.angular)
        bases.append(replace(basis, angular=broken))
    return replace(kernel, bases=tuple(bases))


@pytest.mark.parametrize("fiber", [(0,), (0, 1), (0, 1, 2)])
def test_corrupt_kernel_lives_in_kernels_and_keeps_its_draws(fiber):
    from planelift import kernels, layers

    assert layers.corrupt_kernel is kernels.corrupt_kernel
    kernel = _cached_kernel(fiber, 2, 2)
    got = corrupt_kernel(kernel, np.random.default_rng(16))
    want = _parent_corrupt_kernel(kernel, np.random.default_rng(16))
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 2))
    w = np.random.default_rng(2).normal(size=(2, kernel.weight_count))
    for a, b in zip(got.coefficient_blocks(w, pts), want.coefficient_blocks(w, pts)):
        assert np.array_equal(a, b)
    for a, b in zip(got.bases, want.bases):
        assert a.count == b.count
        for sa, sb in zip(a.angular, b.angular):
            assert sa.m == sb.m
            assert np.array_equal(sa.cos_coeff, sb.cos_coeff)
            assert np.array_equal(sa.sin_coeff, sb.sin_coeff)


def test_harness_requires_trials():
    with pytest.raises(ValueError):
        equivariance_harness(LayerConfig(lmax=1), trials=0)
    # no angle means no comparison: the harness must not pass vacuously
    with pytest.raises(ValueError, match="rotation angle"):
        equivariance_harness(LayerConfig(lmax=1), trials=2, theta_samples=0)
    with pytest.raises(ValueError, match="trials must be an integer"):
        equivariance_harness(LayerConfig(lmax=1), trials=1.5)
    # True used to pass as a tolerance of 1.0
    for tolerance in (0.0, np.nan, True):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            equivariance_harness(LayerConfig(lmax=1), trials=1, tolerance=tolerance)


@pytest.mark.parametrize("grid_n", [48.5, 1])
def test_layer_config_rejects_bad_grid_size(grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer >= 2"):
        LayerConfig(grid_n=grid_n)


def test_gradient_check_linear_path():
    config = LayerConfig(lmax=2, grid_n=20)
    assert gradient_check(config, nonlinearity=None, seed=5) < 1e-8


def test_gradient_check_softplus_path():
    config = LayerConfig(lmax=2, grid_n=20)
    assert gradient_check(config, nonlinearity="softplus", seed=6) < 1e-6


def test_zero_configuration_has_zero_gradient():
    from planelift.layers import _loss_and_grad
    kernel = _small_kernel()
    field = PlanarFeatureField(np.zeros((12, 12, 1)), 0.1, SO2RepSpec((0,)))
    loss, grad = _loss_and_grad(kernel, field,
                                np.zeros((1, kernel.weight_count)), None)
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_harness_fields_default_to_the_one_field_band():
    # the default band is FIELD_BAND, 2 as before, so every seed draws the field it drew
    assert FIELD_BAND == 2
    for seed in range(4):
        default = AnalyticField.random_band_limited(SO2RepSpec((0, 1)), np.random.default_rng(seed))
        explicit = AnalyticField.random_band_limited(SO2RepSpec((0, 1)),
                                                     np.random.default_rng(seed), m_band=2)
        assert np.array_equal(default.sample(8, 0.2).values, explicit.sample(8, 0.2).values)


def test_synthesis_rejects_points_off_the_unit_sphere():
    sig = SphericalSignal(2, np.ones((1, 9)))
    with pytest.raises(ValueError, match="points must be unit vectors"):
        sig.synthesize(np.array([[0.0, 0.0, 2.0]]))
