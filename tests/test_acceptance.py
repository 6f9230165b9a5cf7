"""Acceptance suite: one check per shipped guarantee, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion, or execute the module directly for the same report without pytest.
"""

import json

import numpy as np

from planelift.cli import main as cli_main
from planelift.groups import build_group, coset_decomposition, named_embedding
from planelift.induce_restrict import (
    branching_table,
    check_frobenius,
    completeness_check,
    induce,
    induction_table,
    restrict,
)
from planelift.kernels import (
    RadialProfileSet,
    SO2RepSpec,
    build_induction_kernel,
    build_r3s2_kernel,
    build_so3_kernel,
    build_volume_kernel,
    grid_nullspace_dimension,
    solve_so2_basis,
)
from planelift.layers import (
    FIELD_BAND,
    AnalyticField,
    LayerConfig,
    SphericalSignal,
    _lift_response,
    corrupt_kernel,
    equivariance_harness,
    gradient_check,
    rotate_field,
    rotate_signal,
    so3_equiangular_grid,
    sphere_to_so3_correlation,
)
from planelift.reps import decompose, direct_sum, irrep_table, regular_representation
from planelift.so2_so3 import (
    Rotation3,
    SphericalHarmonicBasis,
    restrict_wigner,
    wigner_d,
    wigner_d_z,
)
from planelift.tetra import TriangleFilterBank, fixture_cosets, induced_block_matrices, tetra_induce

try:
    from tests.test_tetra import GOLDEN_ROWS
except ModuleNotFoundError:  # direct execution: the tests directory is sys.path[0]
    from test_tetra import GOLDEN_ROWS

EMBEDDINGS = [("Z3", "A4"), ("Z1", "Z3"), ("Z1", "A4"), ("Z5", "A5")]
OMEGA = np.exp(2j * np.pi / 3)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_01_frobenius_reciprocity():
    ok = True
    for sub, parent in EMBEDDINGS:
        emb = named_embedding(sub, parent)
        cos = coset_decomposition(emb)
        good, _ = check_frobenius(branching_table(emb), induction_table(cos))
        ok = ok and good
    emb = named_embedding("Z3", "A4")
    cos = coset_decomposition(emb)
    parent_t, sub_t = irrep_table(emb.parent), irrep_table(emb.sub)
    expected_ind = {
        "chi0": {"triv": 1, "std3": 1},
        "chi1": {"omega_plus": 1, "std3": 1},
        "chi2": {"omega_minus": 1, "std3": 1},
    }
    for lbl, want in expected_ind.items():
        got = decompose(induce(sub_t.by_label(lbl), cos), parent_t).multiplicities
        ok = ok and got == want
    res = decompose(restrict(parent_t.by_label("std3"), emb), sub_t).multiplicities
    ok = ok and res == {"chi0": 1, "chi1": 1, "chi2": 1}
    _report("criterion 1: Frobenius reciprocity (B = I^T, four embeddings + fixtures)", ok)


def test_criterion_02_completeness():
    ok = all(completeness_check(named_embedding(s, p)) for s, p in EMBEDDINGS)
    emb = named_embedding("Z3", "A4")
    lifted = induce(regular_representation(emb.sub), coset_decomposition(emb))
    dec = decompose(lifted, irrep_table(emb.parent)).multiplicities
    ok = ok and dec == {"triv": 1, "omega_plus": 1, "omega_minus": 1, "std3": 3}
    _report("criterion 2: completeness (induced regular = regular)", ok)


def test_criterion_03_dimension_law():
    rng = np.random.default_rng(100)
    checked = 0
    ok = True
    plan = [("Z3", "A4", 20), ("Z1", "Z3", 10), ("Z1", "A4", 10), ("Z5", "A5", 10)]
    for sub, parent, repeats in plan:
        emb = named_embedding(sub, parent)
        cos = coset_decomposition(emb)
        sub_t = irrep_table(emb.sub)
        labels = [r.label for r in sub_t.irreps]
        for _ in range(repeats):
            picks = rng.choice(labels, size=int(rng.integers(1, 4)))
            rep = sub_t.by_label(picks[0])
            for lbl in picks[1:]:
                rep = direct_sum(rep, sub_t.by_label(lbl))
            ok = ok and induce(rep, cos).dim == emb.index * rep.dim
            checked += 1
    _report("criterion 3: dimension law dim(Ind) = index * dim", ok and checked == 50,
            f"{checked} random direct sums")


def test_criterion_04_tetra_fixtures():
    cos = fixture_cosets()
    a4 = cos.embedding.parent
    rng = np.random.default_rng(101)
    bank = TriangleFilterBank(rng.normal(size=(4, 3, 2)).astype(complex))
    fn = tetra_induce(bank, cos)
    rows_ok = all(
        np.array_equal(fn.values[a4.element_index(lbl), i], bank.values[f, h])
        for lbl, blocks in GOLDEN_ROWS.items() for i, (f, h) in enumerate(blocks))

    r1 = induced_block_matrices("chi0", cos).matrices.real
    hom_exact = all(np.array_equal(r1[a] @ r1[b], r1[a4.mul[a, b]])
                    for a in range(12) for b in range(12))
    hom_pm = True
    for label in ("chi1", "chi2"):
        mats = induced_block_matrices(label, cos).matrices
        for a in range(12):
            for b in range(12):
                err = np.abs(mats[a] @ mats[b] - mats[a4.mul[a, b]]).max()
                hom_pm = hom_pm and err < 1e-12

    c123 = a4.class_of(a4.element_index("(1,2,3)"))
    c132 = a4.class_of(a4.element_index("(1,3,2)"))
    cflip = a4.class_of(a4.element_index("(1,2)(3,4)"))
    chars_ok = True
    table = {"chi0": (4, 1, 1, 0), "chi1": (4, OMEGA, np.conj(OMEGA), 0),
             "chi2": (4, np.conj(OMEGA), OMEGA, 0)}
    for label, (v_e, v_123, v_132, v_flip) in table.items():
        chars = induced_block_matrices(label, cos).character()
        for cls, val in [(0, v_e), (c123, v_123), (c132, v_132), (cflip, v_flip)]:
            chars_ok = chars_ok and abs(chars[cls] - val) < 1e-12

    _report("criterion 4: tetra stacking rows and induced matrices",
            rows_ok and hom_exact and hom_pm and chars_ok,
            "12 golden rows, homomorphism, characters")


def test_criterion_05_harmonics():
    rng = np.random.default_rng(102)
    basis = SphericalHarmonicBasis(8)
    worst_eq = 0.0
    for _ in range(100):
        g = Rotation3.random(rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        rotated = basis.evaluate(g.matrix() @ n)
        base = basis.evaluate(n)
        for ell in range(9):
            sl = SphericalHarmonicBasis.slice_of(ell)
            worst_eq = max(worst_eq, float(np.abs(rotated[sl] - wigner_d(ell, g) @ base[sl]).max()))

    worst_comp = 0.0
    for _ in range(100):
        a, b = Rotation3.random(rng), Rotation3.random(rng)
        ab = a.compose(b)
        for ell in (1, 4, 8):
            err = np.abs(wigner_d(ell, ab) - wigner_d(ell, a) @ wigner_d(ell, b)).max()
            worst_comp = max(worst_comp, float(err))

    theta = 0.25 / 8.0
    restrict_ok = True
    for ell in range(9):
        mult, _ = restrict_wigner(ell)
        restrict_ok = restrict_ok and mult == {k: 1 for k in range(ell + 1)}
        eig = np.linalg.eigvals(wigner_d_z(ell, theta))
        freqs = sorted(int(round(f)) for f in np.angle(eig) / theta)
        restrict_ok = restrict_ok and freqs == list(range(-ell, ell + 1))

    _report("criterion 5: harmonics and Wigner matrices",
            worst_eq < 1e-10 and worst_comp < 1e-10 and restrict_ok,
            f"equivariance {worst_eq:.1e}, composition {worst_comp:.1e}")


def test_criterion_06_kernel_solver():
    rng = np.random.default_rng(103)
    radial = RadialProfileSet(1, 1.0)
    counts_ok = True
    worst_steer = 0.0
    for _ in range(20):
        rin = SO2RepSpec(tuple(int(k) for k in rng.integers(0, 5, size=rng.integers(1, 3))))
        rout = SO2RepSpec(tuple(int(k) for k in rng.integers(0, 5, size=rng.integers(1, 3))))
        m_max = rin.max_freq + rout.max_freq
        solved = solve_so2_basis(rin, rout, radial, m_max)
        counts_ok = counts_ok and solved.n_angular == grid_nullspace_dimension(rin, rout)
        thetas = rng.uniform(0, 2 * np.pi, size=10)
        pts = rng.normal(size=(20, 2))
        base = solved.evaluate_all(pts)
        for theta in thetas:  # 10 angles x 20 radii = 200 samples per element
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            lhs = solved.evaluate_all(pts @ rot.T)
            rhs = np.einsum("ou,bnuv,wv->bnow", rout.matrix(theta), base, rin.matrix(theta))
            for idx in range(solved.count):
                worst_steer = max(worst_steer, float(np.abs(lhs[idx] - rhs[idx]).max()))

    # assembled constraints of the four kernel families
    fiber = SO2RepSpec((0, 1))
    pts = rng.normal(size=(10, 2)) * 0.4
    nhat = np.array([0.3, -0.5, 0.81])
    nhat /= np.linalg.norm(nhat)
    pole = Rotation3(np.arctan2(nhat[1], nhat[0]), np.arccos(nhat[2]), 0.0)  # e_z to nhat
    worst_fam = 0.0

    def rot2(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]])

    sphere = build_induction_kernel(fiber, 1, 3, RadialProfileSet(2, 0.5, width=0.12))
    w = rng.normal(size=(1, sphere.weight_count))
    for theta in rng.uniform(0, 2 * np.pi, size=4):
        hz = Rotation3.about_z(theta)
        lhs = sphere.kappa(w, hz.compose(pole), pts @ rot2(theta).T)
        rhs = np.einsum("ncv,wv->ncw", sphere.kappa(w, pole, pts), fiber.matrix(theta))
        worst_fam = max(worst_fam, float(np.abs(lhs - rhs).max()))

    so3 = build_so3_kernel(fiber, (0, 1), 2, RadialProfileSet(1, 0.5, width=0.15))
    wf = rng.normal(size=so3.weight_count)
    g = Rotation3.random(rng)
    for theta in rng.uniform(0, 2 * np.pi, size=3):
        hz = Rotation3.about_z(theta)
        out_rot = np.zeros((so3.out_dim, so3.out_dim))
        pos = 0
        for ell in so3.out_ells:
            d = 2 * ell + 1
            out_rot[pos:pos + d, pos:pos + d] = wigner_d(ell, hz)
            pos += d
        lhs = so3.kappa(wf, hz.compose(g), pts @ rot2(theta).T)
        rhs = np.einsum("ou,nuv,wv->now", out_rot, so3.kappa(wf, g, pts), fiber.matrix(theta))
        worst_fam = max(worst_fam, float(np.abs(lhs - rhs).max()))

    volume = build_volume_kernel(fiber, (1,), (-0.3, 0.4), RadialProfileSet(2, 0.5))
    wv = rng.normal(size=volume.bases[0].count)
    for _ in volume.heights:  # every height reads the one kernel
        for theta in rng.uniform(0, 2 * np.pi, size=3):
            lhs = volume.kappa(wv, g, pts @ rot2(theta).T)
            rhs = np.einsum("ou,nuv,wv->now", wigner_d_z(1, theta),
                            volume.kappa(wv, g, pts), fiber.matrix(theta))
            worst_fam = max(worst_fam, float(np.abs(lhs - rhs).max()))

    r3s2 = build_r3s2_kernel(SO2RepSpec((0,)), 2, (0.0, 0.7),
                             RadialProfileSet(2, 0.5, width=0.12))
    wr = rng.normal(size=(1, r3s2.weight_count))
    for _ in r3s2.heights:
        base = r3s2.kappa(wr, pole, pts)
        for theta in rng.uniform(0, 2 * np.pi, size=3):
            hz = Rotation3.about_z(theta)
            lhs = r3s2.kappa(wr, hz.compose(pole), pts @ rot2(theta).T)
            worst_fam = max(worst_fam, float(np.abs(lhs - base).max()))

    _report("criterion 6: kernel solver vs oracle and family constraints",
            counts_ok and worst_steer < 1e-8 and worst_fam < 1e-8,
            f"steer {worst_steer:.1e}, families {worst_fam:.1e}")


def test_criterion_07_end_to_end_equivariance():
    config = LayerConfig(lmax=6, grid_n=64)
    report = equivariance_harness(config, trials=20, theta_samples=2, seed=7,
                                  tolerance=1e-5)
    rng = np.random.default_rng(104)
    broken = corrupt_kernel(config.build_kernel(), rng)
    negative = equivariance_harness(config, trials=2, theta_samples=2, seed=7,
                                    kernel=broken)
    _report("criterion 7: end-to-end layer equivariance at lmax=6",
            report.passed and negative.max_residual > 1e-1,
            f"max residual {report.max_residual:.2e}, "
            f"negative control {negative.max_residual:.2e}")


def test_criterion_08_gradient_check():
    config = LayerConfig(lmax=2, grid_n=24)
    err_soft = gradient_check(config, nonlinearity="softplus", seed=105)
    err_lin = gradient_check(config, nonlinearity=None, seed=105)
    _report("criterion 8: analytic vs finite-difference gradients",
            err_soft < 1e-6 and err_lin < 1e-8,
            f"softplus {err_soft:.2e}, linear {err_lin:.2e}")


def test_criterion_09_correlation_head():
    rng = np.random.default_rng(106)
    sig = SphericalSignal(5, rng.normal(size=(2, 36)))
    filt = SphericalSignal(5, rng.normal(size=(2, 36)))
    g0 = Rotation3.random(rng)
    lhs = sphere_to_so3_correlation(rotate_signal(sig, g0), filt)
    rhs = sphere_to_so3_correlation(sig, filt).left_rotate(g0)
    samples = [Rotation3.random(rng) for _ in range(20)]
    worst = float(np.abs(lhs.evaluate(samples) - rhs.evaluate(samples)).max())

    selfc = sphere_to_so3_correlation(sig, sig)
    grid = so3_equiangular_grid(12, 7, 12)
    values = selfc.evaluate(grid)
    top = grid[int(np.argmax(values))]
    at_identity = np.abs(top.matrix() - np.eye(3)).max() < 1e-12
    _report("criterion 9: correlation head",
            worst < 1e-8 and at_identity,
            f"left-equivariance {worst:.1e}, argmax at identity cell")


def _capture_cli(argv: list[str]) -> bytes:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(argv)
    return buf.getvalue().encode()


def test_criterion_10_cli_determinism():
    runs = [
        ["frobenius", "--group", "A4", "--subgroup", "Z3"],
        ["kernel-basis", "--in", "0:1", "--out-lmax", "3", "--radial", "2"],
        ["equivariance", "--lmax", "2", "--trials", "2", "--seed", "7",
         "--grid-n", "32"],
    ]
    ok = True
    for argv in runs:
        first = _capture_cli(argv)
        second = _capture_cli(argv)
        ok = ok and first == second and len(first) > 0
        ok = ok and isinstance(json.loads(first.decode()), dict)
    _report("criterion 10: CLI determinism (byte-identical reruns)", ok)


def _degree_defects(config, kernel, trials=6, seed=111):
    """Per-degree equivariance defect of the lift, sup over the weights: the
    spectral norm of ``E_l = R_l(rot f) - R_l(f) D_l(Rz t)^T`` over that of
    ``R(f)``, for the weight-response map ``R`` and random band-limited
    fields and angles; the worst over the trials, one entry per degree."""
    rng = np.random.default_rng(seed)
    worst = np.zeros(config.lmax + 1)
    for _ in range(trials):
        fld = AnalyticField.random_band_limited(config.fiber, rng, m_band=FIELD_BAND)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        base, turned = _lift_response([f.sample(config.grid_n, config.spacing)
                                       for f in (fld, rotate_field(fld, theta))], kernel)
        scale = np.linalg.norm(base, 2)
        for ell in range(config.lmax + 1):
            sl = SphericalHarmonicBasis.slice_of(ell)
            defect = turned[:, sl] - base[:, sl] @ wigner_d(ell, Rotation3.about_z(theta)).T
            worst[ell] = max(worst[ell], np.linalg.norm(defect, 2) / scale)
    return worst


def test_criterion_11_lift_defect_per_degree():
    # the bound is 2x the 4.9e-11 measured, the quadrature error of the outer
    # ring's kink at the origin; the ring of R_MAX 0.45 and width 0.09 reads
    # 8.9e-9, its Gaussian tail cut off by the grid's edge
    config = LayerConfig()
    kernel = config.build_kernel()
    defects = _degree_defects(config, kernel)
    broken = _degree_defects(config, corrupt_kernel(kernel, np.random.default_rng(104)))
    old_ring = build_induction_kernel(config.fiber, config.channels, config.lmax,
                                      RadialProfileSet(config.radial_count, 0.45, width=0.09))
    old = _degree_defects(config, old_ring)
    _report("criterion 11: lift defect per degree, sup over weights, at lmax=6",
            defects.max() <= 1e-10 and broken.max() > 1e-1 and old.max() > 1e-10,
            f"max {defects.max():.1e}, negative control {broken.max():.1e}, "
            f"old ring {old.max():.1e}")


if __name__ == "__main__":
    import sys

    failures = 0
    for name in sorted(n for n in dir() if n.startswith("test_criterion")):
        try:
            globals()[name]()
        except AssertionError as exc:
            print(f"[FAIL] {exc}")
            failures += 1
    sys.exit(1 if failures else 0)
