import numpy as np
import pytest

from planelift.groups import coset_decomposition, named_embedding
from planelift.induce_restrict import induce
from planelift.reps import decompose, irrep_table, validate_representation
from planelift.tetra import (
    TriangleFilterBank,
    bank_from_irrep,
    fixture_cosets,
    induced_block_matrices,
    orthographic_special_case,
    tetra_induce,
    verify_tetra_action,
)

OMEGA = np.exp(2j * np.pi / 3)

# Golden stacking table: for each tetrahedron element, the four stacked
# blocks as (filter index, triangle element index). Triangle elements are
# indexed 0 (identity), 1 (one-third turn), 2 (two-thirds turn).
GOLDEN_ROWS = {
    "e":          [(0, 0), (1, 0), (2, 0), (3, 0)],
    "(1,2,3)":    [(0, 1), (3, 1), (1, 1), (2, 1)],
    "(1,3,2)":    [(0, 2), (2, 2), (3, 2), (1, 2)],
    "(1,2,4)":    [(1, 0), (3, 2), (2, 2), (0, 1)],
    "(1,3)(2,4)": [(1, 1), (0, 2), (3, 0), (2, 0)],
    "(2,4,3)":    [(1, 2), (2, 1), (0, 0), (3, 1)],
    "(2,3,4)":    [(2, 0), (0, 1), (1, 2), (3, 2)],
    "(1,2)(3,4)": [(2, 1), (3, 0), (0, 2), (1, 0)],
    "(1,3,4)":    [(2, 2), (1, 1), (3, 1), (0, 0)],
    "(1,4,3)":    [(3, 0), (1, 2), (0, 1), (2, 2)],
    "(1,4)(2,3)": [(3, 1), (2, 0), (1, 0), (0, 2)],
    "(1,4,2)":    [(3, 2), (0, 0), (2, 1), (1, 1)],
}


def test_fixture_representatives():
    cos = fixture_cosets()
    labels = [cos.embedding.parent.labels[r] for r in cos.reps]
    assert labels == ["e", "(1,2,4)", "(2,3,4)", "(1,4,3)"]


def test_all_twelve_stacking_rows_match_golden_table():
    cos = fixture_cosets()
    a4 = cos.embedding.parent
    rng = np.random.default_rng(0)
    bank = TriangleFilterBank(rng.normal(size=(4, 3, 3)).astype(complex))
    fn = tetra_induce(bank, cos)
    assert set(GOLDEN_ROWS) == set(a4.labels)
    for label, blocks in GOLDEN_ROWS.items():
        g = a4.element_index(label)
        for i, (f, h) in enumerate(blocks):
            assert np.array_equal(fn.values[g, i], bank.values[f, h]), (label, i)


def test_induced_matrices_are_exact_representations():
    mats = induced_block_matrices("chi0")
    assert np.abs(mats.matrices.imag).max() == 0.0
    real = mats.matrices.real
    assert set(np.unique(real)) <= {0.0, 1.0}
    group = mats.group
    for a in range(group.order):  # homomorphism holds exactly in 0/1 arithmetic
        for b in range(group.order):
            assert np.array_equal(real[a] @ real[b], real[group.mul[a, b]])
    for label in ("chi1", "chi2"):
        validate_representation(induced_block_matrices(label), tol=1e-12)


def test_induced_matrix_characters_match_table():
    cos = fixture_cosets()
    a4 = cos.embedding.parent
    c123 = a4.class_of(a4.element_index("(1,2,3)"))
    c132 = a4.class_of(a4.element_index("(1,3,2)"))
    cflip = a4.class_of(a4.element_index("(1,2)(3,4)"))
    expected = {
        "chi0": {0: 4, c123: 1, c132: 1, cflip: 0},
        "chi1": {0: 4, c123: OMEGA, c132: np.conj(OMEGA), cflip: 0},
        "chi2": {0: 4, c123: np.conj(OMEGA), c132: OMEGA, cflip: 0},
    }
    for label, values in expected.items():
        chars = induced_block_matrices(label, cos).character()
        for cls, val in values.items():
            assert abs(chars[cls] - val) < 1e-12, (label, cls)


@pytest.mark.parametrize("label", ["chi0", "chi1", "chi2"])
def test_action_verification(label):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    fn = tetra_induce(bank_from_irrep(label, coeffs))
    assert verify_tetra_action(fn, label)
    wrong = "chi2" if label != "chi2" else "chi1"
    assert not verify_tetra_action(fn, wrong)


def test_constant_invariant_bank_lifts_to_constant_function():
    coeffs = np.ones((4, 1)) * 2.5
    fn = tetra_induce(bank_from_irrep("chi0", coeffs))
    for g in range(12):
        assert np.allclose(fn.values[g], fn.values[0])


def test_all_zero_bank():
    fn = orthographic_special_case(TriangleFilterBank(np.zeros((4, 3, 1))))
    assert np.abs(fn.values).max() == 0.0


def test_orthographic_single_block_structure():
    cos = fixture_cosets()
    rng = np.random.default_rng(5)
    vals = np.zeros((4, 3, 1), dtype=complex)
    vals[0] = rng.normal(size=(3, 1)) + 10.0  # keep entries away from zero
    fn = orthographic_special_case(TriangleFilterBank(vals), cos)
    for g in range(12):
        nonzero = [i for i in range(4) if np.abs(fn.values[g, i]).max() > 1e-14]
        # the single live block sits where the coset permutation sends slot one
        expected = [i for i in range(4) if cos.perm[g, i] == 0]
        assert nonzero == expected


def test_orthographic_rejects_nonzero_tail():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="zero"):
        orthographic_special_case(TriangleFilterBank(rng.normal(size=(4, 3, 1)).astype(complex)))


def test_orthographic_action_decomposition():
    # invariant filter content lifts into trivial plus the 3-dim irrep
    cos = fixture_cosets()
    dec = decompose(induced_block_matrices("chi0", cos),
                    irrep_table(cos.embedding.parent))
    assert dec.multiplicities == {"triv": 1, "std3": 1}


def test_fixture_matrices_similar_to_generic_induction():
    # generic minimum-index construction gives the same characters per class
    emb = named_embedding("Z3", "A4")
    generic = coset_decomposition(emb)
    sub_t = irrep_table(emb.sub)
    for label in ("chi0", "chi1", "chi2"):
        lifted = induce(sub_t.by_label(label), generic)
        fixture = induced_block_matrices(label)
        assert np.abs(lifted.character() - fixture.character()).max() < 1e-12


def test_bank_keeps_its_own_copy_and_the_lift_is_read_only():
    # a complex128 C-ordered array used to be frozen in place
    given = np.ones((4, 3, 2), dtype=np.complex128)
    bank = TriangleFilterBank(given)
    assert given.flags.writeable and not bank.values.flags.writeable
    given[...] = 2.0
    assert np.all(bank.values == 1.0)
    assert not tetra_induce(bank).values.flags.writeable


@pytest.mark.parametrize("values, message", [
    (np.ones((4, 3)), r"bank values must have shape \(4, 3, K\), got \(4, 3\)"),
    (np.ones((4, 3, 0)), r"bank values must have shape \(4, 3, K\), got \(4, 3, 0\)"),
    (np.full((4, 3, 1), np.nan), "bank values must be finite"),
])
def test_malformed_bank_is_rejected(values, message):
    with pytest.raises(ValueError, match=message):
        TriangleFilterBank(values)


def test_bank_from_irrep_rejects_malformed_coefficients():
    with pytest.raises(ValueError, match=r"coeffs must have shape \(4, K\), got \(3, 2\)"):
        bank_from_irrep("chi0", np.ones((3, 2)))
    with pytest.raises(ValueError, match="coeffs must be finite"):
        bank_from_irrep("chi0", np.full((4, 1), np.inf))
