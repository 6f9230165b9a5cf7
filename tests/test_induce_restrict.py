import numpy as np
import pytest

from planelift.groups import (
    build_group,
    coset_decomposition,
    named_embedding,
    subgroup_embedding,
)
from planelift.induce_restrict import (
    _reciprocity_tables,
    boundary_compatibility,
    branching_table,
    check_frobenius,
    completeness_check,
    induce,
    induction_table,
    restrict,
)
from planelift.reps import (
    Decomposition,
    conjugate,
    decompose,
    direct_sum,
    hom_dimension,
    irrep_table,
    regular_representation,
    validate_representation,
)


def _setup(sub, parent):
    emb = named_embedding(sub, parent)
    cos = coset_decomposition(emb)
    return emb, cos, irrep_table(emb.parent), irrep_table(emb.sub)


def test_restriction_fixtures():
    emb, _, parent_t, sub_t = _setup("Z3", "A4")
    dec = decompose(restrict(parent_t.by_label("std3"), emb), sub_t)
    assert dec.multiplicities == {"chi0": 1, "chi1": 1, "chi2": 1}
    dec = decompose(restrict(parent_t.by_label("omega_plus"), emb), sub_t)
    assert dec.multiplicities == {"chi1": 1}
    dec = decompose(restrict(parent_t.by_label("omega_minus"), emb), sub_t)
    assert dec.multiplicities == {"chi2": 1}


def test_restriction_to_whole_group_is_identity():
    emb = named_embedding("A4", "A4")
    table = irrep_table(emb.parent)
    std = table.by_label("std3")
    res = restrict(std, emb)
    assert np.abs(res.matrices - std.matrices).max() == 0.0


def test_induction_fixtures():
    emb, cos, parent_t, sub_t = _setup("Z3", "A4")
    expected = {
        "chi0": {"triv": 1, "std3": 1},
        "chi1": {"omega_plus": 1, "std3": 1},
        "chi2": {"omega_minus": 1, "std3": 1},
    }
    for lbl, mults in expected.items():
        lifted = induce(sub_t.by_label(lbl), cos)
        validate_representation(lifted)
        assert lifted.dim == 4 * sub_t.by_label(lbl).dim
        assert decompose(lifted, parent_t).multiplicities == mults


def test_induced_representation_validates_on_a5():
    emb, cos, parent_t, sub_t = _setup("Z5", "A5")
    lifted = induce(sub_t.by_label("chi1"), cos)
    assert lifted.dim == 12
    validate_representation(lifted)


def _frobenius_character(rho, cosets):
    """chi(g) = sum_i [g_i^-1 g g_i in H] chi_rho(g_i^-1 g g_i), from mul/inv alone."""
    parent = cosets.embedding.parent
    sub_index = {int(p): s for s, p in enumerate(cosets.embedding.embed)}
    chi_rho = np.trace(rho.matrices, axis1=1, axis2=2)
    chi = np.zeros(parent.order, dtype=complex)
    for g in range(parent.order):
        for gi in cosets.reps:
            c = int(parent.mul[parent.mul[parent.inv[gi], g], gi])
            if c in sub_index:
                chi[g] += chi_rho[sub_index[c]]
    return chi


@pytest.mark.parametrize("sub,parent", [("Z1", "Z6"), ("Z1", "A4"), ("Z1", "A5"),
                                        ("Z6", "Z6"), ("A4", "A4"), ("A5", "A5"),
                                        ("Z2", "Z6"), ("Z3", "A4"), ("Z5", "A5")])
def test_induced_character_matches_frobenius_formula(sub, parent):
    emb, cos, _, sub_t = _setup(sub, parent)
    classes = emb.parent.conjugacy_classes
    for rho in sub_t.irreps:
        lifted = induce(rho, cos)
        validate_representation(lifted)
        expected = _frobenius_character(rho, cos)
        assert np.abs(np.trace(lifted.matrices, axis1=1, axis2=2) - expected).max() < 1e-12
        assert np.abs(lifted.character() - expected[[c[0] for c in classes]]).max() < 1e-12


def test_branching_and_induction_tables():
    emb, cos, _, _ = _setup("Z3", "A4")
    branching = branching_table(emb)
    assert branching["std3", "chi0"] == 1
    assert branching["std3", "chi1"] == 1
    assert branching["std3", "chi2"] == 1
    assert branching["triv", "chi0"] == 1
    assert branching["triv", "chi1"] == 0
    induction = induction_table(cos)
    assert induction["chi0", "triv"] == 1
    assert induction["chi0", "std3"] == 1
    assert induction["chi0", "omega_plus"] == 0


def test_multiplicity_tables_are_read_only():
    emb, cos, _, _ = _setup("Z3", "A4")
    for table in (branching_table(emb), induction_table(cos)):
        with pytest.raises(ValueError, match="read-only"):
            table.entries[0, 0] = 5


def test_trivial_subgroup_induces_regular_multiplicities():
    emb, cos, parent_t, _ = _setup("Z1", "A4")
    induction = induction_table(cos)
    for sigma in parent_t.irreps:
        assert induction["chi0", sigma.label] == sigma.dim


@pytest.mark.parametrize("sub,parent", [("Z3", "A4"), ("Z1", "Z3"), ("Z1", "A4"),
                                        ("Z5", "A5"), ("Z2", "Z4"), ("Z3", "Z6")])
def test_frobenius_reciprocity(sub, parent):
    emb, cos, _, _ = _setup(sub, parent)
    branching = branching_table(emb)
    induction = induction_table(cos)
    ok, mismatch = check_frobenius(branching, induction)
    assert ok and mismatch is None


@pytest.mark.parametrize("sub,parent", [("Z3", "A4"), ("Z5", "A5")])
def test_reciprocity_tables_are_the_branching_and_induction_tables(sub, parent):
    emb, cos, _, _ = _setup(sub, parent)
    for got, want in zip(_reciprocity_tables(cos), (branching_table(emb), induction_table(cos))):
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert np.array_equal(got.entries, want.entries)


def test_frobenius_detects_corruption():
    emb, cos, _, _ = _setup("Z3", "A4")
    branching = branching_table(emb)
    induction = induction_table(cos)
    tampered = induction.entries.copy()
    tampered[0, 0] += 1
    from planelift.induce_restrict import InductionTable
    ok, mismatch = check_frobenius(branching, InductionTable(
        induction.rows, induction.cols, tampered))
    assert not ok
    assert mismatch == ("triv", "chi0")


@pytest.mark.parametrize("sub,parent", [("Z3", "A4"), ("Z1", "Z3"), ("A4", "A4"), ("Z5", "A5")])
def test_completeness(sub, parent):
    emb = named_embedding(sub, parent)
    assert completeness_check(emb)


def test_completeness_fixture_value():
    emb, cos, parent_t, _ = _setup("Z3", "A4")
    lifted = induce(regular_representation(emb.sub), cos)
    dec = decompose(lifted, parent_t)
    assert dec.multiplicities == {"triv": 1, "omega_plus": 1,
                                  "omega_minus": 1, "std3": 3}


def test_boundary_compatibility_values():
    emb, _, _, _ = _setup("Z3", "A4")
    branching = branching_table(emb)
    assert boundary_compatibility(Decomposition({"chi0": 1}),
                                  Decomposition({"std3": 1}), branching) == 1
    assert boundary_compatibility(Decomposition({"chi1": 1}),
                                  Decomposition({"triv": 1}), branching) == 0
    assert boundary_compatibility(Decomposition({}), Decomposition({}), branching) == 0


def test_boundary_compatibility_matches_hom_dimensions():
    emb, cos, parent_t, sub_t = _setup("Z3", "A4")
    branching = branching_table(emb)
    rng = np.random.default_rng(4)
    for _ in range(10):
        h_m = {r.label: int(rng.integers(0, 3)) for r in sub_t.irreps}
        g_m = {r.label: int(rng.integers(0, 3)) for r in parent_t.irreps}
        via_table = boundary_compatibility(Decomposition(h_m), Decomposition(g_m), branching)

        def assemble(table, mults):
            rep = None
            for lbl, m in mults.items():
                for _ in range(m):
                    piece = table.by_label(lbl)
                    rep = piece if rep is None else direct_sum(rep, piece)
            return rep

        h_rep = assemble(sub_t, h_m)
        g_rep = assemble(parent_t, g_m)
        if h_rep is None or g_rep is None:
            assert via_table == 0
            continue
        # restriction route
        assert via_table == hom_dimension(h_rep, restrict(g_rep, emb), sub_t)
        # induction route (reciprocity at the level of dimensions)
        assert via_table == hom_dimension(induce(h_rep, cos), g_rep, parent_t)


def test_induction_is_linear_over_direct_sums():
    emb, cos, parent_t, sub_t = _setup("Z3", "A4")
    a = sub_t.by_label("chi1")
    b = sub_t.by_label("chi2")
    lhs = decompose(induce(direct_sum(a, b), cos), parent_t).multiplicities
    da = decompose(induce(a, cos), parent_t).multiplicities
    db = decompose(induce(b, cos), parent_t).multiplicities
    combined: dict[str, int] = dict(da)
    for k, v in db.items():
        combined[k] = combined.get(k, 0) + v
    assert lhs == combined


def test_conjugate_compatibility():
    emb, cos, parent_t, sub_t = _setup("Z3", "A4")
    swap = {"triv": "triv", "std3": "std3",
            "omega_plus": "omega_minus", "omega_minus": "omega_plus"}
    dec_plus = decompose(induce(sub_t.by_label("chi1"), cos), parent_t)
    dec_conj = decompose(induce(conjugate(sub_t.by_label("chi1")), cos), parent_t)
    assert dec_conj.multiplicities == {swap[k]: v
                                       for k, v in dec_plus.multiplicities.items()}


def test_dimension_law_random_sums():
    rng = np.random.default_rng(9)
    for sub, parent, repeats in [("Z3", "A4", 20), ("Z1", "Z3", 10),
                                 ("Z1", "A4", 10), ("Z5", "A5", 10)]:
        emb, cos, _, sub_t = _setup(sub, parent)
        for _ in range(repeats):
            picks = rng.choice([r.label for r in sub_t.irreps],
                               size=int(rng.integers(1, 4)))
            rep = sub_t.by_label(picks[0])
            for lbl in picks[1:]:
                rep = direct_sum(rep, sub_t.by_label(lbl))
            assert induce(rep, cos).dim == emb.index * rep.dim


def test_restrict_and_induce_compare_groups_by_table():
    z4 = build_group(np.add.outer(np.arange(4), np.arange(4)) % 4)
    v4 = build_group(np.bitwise_xor.outer(np.arange(4), np.arange(4)))  # also "custom"
    into_z4 = subgroup_embedding(build_group("Z2"), z4, [0, 2])
    with pytest.raises(ValueError, match="parent group"):
        restrict(regular_representation(v4), into_z4)
    assert restrict(regular_representation(z4), into_z4).dim == 4
    cosets = coset_decomposition(subgroup_embedding(z4, build_group("Z8"), [0, 2, 4, 6]))
    with pytest.raises(ValueError, match="subgroup"):
        induce(regular_representation(v4), cosets)
    assert induce(regular_representation(z4), cosets).dim == 8
