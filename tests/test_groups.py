import re

import numpy as np
import pytest

from planelift.groups import (
    build_group,
    coset_decomposition,
    named_embedding,
    subgroup_embedding,
)


def test_cyclic_group_structure():
    z3 = build_group("Z3")
    assert z3.order == 3
    assert len(z3.conjugacy_classes) == 3


def test_a4_conjugacy_classes():
    a4 = build_group("A4")
    assert a4.order == 12
    sizes = sorted(len(c) for c in a4.conjugacy_classes)
    assert sizes == [1, 3, 4, 4]
    # the two 3-cycle classes are mutually inverse
    c1 = a4.class_of(a4.element_index("(1,2,3)"))
    c2 = a4.class_of(a4.element_index("(1,3,2)"))
    assert c1 != c2


@pytest.mark.parametrize("name", ["Z1", "Z6", "A4", "S4", "A5"])
def test_group_axioms_exhaustive(name):
    g = build_group(name)
    n = g.order
    mul = g.mul
    assert np.array_equal(mul[mul], mul[:, mul])  # associativity, all triples
    assert np.array_equal(mul[g.identity], np.arange(n))
    assert np.array_equal(mul[:, g.identity], np.arange(n))
    assert np.all(mul[np.arange(n), g.inv] == g.identity)


def test_conjugacy_classes_partition_and_closure():
    g = build_group("S4")
    members = sorted(x for cls in g.conjugacy_classes for x in cls)
    assert members == list(range(g.order))
    for cls in g.conjugacy_classes:
        cls_set = set(cls)
        for a in range(g.order):
            for x in cls:
                assert int(g.mul[g.mul[g.inv[a], x], a]) in cls_set


def test_invalid_table_reports_failure():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="invalid group table"):
        build_group(bad)
    non_assoc = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ValueError, match="invalid group table"):
        build_group(non_assoc)


@pytest.mark.parametrize("table, entry", [
    ([[0, 1.5], [1.5, 0]], "(0, 1) = 1.5"),
    ([[0.0, 1.0], [1.0, np.nan]], "(1, 1) = nan"),
    ([[0.0, np.inf], [1.0, 0.0]], "(0, 1) = inf"),
    ([[0, 1 + 2j], [1, 0]], "(0, 1) = (1+2j)"),
])
def test_non_integer_table_rejected(table, entry):
    # truncating 1.5 to 1 would silently build Z2
    with pytest.raises(ValueError, match=rf"entry {re.escape(entry)} is not an integer"):
        build_group(table)
    assert build_group(np.array([[0.0, 1.0], [1.0, 0.0]])).order == 2  # integral floats pass


def test_explicit_table_roundtrip():
    z4 = build_group("Z4")
    rebuilt = build_group(np.asarray(z4.mul))
    assert rebuilt.order == 4
    assert rebuilt.identity == z4.identity


def test_embedding_validation():
    z3, a4 = build_group("Z3"), build_group("A4")
    with pytest.raises(ValueError, match="injective"):
        subgroup_embedding(z3, a4, [0, 0, 0])
    with pytest.raises(ValueError, match="homomorphism"):
        gen = a4.element_index("(1,2,4)")
        wrong_square = a4.element_index("(1,2,3)")  # gen^2 is (1,4,2), not this
        subgroup_embedding(z3, a4, [a4.identity, gen, wrong_square])


@pytest.mark.parametrize("bad", [-3, 99, 2.5])
def test_coset_representatives_must_be_element_indices(bad):
    emb = named_embedding("Z3", "A4")
    with pytest.raises(ValueError, match=f"representative {bad} is not an element index"):
        coset_decomposition(emb, reps=[0, 1, 2, bad])


def test_explicit_representatives_must_cover_each_coset_once():
    emb = named_embedding("Z3", "A4")
    reps = list(coset_decomposition(emb).reps)
    same_coset = int(emb.parent.mul[reps[0], emb.embed[1]])  # reps[0] times a rotation
    for bad in ([reps[0], same_coset, reps[2], reps[3]],  # two in one coset
                reps[:3],                                  # three for four cosets
                reps + [same_coset]):                      # five for four cosets
        with pytest.raises(ValueError, match="must cover each coset exactly once"):
            coset_decomposition(emb, reps=bad)


def test_embedding_images_must_be_element_indices():
    z3, a4 = build_group("Z3"), build_group("A4")
    with pytest.raises(ValueError, match="embedding image -8 is not an element index"):
        subgroup_embedding(z3, a4, [0, -8, 6])


def test_z3_in_a4_cosets():
    emb = named_embedding("Z3", "A4")
    cos = coset_decomposition(emb)
    assert emb.index == 4
    assert cos.n_cosets == 4
    # cosets partition the group
    counts = np.bincount(np.asarray(cos.coset_of), minlength=4)
    assert list(counts) == [3, 3, 3, 3]


def test_factorization_identity_exact():
    for sub, parent in [("Z3", "A4"), ("Z5", "A5")]:
        emb = named_embedding(sub, parent)
        cos = coset_decomposition(emb)
        g_mul, embed = emb.parent.mul, emb.embed
        for g in range(emb.parent.order):
            for i in range(cos.n_cosets):
                lhs = g_mul[g, cos.reps[i]]
                rhs = g_mul[cos.reps[cos.perm[g, i]], embed[cos.factor[g, i]]]
                assert lhs == rhs


def test_compositionality_identities():
    emb = named_embedding("Z3", "A4")
    cos = coset_decomposition(emb)
    g_mul, h_mul = emb.parent.mul, emb.sub.mul
    for gp in range(emb.parent.order):
        for g in range(emb.parent.order):
            prod = g_mul[gp, g]
            for i in range(cos.n_cosets):
                assert cos.perm[prod, i] == cos.perm[gp, cos.perm[g, i]]
                assert cos.factor[prod, i] == h_mul[cos.factor[gp, cos.perm[g, i]],
                                                    cos.factor[g, i]]
    e = emb.parent.identity
    assert np.array_equal(cos.perm[e], np.arange(cos.n_cosets))
    assert np.all(cos.factor[e] == emb.sub.identity)


def test_improper_subgroup_cosets():
    emb = named_embedding("A4", "A4")
    cos = coset_decomposition(emb)
    assert cos.n_cosets == 1
    assert np.all(cos.perm == 0)
    # the absorbed subgroup element is the acting element itself
    assert np.array_equal(np.asarray(cos.factor[:, 0]), np.arange(12))


def test_trivial_subgroup_gives_regular_action():
    emb = named_embedding("Z1", "Z3")
    cos = coset_decomposition(emb)
    z3 = emb.parent
    assert cos.n_cosets == 3
    # brute force: g * g_i enumerates the regular permutation action
    for g in range(3):
        for i in range(3):
            assert cos.reps[cos.perm[g, i]] == z3.mul[g, cos.reps[i]]
            assert cos.factor[g, i] == 0


def test_coset_decomposition_deterministic():
    emb = named_embedding("Z5", "A5")
    a = coset_decomposition(emb)
    b = coset_decomposition(emb)
    assert a.reps == b.reps
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.factor, b.factor)


def test_explicit_representatives_respected():
    emb = named_embedding("Z3", "A4")
    default = coset_decomposition(emb)
    alt_reps = []
    for r in default.reps:
        coset = [g for g in range(12) if default.coset_of[g] == default.coset_of[r]]
        alt_reps.append(max(coset))
    alt = coset_decomposition(emb, reps=alt_reps)
    assert alt.reps == tuple(alt_reps)
    # factorization still holds with the overridden choice
    g_mul = emb.parent.mul
    for g in range(12):
        for i in range(4):
            assert g_mul[g, alt.reps[i]] == g_mul[alt.reps[alt.perm[g, i]],
                                                  emb.embed[alt.factor[g, i]]]


def test_groups_are_equal_when_their_tables_are():
    a4 = build_group("A4")
    raw_copy = build_group(np.asarray(a4.mul))
    assert raw_copy.name == "custom" and a4 == raw_copy and build_group("A4") == a4
    assert a4 != build_group("Z12") and not a4 == build_group("Z12")
    assert a4 != "A4" and not a4 == "A4"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a4)


def test_named_embedding_into_a_raw_table():
    v4 = build_group(np.bitwise_xor.outer(np.arange(4), np.arange(4)))
    trivial = named_embedding("trivial", v4)
    assert trivial.parent is v4 and list(trivial.embed) == [v4.identity]
    # "custom" is the name raw tables carry, not a group name
    with pytest.raises(ValueError, match="unknown group name 'custom'"):
        named_embedding("custom", v4)
    with pytest.raises(ValueError, match="no canonical embedding of 'Z2' into 'custom'"):
        named_embedding("Z2", v4)
