"""Oracle tests for the one induction.

``coset_decomposition`` reads ``perm`` and ``factor`` off the multiplication
table by array indexing, ``induce`` places every block in one array scatter,
and every permutation representation is ``induce`` of a trivial irrep. The
loop and scatter forms they replaced are kept here, and the outputs must be
equal to the last bit.
"""

import numpy as np
import pytest

import planelift
from planelift import induce_restrict, reps
from planelift.groups import build_group, coset_decomposition, named_embedding, subgroup_embedding
from planelift.reps import Representation, direct_sum, induce, irrep_table, regular_representation
from planelift.tetra import fixture_cosets


def _loop_cosets(embedding, explicit=None):
    """``perm`` and ``factor`` by the per-element double loop."""
    sub, parent = embedding.sub, embedding.parent
    image = embedding.embed
    n, m = parent.order, embedding.index
    back = {int(p): s for s, p in enumerate(image)}
    coset_of = np.full(n, -1, dtype=np.int64)
    chosen = []
    for g in explicit if explicit is not None else range(n):
        if explicit is not None or coset_of[g] < 0:
            coset_of[parent.mul[g, image]] = len(chosen)
            chosen.append(int(g))
    perm = np.empty((n, m), dtype=np.int64)
    factor = np.empty((n, m), dtype=np.int64)
    for g in range(n):
        for i in range(m):
            t = parent.mul[g, chosen[i]]
            j = int(coset_of[t])
            perm[g, i] = j
            factor[g, i] = back[int(parent.mul[parent.inv[chosen[j]], t])]
    return perm, factor


def _loop_induce(rep, cosets):
    """Induced matrices by placing one block per (element, coset)."""
    m, d = cosets.n_cosets, rep.dim
    parent = cosets.embedding.parent
    mats = np.zeros((parent.order, m * d, m * d), dtype=np.complex128)
    for g in range(parent.order):
        for i in range(m):
            j = cosets.perm[g, i]
            h = cosets.factor[g, i]
            mats[g, j * d:(j + 1) * d, i * d:(i + 1) * d] = rep.matrices[h]
    return mats


def _point_action_matrices(group, orbit_of, n_points):
    """Permutation matrices for a left action given as ``orbit_of[g, point]``."""
    mats = np.zeros((group.order, n_points, n_points))
    mats[np.arange(group.order)[:, None], orbit_of, np.arange(n_points)] = 1.0
    return mats


def _raw_cyclic(n):
    return build_group(np.add.outer(np.arange(n), np.arange(n)) % n)


# each case: (embedding, explicit representatives or None)
_CASES = {
    "Z1<Z3": lambda: (named_embedding("Z1", "Z3"), None),
    "Z3<A4": lambda: (named_embedding("Z3", "A4"), None),
    "Z5<A5": lambda: (named_embedding("Z5", "A5"), None),
    "Z1<A5": lambda: (named_embedding("Z1", "A5"), None),
    "Z4<Z12": lambda: (named_embedding("Z4", "Z12"), None),
    "A4<A4": lambda: (named_embedding("A4", "A4"), None),
    "tetra fixture": lambda: (fixture_cosets().embedding, list(fixture_cosets().reps)),
    "raw Z4<Z8": lambda: (subgroup_embedding(_raw_cyclic(4), _raw_cyclic(8), [0, 2, 4, 6]),
                          None),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_coset_decomposition_matches_double_loop(case):
    emb, explicit = _CASES[case]()
    cosets = coset_decomposition(emb, reps=explicit)
    perm, factor = _loop_cosets(emb, explicit)
    assert np.array_equal(cosets.perm, perm) and cosets.perm.dtype == perm.dtype
    assert np.array_equal(cosets.factor, factor) and cosets.factor.dtype == factor.dtype
    assert not (cosets.perm.flags.writeable or cosets.factor.flags.writeable)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_induce_matches_block_loop(case):
    emb, explicit = _CASES[case]()
    cosets = coset_decomposition(emb, reps=explicit)
    # a raw table has no irreps of its own; the named group's serve, being on one table
    sub = emb.sub if emb.sub.name != "custom" else build_group(f"Z{emb.sub.order}")
    irreps = irrep_table(sub).irreps
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(4):
        picks = rng.choice(len(irreps), size=int(rng.integers(1, 4)))
        rep = irreps[picks[0]]
        for k in picks[1:]:
            rep = direct_sum(rep, irreps[k])
        induced = induce(rep, cosets)
        assert np.array_equal(induced.matrices, _loop_induce(rep, cosets))
        assert induced.group is emb.parent and induced.label == f"Ind({rep.label})"


@pytest.mark.parametrize("case", [c for c in sorted(_CASES) if " " not in c])
def test_named_embedding_uses_the_given_parent(case):
    sub, parent = case.split("<")
    group = build_group(parent)
    emb = named_embedding(sub, group)
    assert emb.parent is group
    assert np.array_equal(emb.embed, _CASES[case]()[0].embed)


@pytest.mark.parametrize("case", ["Z3<A4", "Z5<A5", "tetra fixture"])
def test_coset_action_matches_point_scatter(case):
    emb, explicit = _CASES[case]()
    cosets = coset_decomposition(emb, reps=explicit)
    action = induce(reps.trivial_representation(emb.sub), cosets)
    expected = Representation(emb.parent, _point_action_matrices(emb.parent, cosets.perm,
                                                                 cosets.n_cosets))
    assert np.array_equal(action.matrices, expected.matrices)


@pytest.mark.parametrize("name", ["Z1", "Z7", "A4", "A5", "S4", "S5", "raw V4"])
def test_regular_representation_matches_point_scatter(name):
    group = (build_group(np.bitwise_xor.outer(np.arange(4), np.arange(4))) if name == "raw V4"
             else build_group(name))
    regular = regular_representation(group)
    expected = Representation(group, _point_action_matrices(group, group.mul, group.order))
    assert np.array_equal(regular.matrices, expected.matrices)
    assert regular.group is group and regular.label == "regular"


def test_induce_is_one_function():
    assert induce_restrict.induce is reps.induce is planelift.induce
    assert "induce" in induce_restrict.__all__ and "induce" in reps.__all__
