import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import planelift

from planelift import groups
from planelift.groups import build_group
from planelift.reps import (
    Representation,
    conjugate,
    decompose,
    direct_sum,
    hom_dimension,
    irrep_table,
    regular_representation,
    tensor_product,
    trivial_representation,
    validate_representation,
)

OMEGA = np.exp(2j * np.pi / 3)


def test_z3_irreps_are_unit_characters():
    table = irrep_table(build_group("Z3"))
    assert [r.dim for r in table.irreps] == [1, 1, 1]
    gen = 1  # element g of the cyclic group
    vals = [r.matrices[gen, 0, 0] for r in table.irreps]
    assert np.isclose(vals[0], 1.0)
    assert np.isclose(vals[1], OMEGA)
    assert np.isclose(vals[2], np.conj(OMEGA))


def test_z2_characters():
    table = irrep_table(build_group("Z2"))
    chars = np.sort_complex(table.characters[:, 1])
    assert np.allclose(chars, [-1.0, 1.0])


def test_a4_irrep_dimensions_and_characters():
    a4 = build_group("A4")
    table = irrep_table(a4)
    assert sorted(r.dim for r in table.irreps) == [1, 1, 1, 3]
    flip_class = a4.class_of(a4.element_index("(1,2)(3,4)"))
    std_row = table.characters[[r.label for r in table.irreps].index("std3")]
    assert np.isclose(std_row[flip_class], -1.0)
    assert np.isclose(std_row[0], 3.0)


PHI = (1 + np.sqrt(5)) / 2

# Standard character tables, keyed by irrep label and by the label of each
# class's representative (its smallest element index). In A4, (2,3,4) is
# conjugate to (1,3,2) and (2,4,3) to (1,2,3); in A5, (1,2,3,5,4) is
# conjugate to (1,2,3,4,5)^2.
TEXTBOOK_CHARACTERS = {
    "A4": {
        "triv": {"e": 1, "(2,3,4)": 1, "(2,4,3)": 1, "(1,2)(3,4)": 1},
        "omega_plus": {"e": 1, "(2,3,4)": OMEGA ** 2, "(2,4,3)": OMEGA, "(1,2)(3,4)": 1},
        "omega_minus": {"e": 1, "(2,3,4)": OMEGA, "(2,4,3)": OMEGA ** 2, "(1,2)(3,4)": 1},
        "std3": {"e": 3, "(2,3,4)": 0, "(2,4,3)": 0, "(1,2)(3,4)": -1},
    },
    "A5": {
        "triv": {"e": 1, "(3,4,5)": 1, "(2,3)(4,5)": 1, "(1,2,3,4,5)": 1, "(1,2,3,5,4)": 1},
        "icosa3a": {"e": 3, "(3,4,5)": 0, "(2,3)(4,5)": -1,
                    "(1,2,3,4,5)": PHI, "(1,2,3,5,4)": 1 - PHI},
        "icosa3b": {"e": 3, "(3,4,5)": 0, "(2,3)(4,5)": -1,
                    "(1,2,3,4,5)": 1 - PHI, "(1,2,3,5,4)": PHI},
        "std4": {"e": 4, "(3,4,5)": 1, "(2,3)(4,5)": 0, "(1,2,3,4,5)": -1, "(1,2,3,5,4)": -1},
        "pair5": {"e": 5, "(3,4,5)": -1, "(2,3)(4,5)": 1, "(1,2,3,4,5)": 0, "(1,2,3,5,4)": 0},
    },
}


@pytest.mark.parametrize("name", sorted(TEXTBOOK_CHARACTERS))
def test_characters_match_textbook_table(name):
    group = build_group(name)
    table = irrep_table(group)
    expected = TEXTBOOK_CHARACTERS[name]
    classes = [group.labels[cls[0]] for cls in group.conjugacy_classes]
    assert set(table.labels()) == set(expected)
    for label, row in zip(table.labels(), table.characters):
        assert set(expected[label]) == set(classes)
        want = np.array([expected[label][c] for c in classes])
        assert np.abs(row - want).max() < 1e-12, label
        assert np.abs(table.by_label(label).character() - want).max() < 1e-12, label


@pytest.mark.parametrize("name", ["Z3", "Z5", "A4", "A5"])
def test_irrep_tables_validate(name):
    group = build_group(name)
    table = irrep_table(group)
    assert sum(r.dim ** 2 for r in table.irreps) == group.order
    sizes = np.array([len(c) for c in group.conjugacy_classes])
    gram = (table.characters * sizes) @ table.characters.conj().T / group.order
    assert np.abs(gram - np.eye(len(table.irreps))).max() < 1e-12
    for rep in table.irreps:
        validate_representation(rep)


def test_validation_raises_under_optimization():
    # python -O strips assert statements; the check must still reject a Z3
    # "representation" with matrices 1, 2 and 5, which is no homomorphism
    script = ("import numpy as np\n"
              "from planelift.groups import build_group\n"
              "from planelift.reps import Representation, validate_representation\n"
              "rep = Representation(build_group('Z3'), np.array([1.0, 2.0, 5.0]).reshape(3, 1, 1))\n"
              "try:\n"
              "    validate_representation(rep)\n"
              "except AssertionError as exc:\n"
              "    print(exc)\n")
    src = str(Path(planelift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300, check=True)
    assert out.stdout.startswith("homomorphism fails at left factor 1")


def test_irreps_unavailable_for_unnamed_groups():
    with pytest.raises(ValueError, match="irreps unavailable"):
        irrep_table(build_group("S4"))


def test_regular_representation_decompositions():
    z3 = build_group("Z3")
    dec = decompose(regular_representation(z3), irrep_table(z3))
    assert dec.multiplicities == {"chi0": 1, "chi1": 1, "chi2": 1}

    a4 = build_group("A4")
    dec = decompose(regular_representation(a4), irrep_table(a4))
    assert dec.multiplicities == {"triv": 1, "omega_plus": 1,
                                  "omega_minus": 1, "std3": 3}


def test_trivial_rep_decomposition():
    a4 = build_group("A4")
    dec = decompose(trivial_representation(a4), irrep_table(a4))
    assert dec.multiplicities == {"triv": 1}


def test_decompose_rejects_non_representation():
    a4 = build_group("A4")
    table = irrep_table(a4)
    rng = np.random.default_rng(0)
    noise = regular_representation(a4).matrices + 0.05 * rng.normal(size=(12, 12, 12))
    broken = Representation(a4, noise, "broken")
    with pytest.raises(ValueError, match="non-representation or numerical failure"):
        decompose(broken, table)


def test_direct_sum_and_tensor_dimensions():
    a4 = build_group("A4")
    table = irrep_table(a4)
    std = table.by_label("std3")
    two = direct_sum(table.by_label("omega_plus"), table.by_label("omega_minus"))
    assert direct_sum(two, std).dim == 5
    assert tensor_product(std, std).dim == 9


def test_tensor_of_conjugate_characters():
    z3 = build_group("Z3")
    table = irrep_table(z3)
    chi1 = table.by_label("chi1")
    sq = tensor_product(chi1, chi1)
    dec = decompose(sq, table)
    assert dec.multiplicities == {"chi2": 1}  # omega_plus squared is omega_minus


def test_tensor_with_trivial_is_identity_on_decompositions():
    a4 = build_group("A4")
    table = irrep_table(a4)
    std = table.by_label("std3")
    dec = decompose(tensor_product(std, trivial_representation(a4)), table)
    assert dec.multiplicities == {"std3": 1}


def test_tensor_character_is_pointwise_product():
    a4 = build_group("A4")
    table = irrep_table(a4)
    a = table.by_label("std3")
    b = table.by_label("omega_plus")
    prod = tensor_product(a, b)
    assert np.abs(prod.character() - a.character() * b.character()).max() < 1e-12


def test_hom_dimensions():
    a4 = build_group("A4")
    table = irrep_table(a4)
    std = table.by_label("std3")
    assert hom_dimension(std, std, table) == 1  # Schur for an irrep
    assert hom_dimension(regular_representation(a4), std, table) == 3
    assert hom_dimension(table.by_label("omega_plus"),
                         table.by_label("omega_minus"), table) == 0


def test_decompose_adds_over_direct_sums():
    a4 = build_group("A4")
    table = irrep_table(a4)
    rng = np.random.default_rng(1)
    labels = [r.label for r in table.irreps]
    picks = rng.choice(labels, size=4).tolist()
    rep = table.by_label(picks[0])
    for lbl in picks[1:]:
        rep = direct_sum(rep, table.by_label(lbl))
    dec = decompose(rep, table)
    expected: dict[str, int] = {}
    for lbl in picks:
        expected[lbl] = expected.get(lbl, 0) + 1
    assert dec.multiplicities == expected


def test_homomorphism_property_random_products():
    a5 = build_group("A5")
    table = irrep_table(a5)
    rng = np.random.default_rng(2)
    rep = table.by_label("icosa3a")
    for _ in range(200):
        a, b = rng.integers(0, a5.order, size=2)
        err = np.abs(rep.matrices[a] @ rep.matrices[b]
                     - rep.matrices[a5.mul[a, b]]).max()
        assert err < 1e-10


def test_conjugate_representation():
    z3 = build_group("Z3")
    table = irrep_table(z3)
    dec = decompose(conjugate(table.by_label("chi1")), table)
    assert dec.multiplicities == {"chi2": 1}


def test_groups_compared_by_table_not_name():
    z4 = build_group(np.add.outer(np.arange(4), np.arange(4)) % 4)
    v4 = build_group(np.bitwise_xor.outer(np.arange(4), np.arange(4)))
    assert z4.name == v4.name == "custom"
    a, b = regular_representation(z4), regular_representation(v4)
    with pytest.raises(ValueError, match="same group"):
        direct_sum(a, b)
    with pytest.raises(ValueError, match="same group"):
        tensor_product(a, b)
    named_z4 = irrep_table(build_group("Z4"))
    with pytest.raises(ValueError, match="different groups"):
        decompose(b, named_z4)
    assert decompose(a, named_z4).multiplicities == {f"chi{k}": 1 for k in range(4)}


def test_separately_built_groups_with_one_table_are_compatible():
    first, second = build_group("A4"), build_group("A4")
    total = direct_sum(regular_representation(first), trivial_representation(second))
    assert tensor_product(total, trivial_representation(second)).dim == 13
    assert decompose(total, irrep_table(second)).multiplicities["triv"] == 2


@pytest.mark.parametrize("name", ["Z1", "Z7", "A4", "A5"])
def test_irreps_live_on_the_given_group(name):
    # test_regular_representation_matches_point_scatter checks the regular one
    group = build_group(name)
    assert all(irrep.group is group for irrep in irrep_table(group).irreps)


@pytest.mark.parametrize("name, subgroup", [("A4", "Z3"), ("A5", "Z5")])
def test_irrep_table_builds_only_its_subgroup(monkeypatch, name, subgroup):
    group, built = build_group(name), []
    build = groups.build_group
    monkeypatch.setattr(groups, "build_group", lambda spec: built.append(spec) or build(spec))
    irrep_table(group)
    assert built == [subgroup]


@pytest.mark.parametrize("matrices, message", [
    (np.ones((2, 1, 1)), r"must have shape \(3, d, d\), got \(2, 1, 1\)"),
    (np.ones((3, 1, 2)), r"must have shape \(3, d, d\), got \(3, 1, 2\)"),
    (np.ones((3, 1)), r"must have shape \(3, d, d\), got \(3, 1\)"),
    (np.full((3, 1, 1), np.nan), "matrices must be finite"),
    (np.array([1.0, np.inf, 1.0]).reshape(3, 1, 1), "matrices must be finite"),
])
def test_malformed_matrices_are_rejected_at_construction(matrices, message):
    with pytest.raises(ValueError, match=message):
        Representation(build_group("Z3"), matrices)


def test_irrep_table_characters_are_read_only():
    table = irrep_table(build_group("A4"))
    with pytest.raises(ValueError, match="read-only"):
        table.characters[0, 0] = 2.0


def test_representation_keeps_its_own_copy_of_the_callers_array():
    # a complex128 C-ordered array used to be frozen in place
    given = np.ones((3, 1, 1), dtype=np.complex128)
    rep = Representation(build_group("Z3"), given)
    assert given.flags.writeable and not rep.matrices.flags.writeable
    given[...] = 2.0
    assert np.all(rep.matrices == 1.0)
