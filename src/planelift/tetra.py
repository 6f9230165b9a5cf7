"""Toy lift of triangle filter banks to tetrahedron functions.

A bank of four filter responses on the 3-element rotation group of a
triangle is stacked into a single function on the 12-element rotation group
of a tetrahedron: block ``i`` of the lifted function at ``g`` is the
response ``perm[g, i]`` evaluated at the subgroup element ``factor[g, i]``.
The coset representatives are pinned to one fixed reference choice so the
twelve stacked rows are reproducible verbatim; the generic minimum-index
decomposition in :mod:`planelift.groups` yields an isomorphic lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import CosetDecomposition, coset_decomposition, named_embedding
from .reps import Representation, induce, irrep_table
from .so2_so3 import _check_array

__all__ = [
    "TriangleFilterBank",
    "TetraFunction",
    "fixture_cosets",
    "bank_from_irrep",
    "tetra_induce",
    "induced_block_matrices",
    "verify_tetra_action",
    "orthographic_special_case",
]

# coset representatives used by the golden stacking rows, as cycle labels
FIXTURE_REP_LABELS = ("e", "(1,2,4)", "(2,3,4)", "(1,4,3)")


def fixture_cosets() -> CosetDecomposition:
    """Coset decomposition of the triangle subgroup with pinned representatives."""
    emb = named_embedding("Z3", "A4")
    reps = [emb.parent.element_index(lbl) for lbl in FIXTURE_REP_LABELS]
    return coset_decomposition(emb, reps=reps)


@dataclass(frozen=True)
class TriangleFilterBank:
    """Four vector-valued filter responses on the triangle group.

    ``values[k, h]`` is the response of filter ``k`` at subgroup element
    ``h`` (a length-K complex vector).
    """

    values: np.ndarray  # (4, 3, K) complex

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _check_array("bank values", self.values, (4, 3, "K"), np.complex128))


@dataclass(frozen=True)
class TetraFunction:
    """Stacked tetrahedron function: ``values[g, i]`` is block ``i`` at element ``g``."""

    values: np.ndarray  # (12, 4, K) complex
    cosets: CosetDecomposition


def bank_from_irrep(label: str, coeffs: np.ndarray,
                    cosets: CosetDecomposition | None = None) -> TriangleFilterBank:
    """Bank whose filters all transform in one triangle-group irrep.

    Filter ``k`` takes value ``rho(h)^{-1} coeffs[k]`` at ``h``, i.e. each
    filter spans a line carrying the irrep under left translation. ``label``
    is a cyclic-group irrep label (``chi0``, ``chi1``, ``chi2``).
    """
    cosets = cosets or fixture_cosets()
    sub = cosets.embedding.sub
    rho = irrep_table(sub).by_label(label)
    coeffs = _check_array("coeffs", coeffs, (4, "K"), np.complex128)  # one vector per filter
    vals = np.empty((4, 3, coeffs.shape[1]), dtype=np.complex128)
    for h in range(3):
        scale = rho.matrices[sub.inv[h], 0, 0]
        vals[:, h, :] = scale * coeffs
    return TriangleFilterBank(vals)


def tetra_induce(bank: TriangleFilterBank,
                 cosets: CosetDecomposition | None = None) -> TetraFunction:
    """Stack the bank into a tetrahedron function via the coset factorization."""
    cosets = cosets or fixture_cosets()
    values = bank.values[cosets.perm, cosets.factor]
    values.setflags(write=False)
    return TetraFunction(values, cosets)


def induced_block_matrices(label: str,
                           cosets: CosetDecomposition | None = None) -> Representation:
    """The 4x4 matrices of the tetrahedron action induced from one irrep.

    This is :func:`planelift.reps.induce` of the named triangle irrep over
    the coset decomposition, the library's one induction: the matrix of
    ``g`` has the scalar ``rho(factor[g, i])`` at position
    ``(perm[g, i], i)`` and zeros elsewhere, and realizes the action of the
    tetrahedron group on the stacked coefficients.
    """
    cosets = cosets or fixture_cosets()
    return induce(irrep_table(cosets.embedding.sub).by_label(label), cosets)


def verify_tetra_action(fn: TetraFunction, label: str) -> bool:
    """Check that left translation of the lifted function matches the induced matrices.

    For every ``g``, the stack of the left-translated function at the
    identity (i.e. the row of ``fn`` at ``g^{-1}``) must equal the induced
    matrix of ``g`` applied blockwise to the identity row, to 1e-12. Holds
    exactly when the bank transforms in the named irrep; fails otherwise.
    """
    cosets = fn.cosets
    parent = cosets.embedding.parent
    mats = induced_block_matrices(label, cosets).matrices
    base = fn.values[parent.identity]  # (4, K)
    for g in range(parent.order):
        expected = mats[g] @ base
        got = fn.values[parent.inv[g]]
        if np.abs(got - expected).max() > 1e-12:
            return False
    return True


def orthographic_special_case(bank: TriangleFilterBank,
                              cosets: CosetDecomposition | None = None) -> TetraFunction:
    """Lift a bank whose last three filters vanish.

    This reproduces the structure of a hand-coded projection baseline: every
    stacked row has at most one nonzero block, sitting where the coset
    permutation sends the first slot.
    """
    if np.abs(bank.values[1:]).max() > 0:
        raise ValueError("special case requires filters 2..4 to be zero")
    return tetra_induce(bank, cosets)
