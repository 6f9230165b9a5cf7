"""Restriction, branching/induction tables and the checks built on them.

``induce`` is :func:`planelift.reps.induce`, re-exported: it uses the coset
factorization ``g * g_i = g_{j} * h`` directly, placing the subgroup block
for ``h`` at block position ``(j, i)`` of the matrix of ``g``. Branching
tables are computed by decomposing restrictions, induction tables by
decomposing inductions, so comparing the two via transposition is a genuine
cross-validation rather than a tautology.

All operations are pure functions over immutable inputs; table construction
is trivially parallelizable across irreps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .groups import CosetDecomposition, SubgroupEmbedding, coset_decomposition
from .reps import (
    Decomposition,
    IrrepTable,
    Representation,
    decompose,
    induce,
    irrep_table,
    regular_representation,
)

__all__ = [
    "BranchingTable",
    "InductionTable",
    "restrict",
    "induce",
    "branching_table",
    "induction_table",
    "check_frobenius",
    "completeness_check",
    "boundary_compatibility",
]


@dataclass(frozen=True)
class BranchingTable:
    """Integer multiplicities between two irrep sets, addressed by label.

    A branching table has parent-group irreps as rows and subgroup irreps as
    columns; an induction table (``InductionTable``, the same type) has
    subgroup irreps as rows and parent-group irreps as columns.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: np.ndarray  # (len(rows), len(cols)) int

    def __getitem__(self, key: tuple[str, str]) -> int:
        r, c = key
        return int(self.entries[self.rows.index(r), self.cols.index(c)])


InductionTable = BranchingTable


def restrict(rep: Representation, embedding: SubgroupEmbedding) -> Representation:
    """Evaluate a parent-group representation on the embedded subgroup."""
    if rep.group != embedding.parent:
        raise ValueError("representation is not defined on the embedding's parent group")
    return Representation(embedding.sub, rep.matrices[embedding.embed],
                          f"Res({rep.label})")


def _multiplicity_table(sources: IrrepTable, lift: Callable[[Representation], Representation],
                        targets: IrrepTable) -> BranchingTable:
    """One row per source irrep: the multiplicity of each target irrep in its lift."""
    cols = targets.labels()
    mults = [decompose(lift(irrep), targets).multiplicities for irrep in sources.irreps]
    entries = np.array([[m.get(lbl, 0) for lbl in cols] for m in mults], dtype=np.int64)
    entries.setflags(write=False)
    return BranchingTable(sources.labels(), cols, entries)


def branching_table(embedding: SubgroupEmbedding) -> BranchingTable:
    """Multiplicity of each subgroup irrep inside each restricted parent irrep."""
    return _multiplicity_table(irrep_table(embedding.parent),
                               lambda sigma: restrict(sigma, embedding),
                               irrep_table(embedding.sub))


def induction_table(cosets: CosetDecomposition) -> InductionTable:
    """Multiplicity of each parent irrep inside each induced subgroup irrep."""
    emb = cosets.embedding
    return _multiplicity_table(irrep_table(emb.sub), lambda rho: induce(rho, cosets),
                               irrep_table(emb.parent))


def _reciprocity_tables(cosets: CosetDecomposition) -> tuple[BranchingTable, InductionTable]:
    """``branching_table`` and ``induction_table`` of one coset decomposition,
    from one irrep table per group, not one per group and table."""
    emb = cosets.embedding
    parent, sub = irrep_table(emb.parent), irrep_table(emb.sub)
    return (_multiplicity_table(parent, lambda sigma: restrict(sigma, emb), sub),
            _multiplicity_table(sub, lambda rho: induce(rho, cosets), parent))


def check_frobenius(branching: BranchingTable,
                    induction: InductionTable) -> tuple[bool, tuple[str, str] | None]:
    """True iff the branching table is the transpose of the induction table.

    Returns the first mismatching (parent irrep, subgroup irrep) pair
    otherwise.
    """
    if branching.rows != induction.cols or branching.cols != induction.rows:
        raise ValueError("tables are not over the same pair of irrep sets")
    diff = branching.entries != induction.entries.T
    if diff.any():
        r, c = np.argwhere(diff)[0]
        return False, (branching.rows[r], branching.cols[c])
    return True, None


def completeness_check(embedding: SubgroupEmbedding) -> bool:
    """Inducing the subgroup's regular representation yields the parent's.

    Verified at the level of irreducible decompositions, which determine
    representations completely.
    """
    parent_table = irrep_table(embedding.parent)
    lifted = induce(regular_representation(embedding.sub), coset_decomposition(embedding))
    lhs = decompose(lifted, parent_table)
    rhs = decompose(regular_representation(embedding.parent), parent_table)
    return lhs == rhs


def boundary_compatibility(h_layer: Decomposition, g_layer: Decomposition,
                           branching: BranchingTable) -> int:
    """Dimension of the intertwiner space between an H-typed layer and the
    restriction of a G-typed layer.

    Equals ``sum_rho m_rho * sum_sigma n_sigma * B[sigma, rho]``; by
    reciprocity the same number counts intertwiners from the induced H-layer
    into the G-layer, so this is the weight-space dimension available at the
    boundary where a network switches groups.
    """
    total = 0
    for rho, m in h_layer.multiplicities.items():
        for sigma, nmult in g_layer.multiplicities.items():
            total += m * nmult * branching[sigma, rho]
    return total
