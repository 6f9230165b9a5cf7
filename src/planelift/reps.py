"""Matrix representations of finite groups and character-based decomposition.

Representations are stored as dense complex matrices, one per group element,
so the homomorphism property can be checked exhaustively. Irrep tables are
built for the named groups (cyclic groups, A4, A5). The linear irreps are
written down; every non-linear A4/A5 irrep is the multiplicity-one isotypic
component of a coset permutation representation (A4 on the cosets of Z3,
A5 on the cosets of Z5) or, for A5's ``std4``, of ``icosa3a * icosa3b``.
Character inner products then decompose arbitrary representations.

``induce`` is the one construction of an induced representation. Every
permutation representation here is ``induce`` of a trivial irrep over a
subgroup that ``named_embedding`` embeds into the caller's group, so every
irrep of ``irrep_table(G)`` and ``regular_representation(G)`` lives on ``G``.
Two groups are equal (``==``) when their multiplication tables are.

Everything is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (CosetDecomposition, FiniteGroup, SubgroupEmbedding, coset_decomposition,
                     named_embedding)
from .so2_so3 import _check_array

__all__ = [
    "Representation",
    "IrrepTable",
    "Decomposition",
    "irrep_table",
    "regular_representation",
    "trivial_representation",
    "decompose",
    "direct_sum",
    "induce",
    "tensor_product",
    "conjugate",
    "hom_dimension",
    "validate_representation",
]

HOM_TOL = 1e-10
INT_TOL = 1e-6


@dataclass(frozen=True)
class Representation:
    """A matrix-valued homomorphism: one ``dim x dim`` complex matrix per element."""

    group: FiniteGroup
    matrices: np.ndarray  # (order, dim, dim) complex
    label: str = ""

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])

    def __post_init__(self):
        object.__setattr__(self, "matrices", _check_array(
            "matrices", self.matrices, (self.group.order, "d", "d"), np.complex128))

    def character(self) -> np.ndarray:
        """Character per conjugacy class, evaluated at class representatives."""
        return np.array([np.trace(self.matrices[cls[0]])
                         for cls in self.group.conjugacy_classes])

    def __repr__(self) -> str:
        return f"Representation({self.label or '?'}, dim={self.dim}, group={self.group.name})"


def validate_representation(rep: Representation, tol: float = HOM_TOL) -> None:
    """Check identity, the full homomorphism table, and unitarity.

    Raises ``AssertionError`` on the first violation, also under ``python -O``;
    meant for tests and construction-time sanity checks, not hot paths.
    """
    g = rep.group
    d = rep.dim
    eye = np.eye(d)
    if not np.linalg.norm(rep.matrices[g.identity] - eye) < tol:
        raise AssertionError("identity matrix wrong")
    for a in range(g.order):
        prod = rep.matrices[a] @ rep.matrices
        err = np.abs(prod - rep.matrices[g.mul[a]]).max()
        if not err < tol:
            raise AssertionError(f"homomorphism fails at left factor {a}: {err:.2e}")
    for a in range(g.order):
        u = rep.matrices[a]
        if not np.linalg.norm(u @ u.conj().T - eye) < tol:
            raise AssertionError(f"element {a} not unitary")


@dataclass(frozen=True)
class IrrepTable:
    group: FiniteGroup
    irreps: tuple[Representation, ...]
    characters: np.ndarray  # (n_irreps, n_classes) complex

    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.irreps)

    def by_label(self, label: str) -> Representation:
        for r in self.irreps:
            if r.label == label:
                return r
        raise ValueError(f"unknown irrep {label!r}; available: {', '.join(self.labels())}")


@dataclass(frozen=True)
class Decomposition:
    """Multiplicity of each irrep, keyed by irrep label."""

    multiplicities: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "multiplicities",
                           {k: int(v) for k, v in self.multiplicities.items() if v})

    def dim(self, table: IrrepTable) -> int:
        return sum(m * table.by_label(lbl).dim for lbl, m in self.multiplicities.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Decomposition) and self.multiplicities == other.multiplicities

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.multiplicities.items()))
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# irrep constructions

def _coset_action(embedding: SubgroupEmbedding) -> Representation:
    """Permutation rep of the parent on the left cosets of an embedded subgroup."""
    return induce(trivial_representation(embedding.sub), coset_decomposition(embedding))


def _project_irrep(rep: Representation, class_char: np.ndarray,
                   dim: int, label: str) -> Representation:
    """Extract a multiplicity-one irrep from a real representation.

    Uses the isotypic projector ``(d/|G|) sum_g conj(chi(g)) rho(g)`` and
    restricts the action to an orthonormal basis of its range.
    """
    group = rep.group
    char_per_elem = np.empty(group.order, dtype=np.complex128)
    for c, cls in enumerate(group.conjugacy_classes):
        for g in cls:
            char_per_elem[g] = class_char[c]
    proj = np.einsum("g,gij->ij", char_per_elem.conj(), rep.matrices) * (dim / group.order)
    proj = proj.real
    u, s, _ = np.linalg.svd(proj)
    rank = int((s > 0.5).sum())
    if rank != dim:
        raise ValueError(f"isotypic projector for {label} has rank {rank}, expected {dim}")
    q = u[:, :dim]
    mats = np.einsum("pi,gpq,qj->gij", q, rep.matrices, q)
    return Representation(group, mats, label)


def _cyclic_irreps(group: FiniteGroup) -> tuple[Representation, ...]:
    n = group.order
    omega = np.exp(2j * np.pi / n)
    return tuple(Representation(group, np.array([[[omega ** (k * j)]] for j in range(n)]),
                                f"chi{k}") for k in range(n))


def _a4_irreps(group: FiniteGroup) -> tuple[Representation, ...]:
    # the quotient by V4 is Z3; its characters are class functions, so the
    # exponent t is 1 on the class of (1,2,3), 2 on that of its square, else 0
    z3 = named_embedding("Z3", group)  # embed[k] is (1,2,3)^k
    exponent = {group.class_of(int(z3.embed[k])): k for k in (1, 2)}
    t = [exponent.get(group.class_of(g), 0) for g in range(group.order)]
    omega = np.exp(2j * np.pi / 3)

    triv = trivial_representation(group)
    chi_p = Representation(group, np.array([[[omega ** k]] for k in t]), "omega_plus")
    chi_m = Representation(group, np.array([[[omega ** (-k)]] for k in t]), "omega_minus")
    # A4 on the 4 cosets of Z3 is triv + std3
    cosets4 = _coset_action(z3)
    return triv, chi_p, chi_m, _project_irrep(cosets4, cosets4.character() - 1, 3, "std3")


def _a5_irreps(group: FiniteGroup) -> tuple[Representation, ...]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    triv = trivial_representation(group)

    # identify classes by element order plus which class holds the reference 5-cycle
    orders = []
    for cls in group.conjugacy_classes:
        g, k = cls[0], 1
        while g != group.identity:
            g, k = int(group.mul[g, cls[0]]), k + 1
        orders.append(k)
    z5 = named_embedding("Z5", group)  # generated by the reference 5-cycle
    five_a = group.class_of(int(z5.embed[1]))
    five_b = next(c for c, k in enumerate(orders) if k == 5 and c != five_a)
    class2 = orders.index(2)
    class3 = orders.index(3)
    nc = len(group.conjugacy_classes)

    def char_vec(entries: dict[int, complex]) -> np.ndarray:
        out = np.zeros(nc, dtype=np.complex128)
        for c, v in entries.items():
            out[c] = v
        return out

    chi3a = char_vec({0: 3, class2: -1, class3: 0, five_a: phi, five_b: 1 - phi})
    chi3b = char_vec({0: 3, class2: -1, class3: 0, five_a: 1 - phi, five_b: phi})
    chi4 = char_vec({0: 4, class2: 0, class3: 1, five_a: -1, five_b: -1})
    chi5 = char_vec({0: 5, class2: 1, class3: -1, five_a: 0, five_b: 0})

    # A5 on the 12 cosets of Z5 is triv + icosa3a + icosa3b + pair5, and
    # icosa3a * icosa3b is std4 + pair5
    cosets12 = _coset_action(z5)
    irr3a = _project_irrep(cosets12, chi3a, 3, "icosa3a")
    irr3b = _project_irrep(cosets12, chi3b, 3, "icosa3b")
    irr5 = _project_irrep(cosets12, chi5, 5, "pair5")
    std4 = _project_irrep(tensor_product(irr3a, irr3b), chi4, 4, "std4")
    return triv, irr3a, irr3b, std4, irr5


def irrep_table(group: FiniteGroup) -> IrrepTable:
    """Full irrep table for a named group (cyclic, A4 or A5).

    Raises ``ValueError("irreps unavailable")`` for groups without a
    built-in construction.
    """
    if group.order > 120:
        raise ValueError("irreps unavailable: group order exceeds 120")
    if group.name.startswith("Z") and group.name[1:].isdigit():
        irreps = _cyclic_irreps(group)
    elif group.name == "A4":
        irreps = _a4_irreps(group)
    elif group.name == "A5":
        irreps = _a5_irreps(group)
    else:
        raise ValueError(f"irreps unavailable for group {group.name!r}")
    characters = np.array([r.character() for r in irreps])
    characters.setflags(write=False)
    return IrrepTable(group, irreps, characters)


def trivial_representation(group: FiniteGroup) -> Representation:
    return Representation(group, np.ones((group.order, 1, 1)), "triv")


def regular_representation(group: FiniteGroup) -> Representation:
    """Left translation acting on functions over the group: the trivial irrep
    of the trivial subgroup, induced."""
    return Representation(group, _coset_action(named_embedding("trivial", group)).matrices,
                          "regular")


# ---------------------------------------------------------------------------
# operations

def decompose(rep: Representation, table: IrrepTable) -> Decomposition:
    """Multiplicities of each irrep via character inner products."""
    if rep.group != table.group:
        raise ValueError("representation and irrep table refer to different groups")
    sizes = np.array([len(c) for c in table.group.conjugacy_classes])
    chi = rep.character()
    mults = {}
    for irr, row in zip(table.irreps, table.characters):
        val = (sizes * chi * row.conj()).sum() / table.group.order
        m = round(val.real)
        if abs(val - m) > INT_TOL:
            raise ValueError(
                f"non-representation or numerical failure: multiplicity of "
                f"{irr.label} is {val}, not an integer")
        if m:
            mults[irr.label] = m
    dec = Decomposition(mults)
    if dec.dim(table) != rep.dim:
        raise ValueError("non-representation or numerical failure: dimensions do not add up")
    return dec


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.group != b.group:
        raise ValueError("direct sum requires representations of the same group")
    da, db = a.dim, b.dim
    mats = np.zeros((a.group.order, da + db, da + db), dtype=np.complex128)
    mats[:, :da, :da] = a.matrices
    mats[:, da:, da:] = b.matrices
    return Representation(a.group, mats, f"{a.label}+{b.label}")


def induce(rep: Representation, cosets: CosetDecomposition) -> Representation:
    """Induce a subgroup representation up to the parent group.

    The induced space is one copy of the representation space per left
    coset; ``g`` maps copy ``i`` onto copy ``perm[g, i]`` through the
    subgroup matrix of ``factor[g, i]``, so the matrix of ``g`` holds that
    block at block position ``(perm[g, i], i)`` and zeros elsewhere. Output
    dimension is the coset index times the input dimension.
    """
    if rep.group != cosets.embedding.sub:
        raise ValueError("representation is not defined on the embedding's subgroup")
    parent, m, d = cosets.embedding.parent, cosets.n_cosets, rep.dim
    # axes (g, block row, row, block col, col): one scatter places every block
    mats = np.zeros((parent.order, m, d, m, d), dtype=np.complex128)
    mats[np.arange(parent.order)[:, None], cosets.perm, :, np.arange(m), :] = \
        rep.matrices[cosets.factor]
    return Representation(parent, mats.reshape(parent.order, m * d, m * d), f"Ind({rep.label})")


def tensor_product(a: Representation, b: Representation) -> Representation:
    if a.group != b.group:
        raise ValueError("tensor product requires representations of the same group")
    mats = np.einsum("gij,gkl->gikjl", a.matrices, b.matrices)
    d = a.dim * b.dim
    return Representation(a.group, mats.reshape(a.group.order, d, d), f"{a.label}*{b.label}")


def conjugate(rep: Representation) -> Representation:
    return Representation(rep.group, rep.matrices.conj(), f"conj({rep.label})")


def hom_dimension(a: Representation, b: Representation,
                  table: IrrepTable | None = None) -> int:
    """Dimension of the space of intertwiners between ``a`` and ``b``."""
    if table is None:
        table = irrep_table(a.group)
    da = decompose(a, table).multiplicities
    db = decompose(b, table).multiplicities
    return sum(m * db.get(lbl, 0) for lbl, m in da.items())

