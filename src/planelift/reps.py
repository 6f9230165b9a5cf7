"""Matrix representations of finite groups and character-based decomposition.

Representations are stored as dense complex matrices, one per group element,
so the homomorphism property can be checked exhaustively. Irrep tables are
built for the named groups (cyclic groups, A4, A5). The linear irreps are
written down; every non-linear A4/A5 irrep is the multiplicity-one isotypic
component of a coset permutation representation (A4 on the cosets of Z3,
A5 on the cosets of Z5) or, for A5's ``std4``, of ``icosa3a * icosa3b``.
Character inner products then decompose arbitrary representations.

Everything is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, _same_group, build_group, coset_decomposition, subgroup_embedding

__all__ = [
    "Representation",
    "IrrepTable",
    "Decomposition",
    "irrep_table",
    "regular_representation",
    "trivial_representation",
    "decompose",
    "direct_sum",
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
        m = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    def character(self) -> np.ndarray:
        """Character per conjugacy class, evaluated at class representatives."""
        return np.array([np.trace(self.matrices[cls[0]])
                         for cls in self.group.conjugacy_classes])

    def __repr__(self) -> str:
        return f"Representation({self.label or '?'}, dim={self.dim}, group={self.group.name})"


def validate_representation(rep: Representation, tol: float = HOM_TOL) -> None:
    """Check identity, the full homomorphism table, and unitarity.

    Raises ``AssertionError`` on the first violation; meant for tests and
    construction-time sanity checks, not hot paths.
    """
    g = rep.group
    d = rep.dim
    eye = np.eye(d)
    assert np.linalg.norm(rep.matrices[g.identity] - eye) < tol, "identity matrix wrong"
    for a in range(g.order):
        prod = rep.matrices[a] @ rep.matrices
        err = np.abs(prod - rep.matrices[g.mul[a]]).max()
        assert err < tol, f"homomorphism fails at left factor {a}: {err:.2e}"
    for a in range(g.order):
        u = rep.matrices[a]
        assert np.linalg.norm(u @ u.conj().T - eye) < tol, f"element {a} not unitary"


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

def _point_action_matrices(group: FiniteGroup, orbit_of: np.ndarray, n_points: int) -> np.ndarray:
    """Permutation matrices for a left action given as ``orbit_of[g, point]``."""
    mats = np.zeros((group.order, n_points, n_points))
    mats[np.arange(group.order)[:, None], orbit_of, np.arange(n_points)] = 1.0
    return mats


def _coset_action(group: FiniteGroup, generator: str) -> Representation:
    """Permutation rep on the left cosets of the cyclic subgroup generated by the
    element labelled ``generator``: the trivial irrep of that subgroup, induced."""
    gen = group.element_index(generator)
    powers = [group.identity]
    while (nxt := int(group.mul[powers[-1], gen])) != group.identity:
        powers.append(nxt)
    cosets = coset_decomposition(subgroup_embedding(build_group(f"Z{len(powers)}"), group, powers))
    return Representation(group, _point_action_matrices(group, cosets.perm, cosets.n_cosets))


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


def _cyclic_table(group: FiniteGroup) -> IrrepTable:
    n = group.order
    omega = np.exp(2j * np.pi / n)
    irreps = []
    for k in range(n):
        mats = np.array([[[omega ** (k * j)]] for j in range(n)])
        irreps.append(Representation(group, mats, f"chi{k}"))
    chars = np.array([r.character() for r in irreps])
    return IrrepTable(group, tuple(irreps), chars)


def _a4_table(group: FiniteGroup) -> IrrepTable:
    # the quotient by V4 is Z3; its characters are class functions, so the
    # exponent t is 1 on the class of (1,2,3), 2 on that of its square, else 0
    gen = group.element_index("(1,2,3)")
    exponent = {group.class_of(group.power(gen, k)): k for k in (1, 2)}
    t = [exponent.get(group.class_of(g), 0) for g in range(group.order)]
    omega = np.exp(2j * np.pi / 3)

    triv = trivial_representation(group)
    chi_p = Representation(group, np.array([[[omega ** k]] for k in t]), "omega_plus")
    chi_m = Representation(group, np.array([[[omega ** (-k)]] for k in t]), "omega_minus")
    # A4 on the 4 cosets of Z3 is triv + std3
    cosets4 = _coset_action(group, "(1,2,3)")
    std = _project_irrep(cosets4, cosets4.character() - 1, 3, "std3")
    irreps = (triv, chi_p, chi_m, std)
    chars = np.array([r.character() for r in irreps])
    return IrrepTable(group, irreps, chars)


def _a5_table(group: FiniteGroup) -> IrrepTable:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    triv = trivial_representation(group)

    # identify classes by element order plus which class holds the reference 5-cycle
    orders = []
    for cls in group.conjugacy_classes:
        g, k = cls[0], 1
        while g != group.identity:
            g, k = int(group.mul[g, cls[0]]), k + 1
        orders.append(k)
    five_a = group.class_of(group.element_index("(1,2,3,4,5)"))
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
    cosets12 = _coset_action(group, "(1,2,3,4,5)")
    irr3a = _project_irrep(cosets12, chi3a, 3, "icosa3a")
    irr3b = _project_irrep(cosets12, chi3b, 3, "icosa3b")
    irr5 = _project_irrep(cosets12, chi5, 5, "pair5")
    std4 = _project_irrep(tensor_product(irr3a, irr3b), chi4, 4, "std4")

    irreps = (triv, irr3a, irr3b, std4, irr5)
    chars = np.array([r.character() for r in irreps])
    return IrrepTable(group, irreps, chars)


def irrep_table(group: FiniteGroup) -> IrrepTable:
    """Full irrep table for a named group (cyclic, A4 or A5).

    Raises ``ValueError("irreps unavailable")`` for groups without a
    built-in construction.
    """
    if group.order > 120:
        raise ValueError("irreps unavailable: group order exceeds 120")
    if group.name.startswith("Z") and group.name[1:].isdigit():
        return _cyclic_table(group)
    if group.name == "A4":
        return _a4_table(group)
    if group.name == "A5":
        return _a5_table(group)
    raise ValueError(f"irreps unavailable for group {group.name!r}")


def trivial_representation(group: FiniteGroup) -> Representation:
    return Representation(group, np.ones((group.order, 1, 1)), "triv")


def regular_representation(group: FiniteGroup) -> Representation:
    """Left translation acting on functions over the group."""
    return Representation(group, _point_action_matrices(group, group.mul, group.order),
                          "regular")


# ---------------------------------------------------------------------------
# operations

def decompose(rep: Representation, table: IrrepTable) -> Decomposition:
    """Multiplicities of each irrep via character inner products."""
    if not _same_group(rep.group, table.group):
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
    if not _same_group(a.group, b.group):
        raise ValueError("direct sum requires representations of the same group")
    da, db = a.dim, b.dim
    mats = np.zeros((a.group.order, da + db, da + db), dtype=np.complex128)
    mats[:, :da, :da] = a.matrices
    mats[:, da:, da:] = b.matrices
    return Representation(a.group, mats, f"{a.label}+{b.label}")


def tensor_product(a: Representation, b: Representation) -> Representation:
    if not _same_group(a.group, b.group):
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

