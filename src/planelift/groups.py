"""Finite-group core: multiplication tables, subgroup embeddings, coset factorizations.

Elements are dense integer indices into precomputed tables, so all group
arithmetic is exact. Permutation groups are enumerated once into tables;
the permutation product is "apply the left factor first", i.e.
``(a * b)(x) = b(a(x))``, which is the convention the tetrahedron fixtures
in :mod:`planelift.tetra` rely on.

All types here are immutable after construction and safe to share across
threads without synchronization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteGroup",
    "SubgroupEmbedding",
    "CosetDecomposition",
    "build_group",
    "subgroup_embedding",
    "named_embedding",
    "coset_decomposition",
]


# ---------------------------------------------------------------------------
# permutation helpers

def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # left factor acts first: (a * b)(x) = b(a(x))
    return tuple(b[a[x]] for x in range(len(a)))


def _cycles(p: tuple[int, ...]) -> list[list[int]]:
    """The cycles of ``p``, fixed points included, each from its smallest point."""
    seen, cycles = set(), []
    for start in range(len(p)):
        x, cyc = start, []
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = p[x]
        if cyc:
            cycles.append(cyc)
    return cycles


def _cycle_label(p: tuple[int, ...]) -> str:
    """Canonical cycle notation, 1-based, e.g. ``(1,2,3)`` or ``(1,2)(3,4)``."""
    return "".join("(" + ",".join(str(x + 1) for x in cyc) + ")"
                   for cyc in _cycles(p) if len(cyc) > 1) or "e"


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class FiniteGroup:
    """A finite group stored as exact integer tables.

    Attributes
    ----------
    name : str
        Identifier such as ``"A4"`` or ``"Z3"``; ``"custom"`` for raw tables.
    mul : (n, n) int array
        ``mul[a, b]`` is the index of the product ``a * b``.
    inv : (n,) int array
        Index of each element's inverse.
    identity : int
        Index of the identity element.
    labels : tuple of str
        Human-readable element names.
    conjugacy_classes : tuple of tuple of int
        Partition of element indices, ordered by smallest member; the
        identity class comes first.
    """

    name: str
    mul: np.ndarray
    inv: np.ndarray
    identity: int
    labels: tuple[str, ...]
    conjugacy_classes: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    def element_index(self, label: str) -> int:
        return self.labels.index(label)

    def power(self, g: int, k: int) -> int:
        out = self.identity
        if k < 0:
            g, k = int(self.inv[g]), -k
        for _ in range(k):
            out = int(self.mul[out, g])
        return out

    def class_of(self, g: int) -> int:
        for idx, cls in enumerate(self.conjugacy_classes):
            if g in cls:
                return idx
        raise ValueError(f"element {g} not in any conjugacy class")

    def __eq__(self, other) -> bool:
        """Equal groups share one multiplication table. Names are not compared:
        every raw table is named ``"custom"``."""
        return isinstance(other, FiniteGroup) and np.array_equal(self.mul, other.mul)

    def __repr__(self) -> str:  # keep reprs short; tables are large
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class SubgroupEmbedding:
    """Injective homomorphism from ``sub`` into ``parent``."""

    sub: FiniteGroup
    parent: FiniteGroup
    embed: np.ndarray  # sub element index -> parent element index

    @property
    def index(self) -> int:
        return self.parent.order // self.sub.order


@dataclass(frozen=True)
class CosetDecomposition:
    """Left-coset data ``g * reps[i] = reps[perm[g, i]] * embed(factor[g, i])``.

    ``perm[g]`` is the permutation of coset representatives induced by left
    multiplication with ``g``; ``factor[g, i]`` is the subgroup element (as a
    sub-group index) absorbed in the process. Both identities hold exactly in
    integer arithmetic and compose: ``perm[g'] o perm[g] = perm[g'g]`` and
    ``factor[g'g, i] = factor[g', perm[g, i]] * factor[g, i]``.
    """

    embedding: SubgroupEmbedding
    reps: tuple[int, ...]
    coset_of: np.ndarray  # parent element -> coset index
    perm: np.ndarray      # (order_parent, n_cosets)
    factor: np.ndarray    # (order_parent, n_cosets), sub-group indices

    @property
    def n_cosets(self) -> int:
        return len(self.reps)


# ---------------------------------------------------------------------------
# table validation and construction

def _first_failing_triple(mul: np.ndarray) -> tuple[int, int, int] | None:
    lhs = mul[mul, :]
    rhs = mul[:, mul]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        a, b, c = (int(x) for x in bad[0])
        return a, b, c
    return None


def _finish_group(name: str, mul: np.ndarray, labels: tuple[str, ...]) -> FiniteGroup:
    n = mul.shape[0]
    if mul.shape != (n, n) or np.any(mul < 0) or np.any(mul >= n):
        raise ValueError("invalid group table: entries out of range")
    triple = _first_failing_triple(mul)
    if triple is not None:
        raise ValueError(f"invalid group table: associativity fails at triple {triple}")
    identity = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(mul[e], rng) and np.array_equal(mul[:, e], rng):
            identity = e
            break
    if identity is None:
        raise ValueError("invalid group table: no identity element")
    inv = np.full(n, -1, dtype=np.int64)
    for g in range(n):
        hits = np.nonzero(mul[g] == identity)[0]
        if len(hits) != 1 or mul[hits[0], g] != identity:
            raise ValueError(f"invalid group table: element {g} has no two-sided inverse")
        inv[g] = hits[0]
    classes = _conjugacy_classes(mul, inv)
    mul = np.ascontiguousarray(mul, dtype=np.int64)
    mul.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(name, mul, inv, int(identity), labels, classes)


def _conjugacy_classes(mul: np.ndarray, inv: np.ndarray) -> tuple[tuple[int, ...], ...]:
    n = mul.shape[0]
    remaining = set(range(n))
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {int(mul[mul[inv[a], x], a]) for a in range(n)}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def _cyclic(n: int) -> FiniteGroup:
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = tuple("e" if k == 0 else ("g" if k == 1 else f"g^{k}") for k in range(n))
    return _finish_group(f"Z{n}", mul.astype(np.int64), labels)


def _perm_group(name: str, elements: list[tuple[int, ...]]) -> FiniteGroup:
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[_perm_mul(a, b)]
    labels = tuple(_cycle_label(p) for p in elements)
    return _finish_group(name, mul, labels)


def _symmetric(n: int) -> FiniteGroup:
    return _perm_group(f"S{n}", [p for p in itertools.permutations(range(n))])


def _alternating(n: int) -> FiniteGroup:
    # a permutation is even when its length and its number of cycles agree in parity
    elems = [p for p in itertools.permutations(range(n)) if (n - len(_cycles(p))) % 2 == 0]
    return _perm_group(f"A{n}", elems)


_MAX_ORDER = 120


def build_group(spec: str | np.ndarray) -> FiniteGroup:
    """Build a named group or validate an explicit multiplication table.

    Named groups: ``Zn`` (cyclic), ``A4``, ``A5``, ``S3``, ``S4``, ``S5`` and
    ``trivial`` (alias for ``Z1``), all capped at order 120 so exhaustive
    invariant checks stay instant.
    """
    if isinstance(spec, str):
        name = spec.strip()
        if name == "trivial":
            return _cyclic(1)
        if name.startswith("Z") and name[1:].isdigit():
            n = int(name[1:])
            if not 1 <= n <= _MAX_ORDER:
                raise ValueError(f"unsupported group {name!r}: order must be in [1, {_MAX_ORDER}]")
            return _cyclic(n)
        if name in ("A4", "A5"):
            return _alternating(int(name[1]))
        if name in ("S3", "S4", "S5"):
            return _symmetric(int(name[1]))
        raise ValueError(f"unknown group name {name!r}")
    raw = np.asarray(spec)
    exact = raw.dtype.kind not in "fc" or np.isfinite(raw) & (raw == np.trunc(raw.real))
    if not np.all(exact):
        at = tuple(np.argwhere(~exact)[0].tolist())
        raise ValueError(f"invalid group table: entry {at} = {raw[at]} is not an integer")
    table = raw.astype(np.int64)
    return _finish_group("custom", table, tuple(f"x{i}" for i in range(table.shape[0])))


def _check_indices(indices, parent: FiniteGroup, what: str) -> None:
    """Reject caller-supplied element indices that are not integers in [0, order)."""
    for x in indices:
        if not isinstance(x, (int, np.integer)) or not 0 <= x < parent.order:
            raise ValueError(f"{what} {x} is not an element index in [0, {parent.order})")


def subgroup_embedding(sub: FiniteGroup, parent: FiniteGroup,
                       embed: list[int] | np.ndarray) -> SubgroupEmbedding:
    """Wrap and validate an injective homomorphism ``sub -> parent``."""
    if np.shape(embed) != (sub.order,):
        raise ValueError("embedding must map every subgroup element")
    _check_indices(embed, parent, "embedding image")
    embed = np.asarray(embed, dtype=np.int64)
    if len(set(embed.tolist())) != sub.order:
        raise ValueError("embedding is not injective")
    if embed[sub.identity] != parent.identity:
        raise ValueError("embedding does not preserve the identity")
    for a in range(sub.order):
        for b in range(sub.order):
            if embed[sub.mul[a, b]] != parent.mul[embed[a], embed[b]]:
                raise ValueError(f"embedding is not a homomorphism at pair ({a}, {b})")
    if parent.order % sub.order != 0:
        raise ValueError("subgroup order does not divide parent order")
    embed = embed.copy()
    embed.setflags(write=False)
    return SubgroupEmbedding(sub, parent, embed)


_GENERATOR_LABEL = {("Z3", "A4"): "(1,2,3)", ("Z5", "A5"): "(1,2,3,4,5)"}


def named_embedding(sub_name: str, parent: FiniteGroup | str) -> SubgroupEmbedding:
    """Canonical embedding of a named group into ``parent``, a name or a group.

    A given group is used as it is: the embedding's ``parent`` is that object.
    Supported: any named group into itself, the trivial group into anything
    (raw tables too), ``Zm`` into ``Zn`` when ``m`` divides ``n``, ``Z3``
    into ``A4`` and ``Z5`` into ``A5`` (generated by a single rotation cycle).
    """
    parent = build_group(parent) if isinstance(parent, str) else parent
    if sub_name == parent.name and sub_name != "custom":  # "custom" names no group
        return subgroup_embedding(parent, parent, np.arange(parent.order))
    sub = build_group(sub_name)
    key = (sub_name, parent.name)
    if sub.order == 1:
        gen = parent.identity
    elif key in _GENERATOR_LABEL:
        gen = parent.element_index(_GENERATOR_LABEL[key])
    elif sub_name.startswith("Z") and parent.name.startswith("Z") \
            and parent.order % sub.order == 0:
        gen = parent.order // sub.order  # element n/m of Zn generates Zm
    else:
        raise ValueError(f"no canonical embedding of {sub_name!r} into {parent.name!r}")
    return subgroup_embedding(sub, parent, [parent.power(gen, k) for k in range(sub.order)])


def coset_decomposition(embedding: SubgroupEmbedding,
                        reps: list[int] | None = None) -> CosetDecomposition:
    """Decompose the parent group into left cosets of the embedded subgroup.

    Representatives default to the smallest element index in each coset,
    which makes the output deterministic; an explicit ``reps`` list (one
    element per coset) overrides that choice, e.g. to pin a fixture.
    ``perm`` and ``factor`` are read off the multiplication table by array
    indexing, for all elements and cosets at once.
    """
    sub, parent = embedding.sub, embedding.parent
    image = embedding.embed
    n, m = parent.order, embedding.index

    explicit = reps is not None
    if explicit:
        _check_indices(reps, parent, "representative")
    # number the cosets in the order of their representatives; scanning the
    # elements in order, the first of a coset met is its smallest member
    coset_of = np.full(n, -1, dtype=np.int64)
    chosen: list[int] = []
    for g in reps if explicit else range(n):
        if explicit or coset_of[g] < 0:
            coset_of[parent.mul[g, image]] = len(chosen)
            chosen.append(int(g))
    if len(chosen) != m or np.any(coset_of < 0):
        raise ValueError("explicit representatives must cover each coset exactly once")

    # g * reps[i] = t lies in coset j = perm[g, i]; its factor is
    # reps[j]^-1 * t, read back from a parent -> subgroup lookup on the image
    t = parent.mul[:, chosen]
    perm = coset_of[t]
    back = np.zeros(n, dtype=np.int64)
    back[image] = np.arange(sub.order)
    factor = back[parent.mul[parent.inv[chosen][perm], t]]

    coset_of.setflags(write=False)
    perm.setflags(write=False)
    factor.setflags(write=False)
    return CosetDecomposition(embedding, tuple(chosen), coset_of, perm, factor)
