"""Shared randomized generators, everything seeded and deterministic, and
a reordering reload."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from probdiag import (
    Diagram,
    IndexingCategory,
    ProbSpace,
    Reduction,
    build_category,
)
from probdiag import jsonio
from probdiag.errors import LcaViolationError, NoInitialObjectError
from probdiag.spaces import pushforward


def random_weights(rng: random.Random, size: int, denominator: int = 64) -> list[Fraction]:
    """Exact rational weights summing to 1; some entries may be zero."""
    cuts = sorted(rng.randrange(0, denominator + 1) for _ in range(size - 1))
    edges = [0] + cuts + [denominator]
    return [Fraction(b - a, denominator) for a, b in zip(edges, edges[1:])]


def random_space(rng: random.Random, max_support: int = 8, prefix: str = "a") -> ProbSpace:
    size = rng.randint(1, max_support)
    while True:
        weights = random_weights(rng, size)
        if any(weights):
            break
    atoms = [f"{prefix}{i}" for i in range(size)]
    return ProbSpace(atoms, weights)


def random_surjection(rng: random.Random, atoms, n_targets: int, prefix: str = "t") -> dict:
    """A map hitting every one of n_targets classes (n_targets <= len(atoms))."""
    atoms = list(atoms)
    rng.shuffle(atoms)
    mapping = {}
    for idx, atom in enumerate(atoms):
        target = idx if idx < n_targets else rng.randrange(n_targets)
        mapping[atom] = f"{prefix}{target}"
    return mapping


def random_reduction(rng: random.Random, space: ProbSpace | None = None) -> Reduction:
    if space is None:
        space = random_space(rng)
    n_targets = rng.randint(1, len(space))
    return Reduction.from_map(space, random_surjection(rng, space.atoms, n_targets))


def random_category(rng: random.Random, max_objects: int = 5) -> IndexingCategory:
    """Random indexing category: a rooted random DAG, rejection-sampled on
    the least-common-ancestor property."""
    while True:
        k = rng.randint(1, max_objects)
        objects = [f"o{i}" for i in range(k)]
        covers = []
        for j in range(1, k):
            parents = rng.sample(range(j), rng.randint(1, j))
            covers.extend((f"o{p}", f"o{j}") for p in parents)
        try:
            return build_category(objects, covers)
        except (LcaViolationError, NoInitialObjectError):
            continue


def _coarsen(rng: random.Random, init_atoms: list, parent_labels: list[dict],
             extra_merge: float = 0.35) -> dict:
    """The common coarsening of the parent labellings plus random extra
    merges: atoms equal under any parent stay equal, so a map out of every
    parent is well-defined."""
    leader = {z: z for z in init_atoms}

    def find(z):
        while leader[z] != z:
            leader[z] = leader[leader[z]]
            z = leader[z]
        return z

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            leader[ra] = rb

    for labels in parent_labels:
        first: dict = {}
        for z in init_atoms:
            key = labels[z]
            if key in first:
                union(first[key], z)
            else:
                first[key] = z
    roots = sorted({find(z) for z in init_atoms}, key=str)
    if len(roots) > 1:
        for root in roots:
            if rng.random() < extra_merge:
                union(root, rng.choice(roots))
    index = {}
    out = {}
    for z in init_atoms:
        root = find(z)
        if root not in index:
            index[root] = len(index)
        out[z] = index[root]
    return out


def _random_labellings(rng: random.Random, cat: IndexingCategory, init_atoms: list) -> dict:
    """Per-object quotient labels of the initial atoms, functorial along the
    covers by construction."""
    order = sorted(cat.objects, key=lambda o: len(cat.ancestors(o)))
    labels: dict[str, dict] = {cat.initial: {z: z for z in init_atoms}}
    for obj in order:
        if obj == cat.initial:
            continue
        parents = [i for (i, j) in cat.covers if j == obj]
        coarse = _coarsen(rng, init_atoms, [labels[p] for p in parents])
        labels[obj] = {z: f"{obj}:{coarse[z]}" for z in init_atoms}
    return labels


def random_diagram(rng: random.Random, cat: IndexingCategory | None = None,
                   max_initial: int = 8) -> Diagram:
    """Random diagram over cat built by consistent random quotients of a
    random initial measure; commutative by construction."""
    if cat is None:
        cat = random_category(rng)
    size = rng.randint(2, max_initial)
    while True:
        weights = random_weights(rng, size)
        if sum(1 for w in weights if w) >= 2:
            break
    init_atoms = [i for i, w in enumerate(weights) if w > 0]
    measure = ProbSpace(init_atoms, [w for w in weights if w > 0])
    labels = _random_labellings(rng, cat, init_atoms)
    spaces = {o: pushforward(measure, labels[o]) for o in cat.objects}
    maps = {}
    for (i, j) in cat.covers:
        mapping = {labels[i][z]: labels[j][z] for z in init_atoms}
        maps[(i, j)] = Reduction(spaces[i], spaces[j], mapping)
    return Diagram(cat, spaces, maps)


def random_set_diagram(rng: random.Random, max_objects: int = 5, max_initial: int = 16):
    """Random sets-and-surjections skeleton."""
    from probdiag.distances import SetDiagram

    cat = random_category(rng, max_objects)
    size = rng.randint(2, max_initial)
    init_atoms = [f"s{i}" for i in range(size)]
    labels = _random_labellings(rng, cat, init_atoms)
    sets = {o: tuple(dict.fromkeys(labels[o][z] for z in init_atoms)) for o in cat.objects}
    maps = {}
    for (i, j) in cat.covers:
        maps[(i, j)] = {labels[i][z]: labels[j][z] for z in init_atoms}
    return SetDiagram(cat, sets, maps)


def random_distribution(rng: random.Random, atoms) -> dict:
    atoms = list(atoms)
    while True:
        weights = random_weights(rng, len(atoms))
        if any(weights):
            return dict(zip(atoms, weights))


def reversed_reload(diagram: Diagram) -> Diagram:
    """The diagram saved as JSON with every space's atoms reversed, and
    loaded again."""
    obj = jsonio.diagram_to_obj(diagram)
    for space in obj["spaces"].values():
        space["atoms"].reverse()
        space["weights"].reverse()
    return jsonio.diagram_from_obj(obj)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
