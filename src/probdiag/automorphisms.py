"""Isomorphism and automorphism search for diagrams.

A morphism of diagrams over the same category is a family of per-object
weight-preserving bijections commuting with every prime map.  Since every
space is a quotient of the initial space, the bijection on the initial
space determines the whole family; the search therefore backtracks over
initial-atom assignments and propagates the induced partial maps to every
object, pruning on weight classes and injectivity.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram
from .errors import ShapeMismatchError, TooLargeError

DEFAULT_SUPPORT_CAP = 10_000
DEFAULT_STEP_CAP = 2_000_000


@dataclass(frozen=True)
class AnalyzeReport:
    minimal: bool
    homogeneous: bool
    aut_order: int | None  # None when certified or not counted


def find_diagram_morphism(d1: Diagram, d2: Diagram, fixed=None,
                          step_cap: int = DEFAULT_STEP_CAP) -> dict | None:
    """One isomorphism d1 -> d2 respecting `fixed` constraints, or None.

    fixed maps (obj, atom_of_d1) -> atom_of_d2.  Returns per-object atom
    bijections when a full isomorphism exists.
    """
    if d1.category != d2.category:
        raise ShapeMismatchError("morphism search needs equal categories")
    cat = d1.category
    objects = cat.objects
    init = cat.initial
    comp1 = {o: d1.composite_mapping(init, o) for o in objects}
    comp2 = {o: d2.composite_mapping(init, o) for o in objects}

    fwd = {o: {} for o in objects}
    bwd = {o: {} for o in objects}

    atoms1 = d1.initial_space.atoms
    atoms2 = d2.initial_space.atoms
    if len(atoms1) != len(atoms2):
        return None
    # weight-preserving bijections keep the canonical denominator, so masses
    # over it compare weights exactly
    if any(d1.spaces[o].denom != d2.spaces[o].denom for o in objects):
        return None
    steps = 0

    def assign(z, w):
        """Propagate z -> w through every object; return an undo trail or None."""
        trail = []
        for o in objects:
            a = comp1[o][z]
            b = comp2[o][w]
            cur = fwd[o].get(a)
            if cur is not None:
                if cur != b:
                    break
                continue
            if b in bwd[o] or d1.spaces[o].mass(a) != d2.spaces[o].mass(b):
                break
            fwd[o][a] = b
            bwd[o][b] = a
            trail.append((o, a, b))
        else:
            return trail
        for o, a, b in trail:
            del fwd[o][a]
            del bwd[o][b]
        return None

    if fixed:
        # non-initial constraints are recorded first and checked during
        # propagation; initial-object constraints propagate immediately
        for (obj, a), b in fixed.items():
            if obj == init:
                continue
            if fwd[obj].get(a, b) != b or bwd[obj].get(b, a) != a:
                return None
            if d1.spaces[obj].mass(a) != d2.spaces[obj].mass(b):
                return None
            fwd[obj][a] = b
            bwd[obj][b] = a
        for (obj, a), b in fixed.items():
            if obj != init:
                continue
            if fwd[init].get(a) == b:
                continue
            if d1.initial_space.mass(a) != d2.initial_space.mass(b):
                return None
            if assign(a, b) is None:
                return None

    def search(idx: int) -> bool:
        nonlocal steps
        while idx < len(atoms1) and atoms1[idx] in fwd[init]:
            idx += 1
        if idx == len(atoms1):
            return True
        z = atoms1[idx]
        mass = d1.initial_space.mass(z)
        for w in atoms2:
            if w in bwd[init] or d2.initial_space.mass(w) != mass:
                continue
            steps += 1
            if steps > step_cap:
                raise TooLargeError("isomorphism search exceeded the step cap")
            trail = assign(z, w)
            if trail is None:
                continue
            if search(idx + 1):
                return True
            for o, a, b in trail:
                del fwd[o][a]
                del bwd[o][b]
        return False

    if search(0):
        return {o: dict(fwd[o]) for o in objects}
    return None


def verify_explicit_iso(d1: Diagram, d2: Diagram, maps: dict) -> bool:
    """Check that explicit per-object maps form an isomorphism d1 -> d2."""
    if d1.category != d2.category:
        return False
    for o in d1.category.objects:
        m = maps[o]
        sp1, sp2 = d1.spaces[o], d2.spaces[o]
        if len(sp1) != len(sp2) or sp1.denom != sp2.denom:
            return False
        seen = set()
        for a, mass in zip(sp1.atoms, sp1.masses):
            b = m.get(a)
            if b is None or b in seen or sp2.mass(b) != mass:
                return False
            seen.add(b)
    for (i, j) in d1.category.covers:
        m1 = d1.prime_maps[(i, j)].mapping
        m2 = d2.prime_maps[(i, j)].mapping
        for a in d1.spaces[i].atoms:
            if maps[j][m1[a]] != m2[maps[i][a]]:
                return False
    return True


def diagram_isomorphic(d1: Diagram, d2: Diagram, *, support_cap: int = DEFAULT_SUPPORT_CAP,
                       step_cap: int = DEFAULT_STEP_CAP) -> tuple[bool, dict | None]:
    """Existence (with witness) of an isomorphism between two diagrams."""
    if d1.category != d2.category:
        raise ShapeMismatchError("isomorphism needs diagrams over the same category")
    if max(d1.total_support(), d2.total_support()) > support_cap:
        raise TooLargeError("supports exceed the isomorphism search cap")
    for o in d1.category.objects:
        sp1, sp2 = d1.spaces[o], d2.spaces[o]
        if sp1.denom != sp2.denom or sorted(sp1.masses) != sorted(sp2.masses):
            return False, None
    iso = find_diagram_morphism(d1, d2, step_cap=step_cap)
    return (iso is not None), iso


def _orbit_closure(seed, generators) -> set:
    reached = {seed}
    frontier = [seed]
    while frontier:
        cur = frontier.pop()
        for gen, inv in generators:
            for image in (gen.get(cur), inv.get(cur)):
                if image is not None and image not in reached:
                    reached.add(image)
                    frontier.append(image)
    return reached


def _initial_transitive(diagram: Diagram, step_cap: int) -> bool:
    """Does the automorphism group act transitively on the initial space?

    Transitivity there forces transitivity on every space, because each
    space is an equivariant quotient of the initial one.
    """
    init = diagram.initial
    atoms = diagram.initial_space.atoms
    if not diagram.initial_space.is_uniform():
        return False
    a0 = atoms[0]
    generators: list[tuple[dict, dict]] = []
    reached = {a0}
    for b in atoms[1:]:
        if b in reached:
            continue
        iso = find_diagram_morphism(diagram, diagram, fixed={(init, a0): b},
                                    step_cap=step_cap)
        if iso is None:
            return False
        gen = iso[init]
        generators.append((gen, {v: k for k, v in gen.items()}))
        reached = _orbit_closure(a0, generators)
    return True


def _automorphism_order(diagram: Diagram, step_cap: int) -> int:
    """Exact |Aut| via an orbit-stabilizer chain over the initial atoms.

    The group acts faithfully on the initial space, so the product of the
    orbit sizes along a stabilizer chain is the group order.
    """
    init = diagram.initial
    atoms = diagram.initial_space.atoms
    order = 1
    fixed: dict = {}
    for k, a in enumerate(atoms):
        orbit = 0
        mass = diagram.initial_space.mass(a)
        for b in atoms:
            if diagram.initial_space.mass(b) != mass:
                continue
            trial = dict(fixed)
            trial[(init, a)] = b
            if find_diagram_morphism(diagram, diagram, fixed=trial,
                                     step_cap=step_cap) is not None:
                orbit += 1
        order *= orbit
        fixed[(init, a)] = a
    return order


def analyze(diagram: Diagram, *, support_cap: int = DEFAULT_SUPPORT_CAP,
            step_cap: int = DEFAULT_STEP_CAP,
            count_automorphisms: bool = True) -> AnalyzeReport:
    """Minimality and homogeneity report.

    Minimality: every minimal fan of the category (feet i, j topped by their
    least common ancestor) must map to a minimal fan of spaces, i.e. the
    joint map from the top must be injective.

    Homogeneity: searched through the automorphism group unless the diagram
    carries a constructor certificate; past the support cap an uncertified
    diagram raises TooLargeError.
    """
    cat = diagram.category
    minimal = True
    for idx, i in enumerate(cat.objects):
        for j in cat.objects[idx + 1:]:
            top = cat.least_common_ancestor(i, j)
            ci = diagram.composite_mapping(top, i)
            cj = diagram.composite_mapping(top, j)
            top_atoms = diagram.spaces[top].atoms
            if len({(ci[z], cj[z]) for z in top_atoms}) != len(top_atoms):
                minimal = False
                break
        if not minimal:
            break

    if diagram.certified_homogeneous:
        return AnalyzeReport(minimal, True, None)
    if diagram.total_support() > support_cap:
        raise TooLargeError("support exceeds the analysis cap and no certificate is present")
    homogeneous = _initial_transitive(diagram, step_cap)
    aut_order = _automorphism_order(diagram, step_cap) if count_automorphisms else None
    return AnalyzeReport(minimal, homogeneous, aut_order)
