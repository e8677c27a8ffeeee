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

from .diagrams import Diagram, _joint_size, _unnatural_at
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

    fixed maps (obj, atom_of_d1) -> atom_of_d2; an object outside the
    category raises MapError, and an atom outside its space leaves no
    isomorphism.  The search runs on lifts and positions, and returns
    per-object atom bijections when a full isomorphism exists.
    """
    if d1.category != d2.category:
        raise ShapeMismatchError("morphism search needs equal categories")
    cat = d1.category
    objects = cat.objects
    init = cat.initial
    lift1 = {o: d1._lift(o).tolist() for o in objects}
    lift2 = lift1 if d2 is d1 else {o: d2._lift(o).tolist() for o in objects}
    masses1, masses2 = ({o: d.spaces[o].masses for o in objects} for d in (d1, d2))

    fwd = {o: {} for o in objects}
    bwd = {o: {} for o in objects}

    size = len(d1.initial_space)
    if size != len(d2.initial_space):
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
            a = lift1[o][z]
            b = lift2[o][w]
            cur = fwd[o].get(a)
            if cur is not None:
                if cur != b:
                    break
                continue
            if b in bwd[o] or masses1[o][a] != masses2[o][b]:
                break
            fwd[o][a] = b
            bwd[o][b] = a
            trail.append((o, a, b))
        else:
            return trail
        undo(trail)
        return None

    def undo(trail):
        for o, a, b in trail:
            del fwd[o][a]
            del bwd[o][b]

    if fixed:
        # non-initial constraints are recorded first and checked during
        # propagation; initial-object constraints propagate after them
        pinned = []
        for (obj, a), b in fixed.items():
            # Diagram.space raises MapError for an unknown object
            a, b = d1.space(obj).frame.index.get(a), d2.spaces[obj].frame.index.get(b)
            if a is None or b is None:
                return None
            if obj == init:
                pinned.append((a, b))
            elif (fwd[obj].get(a, b) != b or bwd[obj].get(b, a) != a
                    or masses1[obj][a] != masses2[obj][b]):
                return None
            else:
                fwd[obj][a], bwd[obj][b] = b, a
        for a, b in pinned:
            # assign compares the masses at the initial object too
            if fwd[init].get(a) != b and assign(a, b) is None:
                return None

    # An explicit stack holds one level per initial atom of d1 left free by
    # `fixed`, in atom order.  The free candidates of each mass form a
    # circular doubly linked list in d2's atom order, unlinked while assigned
    # and relinked on backtracking: a level visits only free candidates of
    # its mass, and each visit is a step.
    heads = {m: object() for m in {*masses1[init], *masses2[init]}}
    nxt = {head: head for head in heads.values()}
    prv = dict(nxt)
    for w in range(size):
        if w not in bwd[init]:
            head = heads[masses2[init][w]]
            nxt[prv[head]], prv[w], nxt[w], prv[head] = w, prv[head], head, w
    order = [z for z in range(size) if z not in fwd[init]]

    frames: list = []  # (candidate, trail) of each assigned level
    fresh = w = object()  # w: the candidate last tried at the current level
    while len(frames) < len(order):
        z = order[len(frames)]
        head = heads[masses1[init][z]]
        w = nxt[head if w is fresh else w]
        while w is not head:
            steps += 1
            if steps > step_cap:
                raise TooLargeError("isomorphism search exceeded the step cap")
            trail = assign(z, w)
            if trail is not None:
                nxt[prv[w]], prv[nxt[w]] = nxt[w], prv[w]
                frames.append((w, trail))
                w = fresh
                break
            w = nxt[w]
        else:
            if not frames:
                return None
            w, trail = frames.pop()
            undo(trail)
            nxt[prv[w]] = prv[nxt[w]] = w
    atoms1, atoms2 = ({o: d.spaces[o].atoms for o in objects} for d in (d1, d2))
    return {o: {atoms1[o][a]: atoms2[o][b] for a, b in fwd[o].items()} for o in objects}


def verify_explicit_iso(d1: Diagram, d2: Diagram, maps: dict) -> bool:
    """Check that explicit per-object maps, atom dicts, form an isomorphism
    d1 -> d2; False when one lacks an object or an atom."""
    if d1.category != d2.category:
        return False
    positions = {}
    for o in d1.category.objects:
        sp1, sp2 = d1.spaces[o], d2.spaces[o]
        index = sp2.frame.index
        try:
            m = maps[o]
            images = positions[o] = [index[m[a]] for a in sp1.atoms]
        except KeyError:  # unmapped, or mapped outside sp2
            return False
        if (len(images) != len(sp2) or sp1.denom != sp2.denom or len(set(images)) < len(images)
                or any(sp2.masses[q] != mass for q, mass in zip(images, sp1.masses))):
            return False
    return _unnatural_at(d1, d2, positions) is None


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


def _close_orbit(reached: set, frontier: list, generators) -> None:
    """Add to `reached` every atom the generators reach from `frontier`."""
    while frontier:
        cur = frontier.pop()
        for gen, inv in generators:
            for image in (gen[cur], inv[cur]):
                if image not in reached:
                    reached.add(image)
                    frontier.append(image)


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
        inv = {v: k for k, v in gen.items()}
        generators.append((gen, inv))
        # the orbit so far is closed under the earlier generators, so only
        # what the new one moves it to needs closing under all of them
        fresh = [y for x in reached for y in (gen[x], inv[x]) if y not in reached]
        reached.update(fresh)
        _close_orbit(reached, fresh, generators)
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
    objects = diagram.category.objects
    lca = diagram.category.least_common_ancestor
    minimal = all(_joint_size(diagram, (i, j)) == len(diagram.spaces[lca(i, j)])
                  for k, i in enumerate(objects) for j in objects[k + 1:])

    if diagram.certified_homogeneous:
        return AnalyzeReport(minimal, True, None)
    if diagram.total_support() > support_cap:
        raise TooLargeError("support exceeds the analysis cap and no certificate is present")
    homogeneous = _initial_transitive(diagram, step_cap)
    aut_order = _automorphism_order(diagram, step_cap) if count_automorphisms else None
    return AnalyzeReport(minimal, homogeneous, aut_order)
