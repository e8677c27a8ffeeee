"""Entropy distances between diagrams: fan distance, certified bounds on the
intrinsic distance, exact minimum-entropy coupling for single spaces, and the
local total-variation estimate with an explicit witness coupling.

Exact intrinsic distance for multi-object diagrams is not computed; the
functions here return certified lower/upper bounds with witnesses, which is
all the downstream contraction analysis needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .categories import IndexingCategory
from .diagrams import (
    Diagram,
    FanOfDiagrams,
    Reduction,
    constant_diagram,
    coupling_fan,
    diagonal_fan,
    tensor_fan,
)
from .errors import (
    CapExceededError,
    MapError,
    ShapeMismatchError,
    SliceMismatchError,
)
from .spaces import (
    LAMBDA_HEAVY,
    LAMBDA_LIGHT,
    ProbSpace,
    as_fraction,
    entropy_of_masses,
    lambda_space,
    pushforward,
)

DEFAULT_COUPLING_CAP = 30


def entropy_gap(left: Diagram, right: Diagram) -> float:
    """l1 distance of the entropy vectors; a lower bound for the intrinsic
    distance since the top of any fan dominates both feet objectwise."""
    if left.category != right.category:
        raise ShapeMismatchError("entropy gap needs diagrams of the same shape")
    return sum(abs(left.spaces[o].entropy - right.spaces[o].entropy)
               for o in left.category.objects)


def kd_of_fan(fan: FanOfDiagrams) -> float:
    """Entropy distance of a fan: sum over objects of both top-to-foot
    entropy drops (each drop is nonnegative)."""
    total = 0.0
    for obj in fan.shape.objects:
        hz = fan.top.spaces[obj].entropy
        total += abs(hz - fan.left.spaces[obj].entropy)
        total += abs(hz - fan.right.spaces[obj].entropy)
    return total


@dataclass(frozen=True)
class CouplingWitness:
    fan: FanOfDiagrams
    kd_value: float
    exact: bool = False
    method: str = ""


# -- exact minimum-entropy coupling for single spaces ------------------------


def _spanning_trees(m: int, n: int):
    """All spanning trees of the complete bipartite graph on m + n nodes,
    as tuples of (row, col) edges.  Count is m^(n-1) * n^(m-1)."""
    edges = [(r, c) for r in range(m) for c in range(n)]
    need = m + n - 1
    parent = list(range(m + n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[tuple[int, int]] = []

    def rec(pos: int):
        if len(chosen) == need:
            yield tuple(chosen)
            return
        if len(edges) - pos < need - len(chosen):
            return
        r, c = edges[pos]
        ra, rb = find(r), find(m + c)
        if ra != rb:
            saved = parent[:]
            parent[ra] = rb
            chosen.append((r, c))
            yield from rec(pos + 1)
            chosen.pop()
            parent[:] = saved
        yield from rec(pos + 1)

    yield from rec(0)


def _solve_tree(tree, rows: list[int], cols: list[int]):
    """Integer flows on a spanning tree matching the scaled marginals, or
    None when some flow goes negative.  Leaf-stripping, exact."""
    m, n = len(rows), len(cols)
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {v: [] for v in range(m + n)}
    for (r, c) in tree:
        adj[r].append((m + c, (r, c)))
        adj[m + c].append((r, (r, c)))
    balance = rows + cols
    degree = {v: len(adj[v]) for v in adj}
    removed: set[tuple[int, int]] = set()
    flows: dict[tuple[int, int], int] = {}
    stack = [v for v in adj if degree[v] == 1]
    while stack:
        leaf = stack.pop()
        edge = None
        for other, e in adj[leaf]:
            if e not in removed:
                edge = (other, e)
                break
        if edge is None:
            continue
        other, e = edge
        flow = balance[leaf]
        if flow < 0:
            return None
        flows[e] = flow
        balance[leaf] = 0
        balance[other] -= flow
        removed.add(e)
        degree[leaf] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            stack.append(other)
    if any(balance):
        return None
    return flows


def _coupling_vertices(x: ProbSpace, y: ProbSpace):
    """Distinct vertices of the transportation polytope of (x, y), as
    positive integer flows {(row, col): mass} over lcm(x.denom, y.denom).

    Entropy is concave, so the minimum of the fan distance is attained at a
    vertex; vertices are exactly the feasible spanning-tree solutions, and
    degenerate ones are deduplicated by their positive support.
    """
    denom = math.lcm(x.denom, y.denom)
    rows = [m * (denom // x.denom) for m in x.masses]
    cols = [m * (denom // y.denom) for m in y.masses]
    seen: set[frozenset] = set()
    for tree in _spanning_trees(len(rows), len(cols)):
        flows = _solve_tree(tree, list(rows), list(cols))
        if flows is None:
            continue
        support = frozenset(e for e, f in flows.items() if f > 0)
        if support in seen:
            continue
        seen.add(support)
        yield {e: f for e, f in flows.items() if f > 0}


def _coupling_space(x: ProbSpace, y: ProbSpace, cells: Mapping, denom: int) -> ProbSpace:
    atoms = [(x.atoms[r], y.atoms[c]) for (r, c) in cells]
    return ProbSpace(atoms, cells.values(), denom=denom)


def _greedy_coupling(x: ProbSpace, y: ProbSpace) -> ProbSpace:
    """Largest-mass-first matching; a cheap upper-bound coupling."""
    rem_x = {a: w for a, w in x.items()}
    rem_y = {b: w for b, w in y.items()}
    cells = {}
    while rem_x:
        a = max(rem_x, key=lambda k: (rem_x[k], str(k)))
        b = max(rem_y, key=lambda k: (rem_y[k], str(k)))
        move = min(rem_x[a], rem_y[b])
        cells[(a, b)] = cells.get((a, b), Fraction(0)) + move
        rem_x[a] -= move
        rem_y[b] -= move
        if rem_x[a] == 0:
            del rem_x[a]
        if rem_y[b] == 0:
            del rem_y[b]
    return ProbSpace(list(cells), list(cells.values()))


def single_space_diagram(space: ProbSpace, obj: str = "1") -> Diagram:
    cat = IndexingCategory([obj], [])
    return Diagram(cat, {obj: space}, {}, validate=False)


def min_entropy_coupling(x: ProbSpace, y: ProbSpace, *,
                         cap: int = DEFAULT_COUPLING_CAP,
                         require_exact: bool = False) -> CouplingWitness:
    """Minimum-entropy coupling of two single spaces.

    Exact below the cap (|x| * |y| cells) by enumerating the vertices of the
    transportation polytope; beyond the cap a greedy coupling is returned
    with exact=False, unless exactness is required.
    """
    left = single_space_diagram(x)
    right = single_space_diagram(y)
    if len(x) * len(y) > cap:
        if require_exact:
            raise CapExceededError(
                f"{len(x)}x{len(y)} coupling exceeds the exact-mode cap {cap}")
        coupling = _greedy_coupling(x, y)
        fan = coupling_fan(left, right, coupling)
        return CouplingWitness(fan, kd_of_fan(fan), exact=False, method="greedy")
    best_cells = None
    best_value = None
    base = x.entropy + y.entropy
    denom = math.lcm(x.denom, y.denom)
    for cells in _coupling_vertices(x, y):
        value = 2.0 * entropy_of_masses(cells.values(), denom) - base
        if best_value is None or value < best_value:
            best_value = value
            best_cells = cells
    assert best_cells is not None
    coupling = _coupling_space(x, y, best_cells, denom)
    fan = coupling_fan(left, right, coupling)
    return CouplingWitness(fan, kd_of_fan(fan), exact=True, method="vertex-enumeration")


# -- distributions on set diagrams -------------------------------------------


class SetDiagram:
    """The sets-and-surjections skeleton underlying a diagram."""

    __slots__ = ("category", "sets", "maps")

    def __init__(self, category: IndexingCategory, sets: Mapping[str, tuple],
                 maps: Mapping[tuple[str, str], Mapping]):
        self.category = category
        self.sets = {o: tuple(sets[o]) for o in category.objects}
        self.maps = {c: dict(maps[c]) for c in category.covers}

    @classmethod
    def from_diagram(cls, diagram: Diagram) -> "SetDiagram":
        return cls(diagram.category,
                   {o: s.atoms for o, s in diagram.spaces.items()},
                   {c: r.mapping for c, r in diagram.prime_maps.items()})

    @property
    def initial(self) -> str:
        return self.category.initial

    def initial_set(self) -> tuple:
        return self.sets[self.category.initial]

    def composite(self, src: str, dst: str) -> dict:
        mapping = {a: a for a in self.sets[src]}
        cur = src
        while cur != dst:
            step = next((i, j) for (i, j) in self.category.covers
                        if i == cur and self.category.reaches(j, dst))
            nxt = self.maps[step]
            mapping = {a: nxt[b] for a, b in mapping.items()}
            cur = step[1]
        return mapping

    def __eq__(self, other):
        if not isinstance(other, SetDiagram):
            return NotImplemented
        return (self.category == other.category
                and {o: set(s) for o, s in self.sets.items()}
                == {o: set(s) for o, s in other.sets.items()}
                and self.maps == other.maps)

    def __hash__(self):
        return hash(self.category)


class DistributionOnSetDiagram:
    """A distribution on the initial set; pushforwards determine the rest."""

    __slots__ = ("set_diagram", "pi0")

    def __init__(self, set_diagram: SetDiagram, pi0: Mapping):
        pi0 = {a: as_fraction(w) for a, w in pi0.items()}
        unknown = [a for a in pi0 if a not in set(set_diagram.initial_set())]
        if unknown:
            raise MapError(f"distribution names atoms outside the initial set: {unknown!r}")
        if sum(pi0.values(), Fraction(0)) != 1:
            raise MapError("initial distribution must sum to 1")
        self.set_diagram = set_diagram
        self.pi0 = pi0

    def marginal(self, obj: str) -> dict:
        comp = self.set_diagram.composite(self.set_diagram.initial, obj)
        out: dict = {}
        for a, w in self.pi0.items():
            out[comp[a]] = out.get(comp[a], Fraction(0)) + w
        return out

    def to_diagram(self) -> Diagram:
        """The probability diagram (sets, pi); zero-weight atoms drop out."""
        sd = self.set_diagram
        init_atoms = [a for a in sd.initial_set() if self.pi0.get(a, 0) > 0]
        measure = ProbSpace(init_atoms, [self.pi0[a] for a in init_atoms])
        spaces = {}
        for obj in sd.category.objects:
            comp = sd.composite(sd.initial, obj)
            spaces[obj] = pushforward(measure, comp)
        maps = {}
        for (i, j) in sd.category.covers:
            restricted = {a: sd.maps[(i, j)][a] for a in spaces[i].atoms}
            maps[(i, j)] = Reduction(spaces[i], spaces[j], restricted)
        return Diagram(sd.category, spaces, maps, validate=False)


# -- local decomposition and the local estimate -------------------------------


@dataclass(frozen=True)
class LocalDecomposition:
    """pi = (1-alpha) common + alpha rest_left, same for the primed side.

    alpha is half the total variation distance; for alpha = 1 the common
    part is absent (None) and callers fall back to the rough bound.
    """

    alpha: Fraction
    common: dict | None
    rest_left: dict
    rest_right: dict


def local_decomposition(pi: Mapping, pi_prime: Mapping) -> LocalDecomposition:
    pi = {a: as_fraction(w) for a, w in pi.items()}
    pi_prime = {a: as_fraction(w) for a, w in pi_prime.items()}
    atoms = list(pi)
    atoms += [a for a in pi_prime if a not in pi]
    zero = Fraction(0)
    alpha = sum((abs(pi.get(a, zero) - pi_prime.get(a, zero)) for a in atoms), zero) / 2
    if alpha == 1:
        return LocalDecomposition(alpha, None, dict(pi), dict(pi_prime))
    if alpha == 0:
        return LocalDecomposition(alpha, dict(pi), dict(pi), dict(pi))
    common = {a: min(pi.get(a, zero), pi_prime.get(a, zero)) / (1 - alpha) for a in atoms}
    rest_left = {a: (pi.get(a, zero) - (1 - alpha) * common[a]) / alpha for a in atoms}
    rest_right = {a: (pi_prime.get(a, zero) - (1 - alpha) * common[a]) / alpha for a in atoms}
    return LocalDecomposition(alpha, common, rest_left, rest_right)


def local_estimate_bound(size: int, initial_cardinality: int, alpha) -> float:
    """2 * size * (alpha * ln|S0| + H(two-point space of weight alpha))."""
    alpha = as_fraction(alpha)
    return 2.0 * size * (float(alpha) * math.log(initial_cardinality)
                         + lambda_space(alpha).entropy)


@dataclass(frozen=True)
class LocalEstimate:
    witness: CouplingWitness
    alpha: Fraction
    bound: float
    lambda_fans: tuple[FanOfDiagrams, FanOfDiagrams] | None
    slice_isos_ok: bool


def _marked_diagram(sd: SetDiagram, alpha: Fraction, common: Mapping,
                    rest: Mapping) -> Diagram:
    """Diagram on S_i x {light, heavy} weighted (1-a) common / a rest."""
    weights0 = {}
    for a in sd.initial_set():
        wl = (1 - alpha) * common.get(a, Fraction(0))
        wh = alpha * rest.get(a, Fraction(0))
        if wl > 0:
            weights0[(a, LAMBDA_LIGHT)] = wl
        if wh > 0:
            weights0[(a, LAMBDA_HEAVY)] = wh
    init_atoms = list(weights0)
    measure = ProbSpace(init_atoms, [weights0[a] for a in init_atoms])
    spaces = {}
    for obj in sd.category.objects:
        comp = sd.composite(sd.initial, obj)
        spaces[obj] = pushforward(measure, {(a, m): (comp[a], m) for (a, m) in init_atoms})
    maps = {}
    for (i, j) in sd.category.covers:
        base = sd.maps[(i, j)]
        mapping = {(a, m): (base[a], m) for (a, m) in spaces[i].atoms}
        maps[(i, j)] = Reduction(spaces[i], spaces[j], mapping)
    return Diagram(sd.category, spaces, maps, validate=False)


def _fan_onto_marks(marked: Diagram, base: Diagram, alpha: Fraction,
                    mark_left: bool) -> FanOfDiagrams:
    lam = constant_diagram(marked.category, lambda_space(alpha))
    proj_base = {o: Reduction(marked.spaces[o], base.spaces[o],
                              {(a, m): a for (a, m) in marked.spaces[o].atoms})
                 for o in marked.category.objects}
    proj_mark = {o: Reduction(marked.spaces[o], lam.spaces[o],
                              {(a, m): m for (a, m) in marked.spaces[o].atoms})
                 for o in marked.category.objects}
    if mark_left:
        return FanOfDiagrams(marked, lam, base, proj_mark, proj_base, validate=False)
    return FanOfDiagrams(marked, base, lam, proj_base, proj_mark, validate=False)


def _condition_on_mark(marked: Diagram, mark) -> Diagram:
    """Condition the marked diagram on its mark coordinate (a fan foot)."""
    init = marked.initial_space
    fiber = [(a, m) for (a, m) in init.atoms if m == mark]
    mass = sum((init.weight(x) for x in fiber), Fraction(0))
    measure = ProbSpace(fiber, [init.weight(x) / mass for x in fiber])
    spaces = {}
    comp = {o: marked.composite_mapping(marked.initial, o) for o in marked.category.objects}
    for obj in marked.category.objects:
        spaces[obj] = pushforward(measure, comp[obj])
    maps = {}
    for (i, j) in marked.category.covers:
        restricted = {a: marked.prime_maps[(i, j)].mapping[a] for a in spaces[i].atoms}
        maps[(i, j)] = Reduction(spaces[i], spaces[j], restricted)
    return Diagram(marked.category, spaces, maps, validate=False)


def _strip_marks_iso(conditioned: Diagram, reference: Diagram) -> bool:
    """Exact check that dropping the mark identifies the conditioned slice
    with the reference diagram."""
    for obj in conditioned.category.objects:
        got = {a: w for (a, m), w in conditioned.spaces[obj].items()}
        want = dict(reference.spaces[obj].items())
        if got != want:
            return False
    return True


def local_estimate_witness(sd: SetDiagram, pi0: Mapping, pi0_prime: Mapping) -> LocalEstimate:
    """Witness coupling and certified bound for two distributions on one
    set diagram.

    The witness draws both coordinates equal from the common part with
    probability 1 - alpha, and independently from the two rest parts with
    probability alpha.  Its fan distance never exceeds
    2 * size * (alpha ln|S0| + H(Lambda_alpha)); with disjoint supports the
    tensor coupling and the rough bound 2 * size * ln|S0| are used instead.
    The two marked fans over the Lambda foot are built as well and their
    conditioned slices are checked exactly against the decomposition parts.
    """
    dist = DistributionOnSetDiagram(sd, pi0)
    dist_prime = DistributionOnSetDiagram(sd, pi0_prime)
    left = dist.to_diagram()
    right = dist_prime.to_diagram()
    size = sd.category.size
    s0 = len(sd.initial_set())
    dec = local_decomposition(dist.pi0, dist_prime.pi0)
    alpha = dec.alpha

    if alpha == 1:
        fan = tensor_fan(left, right)
        bound = 2.0 * size * math.log(s0)
        return LocalEstimate(CouplingWitness(fan, kd_of_fan(fan), method="tensor"),
                             alpha, bound, None, True)

    zero = Fraction(0)
    cells: dict = {}
    for a, w in dec.common.items():
        if w > 0:
            cells[(a, a)] = cells.get((a, a), zero) + (1 - alpha) * w
    if alpha > 0:
        for a, wa in dec.rest_left.items():
            if wa == 0:
                continue
            for b, wb in dec.rest_right.items():
                if wb == 0:
                    continue
                cells[(a, b)] = cells.get((a, b), zero) + alpha * wa * wb
    coupling = ProbSpace(list(cells), list(cells.values()))
    fan = coupling_fan(left, right, coupling)
    witness = CouplingWitness(fan, kd_of_fan(fan), method="common-rest mixture")
    bound = local_estimate_bound(size, s0, alpha)

    marked_left = _marked_diagram(sd, alpha, dec.common, dec.rest_left)
    marked_right = _marked_diagram(sd, alpha, dec.common, dec.rest_right)
    fan_left = _fan_onto_marks(marked_left, left, alpha, mark_left=False)
    fan_right = _fan_onto_marks(marked_right, right, alpha, mark_left=True)

    common_diagram = DistributionOnSetDiagram(sd, dec.common).to_diagram()
    slice_ok = True
    for marked, rest in ((marked_left, dec.rest_left), (marked_right, dec.rest_right)):
        slice_ok &= _strip_marks_iso(_condition_on_mark(marked, LAMBDA_LIGHT), common_diagram)
        if alpha > 0:
            rest_diagram = DistributionOnSetDiagram(sd, rest).to_diagram()
            slice_ok &= _strip_marks_iso(_condition_on_mark(marked, LAMBDA_HEAVY), rest_diagram)
    return LocalEstimate(witness, alpha, bound, (fan_left, fan_right), slice_ok)


# -- certified two-sided bounds ----------------------------------------------


@dataclass(frozen=True)
class IkdBounds:
    lower: float
    upper: float
    witness: CouplingWitness


def ikd_bounds(left: Diagram, right: Diagram, *,
               coupling_cap: int = DEFAULT_COUPLING_CAP) -> IkdBounds:
    """Certified bounds on the intrinsic entropy distance.

    Lower bound: the entropy-vector gap.  Upper bound: the best constructed
    coupling among the diagonal (equal diagrams), the exact single-space
    optimum (below the cap), the shared-skeleton local witness, and the
    tensor coupling.
    """
    if left.category != right.category:
        raise ShapeMismatchError("distance bounds need diagrams of the same shape")
    lower = entropy_gap(left, right)
    candidates: list[CouplingWitness] = []
    if left == right:
        fan = diagonal_fan(left)
        candidates.append(CouplingWitness(fan, 0.0, exact=True, method="diagonal"))
    if left.category.size == 1:
        obj = left.category.objects[0]
        x, y = left.spaces[obj], right.spaces[obj]
        if len(x) * len(y) <= coupling_cap:
            candidates.append(min_entropy_coupling(x, y, cap=coupling_cap))
    sd_left = SetDiagram.from_diagram(left)
    if sd_left == SetDiagram.from_diagram(right):
        pi0 = dict(left.initial_space.items())
        pi0_prime = dict(right.initial_space.items())
        candidates.append(local_estimate_witness(sd_left, pi0, pi0_prime).witness)
    independent = tensor_fan(left, right)
    candidates.append(CouplingWitness(independent, kd_of_fan(independent), method="tensor"))
    best = min(candidates, key=lambda w: w.kd_value)
    return IkdBounds(lower, best.kd_value, best)


def slicing_rhs(fan_x: FanOfDiagrams, fan_y: FanOfDiagrams,
                per_u_upper: Mapping) -> float:
    """Right-hand side of the slicing bound: the average of the conditioned
    upper bounds plus 2 * size * H(U).

    fan_x couples a diagram with the constant diagram on U (right foot);
    fan_y couples U (left foot) with the other diagram.  Both constant feet
    must carry the same space.
    """
    u_x = fan_x.right.spaces[fan_x.shape.initial]
    u_y = fan_y.left.spaces[fan_y.shape.initial]
    if u_x != u_y:
        raise SliceMismatchError("the two fans condition on different spaces")
    for diagram, label in ((fan_x.right, "right"), (fan_y.left, "left")):
        for obj in diagram.category.objects:
            if diagram.spaces[obj] != u_x:
                raise SliceMismatchError(f"{label} foot is not a constant diagram")
    size = fan_x.shape.size
    total = 0.0
    for u, w in u_x.items():
        if u not in per_u_upper:
            raise SliceMismatchError(f"no conditioned bound supplied for atom {u!r}")
        total += float(w) * float(per_u_upper[u])
    return total + 2.0 * size * u_x.entropy


def random_coupling(x: ProbSpace, y: ProbSpace, rng) -> ProbSpace:
    """A feasible coupling built by routing mass through cells in a random
    order; exact rational, used for randomized dominance tests."""
    rem_x = {a: w for a, w in x.items()}
    rem_y = {b: w for b, w in y.items()}
    cells: dict = {}
    while rem_x:
        a = rng.choice(sorted(rem_x, key=str))
        b = rng.choice(sorted(rem_y, key=str))
        move = min(rem_x[a], rem_y[b])
        cells[(a, b)] = cells.get((a, b), Fraction(0)) + move
        rem_x[a] -= move
        rem_y[b] -= move
        if rem_x[a] == 0:
            del rem_x[a]
        if rem_y[b] == 0:
            del rem_y[b]
    return ProbSpace(list(cells), list(cells.values()))
