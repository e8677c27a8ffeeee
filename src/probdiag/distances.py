"""Entropy distances between diagrams: fan distance, certified bounds on the
intrinsic distance, exact minimum-entropy coupling for single spaces, and the
local total-variation estimate with an explicit witness coupling.

Measures are integer masses over one denominator throughout; `Fraction`
appears only at input and in views.  The exact coupling is a branch-and-bound
search over the vertices of the transportation polytope by leaf elimination,
bounded by the entropy of the majorization meet of the residual marginals.

Exact intrinsic distance for multi-object diagrams is not computed; the
functions here return certified lower/upper bounds with witnesses, which is
all the downstream contraction analysis needs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .categories import IndexingCategory
from .diagrams import (
    Diagram,
    FanOfDiagrams,
    constant_diagram,
    diagonal_fan,
    tensor_fan,
    _pair_fan,
    _restricted,
)
from .errors import (
    CapExceededError,
    DuplicateAtomError,
    MapError,
    ShapeMismatchError,
    SliceMismatchError,
    WeightSumError,
)
from .spaces import (
    LAMBDA_HEAVY,
    LAMBDA_LIGHT,
    ProbSpace,
    as_fraction,
    entropy_of_masses,
    lambda_space,
    _overlap,
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


# A branch is pruned only when its bound exceeds the incumbent by more than
# this many nats, so float rounding in the bound never cuts off a vertex that
# ties the optimum.
_PRUNE_SLACK = 1e-12


def _meet_slog(a: list[int], b: list[int]) -> float:
    """Sum of g log g over the majorization meet of two nonnegative integer
    vectors with equal sums.

    The meet is the vector whose prefix sums are min(A_k, B_k), with A and B
    the prefix sums of the vectors sorted in decreasing order (Cicalese,
    Gargano, Vaccaro, Minimum-entropy couplings and their applications,
    IEEE Trans. Inf. Theory 2019).  Every coupling of the two is majorized by
    it, so no coupling has a larger sum of g log g: that makes the sum an
    entropy lower bound for the coupling that completes a partial one.
    """
    a = sorted(a, reverse=True)
    b = sorted(b, reverse=True)
    total = 0.0
    sum_a = sum_b = previous = 0
    for k in range(max(len(a), len(b))):
        if k < len(a):
            sum_a += a[k]
        if k < len(b):
            sum_b += b[k]
        current = min(sum_a, sum_b)
        if current - previous > 1:
            total += (current - previous) * math.log(current - previous)
        previous = current
    return total


def _vertex_value(masses, denom: int, x: ProbSpace, y: ProbSpace) -> float:
    """Fan distance 2 H(coupling) - H(x) - H(y) of a coupling given by its
    integer masses over denom.  The masses are summed in sorted order, so
    the value depends only on their multiset, not on the search order."""
    return 2.0 * entropy_of_masses(sorted(masses), denom) - x.entropy - y.entropy


def _coupling_vertices(x: ProbSpace, y: ProbSpace, *, prune: bool = False):
    """Distinct vertices of the transportation polytope of (x, y), as
    positive integer flows {(row, col): mass} over lcm(x.denom, y.denom).

    Entropy is concave, so the minimum of the fan distance is attained at a
    vertex.  A vertex is a feasible flow whose support is a forest, found by
    leaf elimination.  Rows are the lines of the shorter space, columns the
    other's.  Each column in turn, largest first, is either a leaf, sent
    whole to one row that can still absorb it, or deferred.  A forest on m
    rows has at most m - 1 columns of degree two or more, so fewer columns
    than live rows are deferred.  The deferred columns are then finished
    the same way with the roles swapped: each live row is sent whole to one
    deferred column or deferred itself, and so on until nothing is
    deferred.  A deferred line must get at least two cells after its
    deferral, or the path is dropped: the same vertex is reached with that
    line as a leaf.  So each vertex is yielded exactly once.

    With prune=True (used by `min_entropy_coupling`) the search keeps the
    best value seen, starting from the greedy coupling's, and yields only
    the vertices it reaches.  It drops a branch when the entropy of its
    cells plus that of the meet of the residual marginals (`_meet_slog`)
    puts it more than `_PRUNE_SLACK` above the best, and when a residual
    problem equal to one already searched without result cannot beat the
    best either.  Two kinds of branch are mirror images of kept ones with
    the same masses and a support that sorts later, and are skipped:
    sending a line to any but the first of several lines with equal
    residuals and cells owed, while every line of the pass with a smaller
    index is already a leaf; and sending a leaf to a line below the one that
    the previous leaf of equal residual in the pass went to.  So every
    vertex of minimal value with the smallest sorted support is reached.
    """
    denom = math.lcm(x.denom, y.denom)
    rows = [m * (denom // x.denom) for m in x.masses]
    cols = [m * (denom // y.denom) for m in y.masses]
    swap = len(rows) > len(cols)
    if swap:
        rows, cols = cols, rows
    m = len(rows)
    res = rows + cols            # residual mass per line: rows 0..m-1, then columns
    deg = [0] * len(res)         # cells on each line so far
    since = [None] * len(res)    # deg of a line when it was last deferred
    cells: list[tuple[int, int, int]] = []
    if prune:
        best = _vertex_value(_greedy_coupling(x, y, denom).values(), denom, x, y)
        log_denom = math.log(denom)
        # residual problem -> bound on the sum of f log f of its completions,
        # stored once its search found nothing within the slack of the best
        searched: dict[tuple, float] = {}
        yielded = 0

    def owed(line: int) -> int:
        """Cells a deferred line still needs."""
        return 0 if since[line] is None else max(0, 2 + since[line] - deg[line])

    def value_of(slog: float) -> float:
        """Fan distance of a coupling whose masses have sum of f log f slog."""
        return 2.0 * (log_denom - slog / denom) - x.entropy - y.entropy

    def slog_of(value: float) -> float:
        """The inverse of value_of."""
        return denom * (log_denom - (value + x.entropy + y.entropy) / 2)

    def residual_problem() -> tuple:
        """(mass, cells owed) of the live lines, as multisets of both sides:
        the completions of two paths with equal residual problems have the
        same values."""
        sides = (tuple(sorted((res[i], owed(i)) for i in span if res[i]))
                 for span in (range(m), range(m, len(res))))
        return tuple(sorted(sides))

    def start(lines, others):
        """A pass over `lines`, largest first, with `others` in index order.
        `mirror` marks the positions whose line comes after every line of
        the pass with a smaller index; `twin` those whose line has the same
        residual as the one before it."""
        lines = sorted(lines, key=lambda line: (-res[line], line))
        mirror = [all(k in lines[:p] for k in lines if k < line) for p, line in enumerate(lines)]
        twin = [p > 0 and res[line] == res[lines[p - 1]] for p, line in enumerate(lines)]
        return lines, sorted(others), mirror, twin

    def search(level, pos, deferred, live, slog, floor=-1):
        # slog: sum of f log f over the cells committed on this path; floor:
        # the least line the current one may be sent to.  A residual problem
        # is remembered only where no floor applies: the floor cuts paths
        # whose mirror images lie outside this subtree.
        nonlocal yielded
        if not prune:
            yield from branch(level, pos, deferred, live, slog, floor)
            return
        meet = _meet_slog([r for r in res[:m] if r], [c for c in res[m:] if c])
        if value_of(slog + meet) > best + _PRUNE_SLACK:
            return
        key = residual_problem()
        known = searched.get(key)
        if known is not None and value_of(slog + known) >= best + _PRUNE_SLACK:
            return
        before = yielded
        yield from branch(level, pos, deferred, live, slog, floor)
        if yielded == before and floor < 0:
            searched[key] = slog_of(best + _PRUNE_SLACK) - slog

    def branch(level, pos, deferred, live, slog, floor):
        nonlocal best, yielded
        lines, others, mirror, twin = level
        if pos == len(lines):
            if deferred:
                yield from search(start([o for o in others if res[o]], deferred), 0, [],
                                  len(deferred), slog)
                return
            flows = {}
            for a, b, flow in cells:
                flows[(b - m, a) if swap else (a, b - m)] = flow
            if prune:
                best = min(best, _vertex_value(flows.values(), denom, x, y))
                yielded += 1
            yield flows
            return
        line = lines[pos]
        need = res[line]
        skip_mirrors = prune and mirror[pos] and all(d > line for d in deferred)
        follows = prune and pos + 1 < len(lines) and twin[pos + 1]
        tried = set()
        for other in others:
            have = res[other]
            if have < need or other < floor:
                continue
            if skip_mirrors:
                if (have, owed(other)) in tried:
                    continue
                tried.add((have, owed(other)))
            res[line], res[other] = 0, have - need
            deg[line] += 1
            deg[other] += 1
            left = live - (have == need)
            if (owed(line) == 0 and (have > need or owed(other) == 0)
                    and (not deferred or len(deferred) < left)):
                cells.append((min(line, other), max(line, other), need))
                yield from search(level, pos + 1, deferred, left,
                                  slog + need * math.log(need), other if follows else -1)
                cells.pop()
            res[line], res[other] = need, have
            deg[line] -= 1
            deg[other] -= 1
        if len(deferred) + 1 < live:
            saved = since[line]
            since[line] = deg[line]
            yield from search(level, pos + 1, deferred + [line], live, slog,
                              floor if follows else -1)
            since[line] = saved

    yield from search(start(range(m, len(res)), range(m)), 0, [], m, 0.0)


def _coupling_space(x: ProbSpace, y: ProbSpace, cells: Mapping, denom: int) -> ProbSpace:
    atoms = [(x.atoms[r], y.atoms[c]) for (r, c) in cells]
    return ProbSpace(atoms, cells.values(), denom=denom)


def _route(x: ProbSpace, y: ProbSpace, denom: int, pick) -> dict:
    """Route the masses of x and y over denom into cells until none is left:
    pick(residual, labels) names a live row, then a column (residual: index
    -> remaining mass, in atom order; labels: str of each atom), and the
    cell gets the smaller residual, so no cell repeats.  {(row, col): mass}
    in the order cells are used."""
    rem_x = {r: m * (denom // x.denom) for r, m in enumerate(x.masses)}
    rem_y = {c: m * (denom // y.denom) for c, m in enumerate(y.masses)}
    label_x = [str(a) for a in x.atoms]
    label_y = [str(b) for b in y.atoms]
    cells = {}
    while rem_x:
        r = pick(rem_x, label_x)
        c = pick(rem_y, label_y)
        move = min(rem_x[r], rem_y[c])
        cells[(r, c)] = move
        rem_x[r] -= move
        rem_y[c] -= move
        if rem_x[r] == 0:
            del rem_x[r]
        if rem_y[c] == 0:
            del rem_y[c]
    return cells


def _greedy_coupling(x: ProbSpace, y: ProbSpace, denom: int) -> dict:
    """Largest-mass-first matching, a cheap upper-bound coupling: saturate
    the cell of the largest residual row and column, ties broken by
    str(atom), until no mass is left."""
    return _route(x, y, denom, lambda rem, labels: max(rem, key=lambda k: (rem[k], labels[k])))


def random_coupling(x: ProbSpace, y: ProbSpace, rng) -> ProbSpace:
    """A feasible coupling built by routing mass through cells in a random
    order, for randomized dominance tests: each step draws a row, then a
    column, with rng.choice over the live atoms sorted by str."""
    denom = math.lcm(x.denom, y.denom)
    cells = _route(x, y, denom, lambda rem, labels: rng.choice(sorted(rem, key=labels.__getitem__)))
    return _coupling_space(x, y, cells, denom)


def single_space_diagram(space: ProbSpace, obj: str = "1") -> Diagram:
    return Diagram._trusted(IndexingCategory([obj], []), {obj: space}, {})


def min_entropy_coupling(x: ProbSpace, y: ProbSpace, *,
                         cap: int = DEFAULT_COUPLING_CAP,
                         require_exact: bool = False) -> CouplingWitness:
    """Minimum-entropy coupling of two single spaces.

    Exact up to the cap (|x| * |y| cells): the optimum is a vertex of the
    transportation polytope, found by the branch-and-bound leaf-elimination
    search of `_coupling_vertices`.  Among vertices of equal value the one
    with the smallest sorted (row, col) support is returned, so the answer
    does not depend on the search order.  Beyond the cap a greedy coupling
    is returned with exact=False, unless exactness is required.
    """
    left = single_space_diagram(x)
    right = single_space_diagram(y)
    denom = math.lcm(x.denom, y.denom)
    if len(x) * len(y) > cap:
        if require_exact:
            raise CapExceededError(
                f"{len(x)}x{len(y)} coupling exceeds the exact-mode cap {cap}")
        coupling = _coupling_space(x, y, _greedy_coupling(x, y, denom), denom)
        fan = _pair_fan(coupling, left, right)
        return CouplingWitness(fan, kd_of_fan(fan), exact=False, method="greedy")
    best = min(_coupling_vertices(x, y, prune=True),
               key=lambda cells: (_vertex_value(cells.values(), denom, x, y), sorted(cells)))
    coupling = _coupling_space(x, y, dict(sorted(best.items())), denom)
    fan = _pair_fan(coupling, left, right)
    return CouplingWitness(fan, kd_of_fan(fan), exact=True, method="vertex-enumeration")


# -- distributions on set diagrams -------------------------------------------


class SetDiagram:
    """The sets-and-surjections skeleton underlying a diagram.

    Composites are read off the lifts from the initial set by the same
    cached code as `Diagram.composite_mapping`.  Distributions are pushed
    through the lifts, so construction checks that each cover map sends its
    source set onto its target set and, by the same code as a diagram's,
    that every path agrees.  Cover maps are stored keyed in their source
    set's order, as a diagram's prime maps are."""

    __slots__ = ("category", "sets", "maps", "_composites", "_lifts")

    def __init__(self, category: IndexingCategory, sets: Mapping[str, tuple],
                 maps: Mapping[tuple[str, str], Mapping]):
        self.category = category
        self.sets = {o: tuple(sets[o]) for o in category.objects}
        for o, atoms in self.sets.items():
            if len(set(atoms)) < len(atoms):
                raise DuplicateAtomError(f"the set at {o!r} lists an atom twice")
        self.maps = {}
        for (i, j) in category.covers:
            mapping = maps[(i, j)]
            if set(mapping) != set(self.sets[i]) or set(mapping.values()) != set(self.sets[j]):
                raise MapError(f"map on cover {(i, j)!r} is not onto the set at {j!r} "
                               f"from the set at {i!r}")
            self.maps[(i, j)] = {a: mapping[a] for a in self.sets[i]}
        self._composites: dict = {}
        self._lifts: dict = {}
        self._check_commutativity()

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

    composite_mapping = Diagram.composite_mapping
    _lift = Diagram._lift
    _composite_positions = Diagram._composite_positions
    _check_commutativity = Diagram._check_commutativity

    def _cover_mapping(self, cover: tuple[str, str]) -> dict | None:
        return self.maps.get(cover)

    def _cover_array(self, cover: tuple[str, str]) -> np.ndarray:
        index = dict(zip(self.sets[cover[1]], itertools.count()))
        return np.fromiter(map(index.__getitem__, self.maps[cover].values()), dtype=np.int64,
                           count=len(self.sets[cover[0]]))

    def _atoms(self, obj: str) -> tuple:
        return self.sets[obj]

    def _size(self, obj: str) -> int:
        return len(self.sets[obj])

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
    """A distribution on the initial set, checked into `measure` (a space in
    the initial set's order); pushforwards determine the rest."""

    __slots__ = ("set_diagram", "measure")

    def __init__(self, set_diagram: SetDiagram, pi0: Mapping):
        initial = set_diagram.initial_set()
        known = set(initial)
        unknown = [a for a in pi0 if a not in known]
        if unknown:
            raise MapError(f"distribution names atoms outside the initial set: {unknown!r}")
        self.set_diagram = set_diagram
        try:
            self.measure = ProbSpace(initial, [pi0.get(a, 0) for a in initial])
        except WeightSumError:
            raise MapError("initial distribution must sum to 1") from None

    def marginal(self, obj: str) -> dict:
        return dict(self.to_diagram().spaces[obj].items())

    def to_diagram(self) -> Diagram:
        """The probability diagram (sets, pi); zero-weight atoms drop out."""
        index = dict(zip(self.set_diagram.initial_set(), itertools.count()))
        return _restricted(self.set_diagram, list(map(index.__getitem__, self.measure.atoms)),
                           self.measure.masses)


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
    """Fraction views of the integer overlap of two distributions, each part
    its masses over their sum, keyed by every atom either names.  For
    alpha = 0 all three parts are pi; for alpha = 1 the rests are pi and
    pi_prime, each keyed by its own atoms."""
    overlap = _overlap(pi, pi_prime)
    rest, denom = overlap.rest, overlap.denom

    def view(masses: list, total: int, keys) -> dict:
        table = dict(zip(overlap.atoms, masses))
        return {a: Fraction(table.get(a, 0), total) for a in keys}

    alpha = Fraction(rest, denom)
    if rest == denom:
        return LocalDecomposition(alpha, None, view(overlap.rest_left, denom, pi),
                                  view(overlap.rest_right, denom, pi_prime))
    if rest == 0:
        return LocalDecomposition(alpha, *(view(overlap.common, denom, pi) for _ in range(3)))
    atoms = list(pi) + [a for a in pi_prime if a not in pi]
    return LocalDecomposition(alpha, view(overlap.common, denom - rest, atoms),
                              view(overlap.rest_left, rest, atoms),
                              view(overlap.rest_right, rest, atoms))


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


def _mixture_witness(left: Diagram, right: Diagram) -> CouplingWitness:
    """The coupling of two diagrams on one skeleton with overlapping initial
    measures that draws both coordinates equal from the common part with
    probability 1 - alpha, else each from its rest: over R D, with
    R = alpha D, common_a R on (a, a) and rest_left_a rest_right_b on (a, b)."""
    overlap = _overlap(left.initial_space, right.initial_space)
    scale = overlap.rest or 1  # with no rest, the common part over D
    cells = {(a, a): c * scale for a, c in zip(overlap.atoms, overlap.common) if c}
    rights = [(b, mb) for b, mb in zip(overlap.atoms, overlap.rest_right) if mb]
    cells.update(((a, b), ma * mb) for a, ma in zip(overlap.atoms, overlap.rest_left) if ma
                 for b, mb in rights)
    coupling = ProbSpace(cells, cells.values(), denom=overlap.denom * scale)
    fan = _pair_fan(coupling, left, right)
    return CouplingWitness(fan, kd_of_fan(fan), method="common-rest mixture")


def _marked_fan(base: Diagram, overlap, rest: list, *, mark_left: bool) -> FanOfDiagrams:
    """The fan of base against Lambda_alpha whose top lives on pairs
    (atom, mark), over the overlap's denominator: the common mass on the
    light mark and the rest mass on the heavy one.  The Lambda foot is on
    the left when mark_left is set."""
    parts = dict(zip(overlap.atoms, zip(overlap.common, rest)))
    marked = {(a, mark): mass for a in base.initial_space.atoms
              for mark, mass in zip((LAMBDA_LIGHT, LAMBDA_HEAVY), parts[a]) if mass}
    measure = ProbSpace(marked, marked.values(), denom=overlap.denom)
    lam = ProbSpace([LAMBDA_LIGHT, LAMBDA_HEAVY], [overlap.denom - overlap.rest, overlap.rest],
                    denom=overlap.denom)
    return _pair_fan(measure, base, constant_diagram(base.category, lam),
                     first_on_left=not mark_left)


def _condition_on_mark(marked: Diagram, mark) -> Diagram:
    """Condition the marked diagram on its mark coordinate (a fan foot)."""
    init = marked.initial_space
    fiber = [z for z, (_, m) in enumerate(init.atoms) if m == mark]
    return _restricted(marked, fiber, list(map(init.masses.__getitem__, fiber)))


def _strip_marks_iso(conditioned: Diagram, reference: Diagram) -> bool:
    """Exact check that dropping the mark identifies the conditioned slice
    with the reference diagram: equal denominators and masses everywhere."""
    return all(ProbSpace([a for a, _ in s.atoms], s.masses, denom=s.denom) == reference.spaces[o]
               for o, s in conditioned.spaces.items())


def local_estimate_witness(sd: SetDiagram, pi0: Mapping, pi0_prime: Mapping) -> LocalEstimate:
    """Witness coupling and certified bound for two distributions on one
    set diagram.

    The witness is the common-rest mixture.  Its fan distance never exceeds
    2 * size * (alpha ln|S0| + H(Lambda_alpha)); with disjoint supports the
    tensor coupling and the rough bound 2 * size * ln|S0| are used instead.
    The two marked fans over the Lambda foot are built as well and their
    conditioned slices are checked exactly against the decomposition parts.
    """
    left = DistributionOnSetDiagram(sd, pi0).to_diagram()
    right = DistributionOnSetDiagram(sd, pi0_prime).to_diagram()
    size = sd.category.size
    s0 = len(sd.initial_set())
    overlap = _overlap(left.initial_space, right.initial_space)
    alpha = Fraction(overlap.rest, overlap.denom)
    bound = local_estimate_bound(size, s0, alpha)  # 2 * size * ln|S0| for alpha = 1
    if overlap.rest == overlap.denom:
        fan = tensor_fan(left, right)
        return LocalEstimate(CouplingWitness(fan, kd_of_fan(fan), method="tensor"),
                             alpha, bound, None, True)

    witness = _mixture_witness(left, right)
    fans = (_marked_fan(left, overlap, overlap.rest_left, mark_left=False),
            _marked_fan(right, overlap, overlap.rest_right, mark_left=True))
    index = dict(zip(sd.initial_set(), itertools.count()))
    positions = list(map(index.__getitem__, overlap.atoms))
    common = _restricted(sd, positions, overlap.common)
    slice_ok = True
    for fan, rest in zip(fans, (overlap.rest_left, overlap.rest_right)):
        slice_ok &= _strip_marks_iso(_condition_on_mark(fan.top, LAMBDA_LIGHT), common)
        if overlap.rest:
            slice_ok &= _strip_marks_iso(_condition_on_mark(fan.top, LAMBDA_HEAVY),
                                         _restricted(sd, positions, rest))
    return LocalEstimate(witness, alpha, bound, fans, slice_ok)


# -- certified two-sided bounds ----------------------------------------------


@dataclass(frozen=True)
class IkdBounds:
    lower: float
    upper: float
    witness: CouplingWitness


def ikd_bounds(left: Diagram, right: Diagram) -> IkdBounds:
    """Certified bounds on the intrinsic entropy distance.

    Lower bound: the entropy-vector gap.  Upper bound: the best constructed
    coupling among the diagonal (equal diagrams), the exact single-space
    optimum (below the cap), the common-rest mixture of two measures on one
    skeleton (the local estimate's witness), and the tensor coupling.
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
        if len(x) * len(y) <= DEFAULT_COUPLING_CAP:
            candidates.append(min_entropy_coupling(x, y))
    same_sets = all(set(left.spaces[o]) == set(right.spaces[o]) for o in left.category.objects)
    if same_sets and all(left.prime_maps[c]._same_map(right.prime_maps[c])
                         for c in left.category.covers):
        # one skeleton means equal supports, so the measures overlap
        candidates.append(_mixture_witness(left, right))
    independent = tensor_fan(left, right)
    candidates.append(CouplingWitness(independent, kd_of_fan(independent), method="tensor"))
    best = min(candidates, key=lambda w: w.kd_value)
    # The gap and the witness are rounded separately, so where they meet the
    # gap can come out an ulp above the witness.  The true distance lies
    # below every witnessed upper bound, so the smaller of the two is still
    # a lower bound.
    return IkdBounds(min(lower, best.kd_value), best.kd_value, best)


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

