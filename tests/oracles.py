"""Independent brute-force oracles.

These deliberately avoid the library's own algorithms: reachability by raw
closure, least common ancestors by ancestor-set intersection, the quotient
of a category by a merged pair by closing the renamed relation, composites
and commutativity by composing every path of covers atom by atom,
naturality square by square on every cover, transport
vertices by solving every candidate support with exact Gaussian
elimination, minimality by enumerating all partitions, automorphism counts
by checking every weight-class permutation, finite measures and the
measure-preserving check as plain atom -> Fraction dicts, the local
decomposition and the random coupling in Fraction arithmetic, the greedy
coupling as its own loop, Monte-Carlo tail statistics atom by atom over
dense sample x |x0| count arrays, categorical draws one at a time by
rejection on `getrandbits` and a scan of the cumulative masses, and a
contraction run atom by atom with Fraction total variation and the
conditioned x-side pushed forward, a sample's first draws by
`dict.fromkeys` and its first counts by a row-by-row loop over the sampled
fibers with a set of seen patterns, coordinate projections bit by bit,
joint sizes as sets of tuples of composite images, and
the translation between two conditioned fibers as one XOR dict per object
over both conditioned diagrams, built and checked through the public
constructors.

Five exceptions run library code: `recheck` runs the library's public
checks on what its unchecked internal builders produced,
`dict_lift_diagram` and the builders on it build a diagram of one initial
measure as the library once did, through `pushforward` and one atom dict
per lift, `materialized_fan` builds a contraction's conditioned fan on
them, through the coupling fan of every sampled pair,
`dict_strip_expansion` marginalizes W out of an expansion through
`pushforward` and the checked constructors, `slice_clause` compares an
expansion's conditioned x-sides slice by slice as the library once did,
through `conditioned_slices` and `dict_first_change`, and
`translation_iso_by_dicts` runs `verify_explicit_iso` on its dicts.

The atom-dict forms of the map readers that now run on positions are kept
as the library once ran them: `dict_first_change`, `dict_unnatural_at`,
`dict_joint_space`, `dict_conditioned_xprime` and
`dict_find_diagram_morphism` read the public atom-dict views (`mapping`
and `composite_mapping`) and store maps through `dict_reduction`."""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


def closure_pairs(objects, covers) -> set:
    """All reachability pairs (a, b), reflexive, by iterated composition."""
    pairs = {(a, a) for a in objects} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def ancestor_sets(objects, covers) -> dict:
    pairs = closure_pairs(objects, covers)
    return {o: {a for a in objects if (a, o) in pairs} for o in objects}


def brute_lca(objects, covers, i, j):
    """The common ancestor that every common ancestor reaches, or None."""
    pairs = closure_pairs(objects, covers)
    anc = ancestor_sets(objects, covers)
    common = anc[i] & anc[j]
    least = [c for c in common if all((a, c) in pairs for a in common)]
    return least[0] if len(least) == 1 else None


def brute_collapse(objects, covers, i, j):
    """The quotient of a poset category by merging i into j: the renamed
    relation closed again, and its covers, the pairs that no third object
    splits.  (objects, covers) as sets, or None when two objects of the
    quotient reach each other or have no least common ancestor."""
    rename = {o: (j if o == i else o) for o in objects}
    kept = [o for o in objects if o != i]
    pairs = closure_pairs(kept, {(rename[a], rename[b])
                                 for (a, b) in closure_pairs(objects, covers)})
    if any(a != b and (b, a) in pairs for (a, b) in pairs):
        return None
    for x in kept:
        for y in kept:
            common = {c for c in kept if (c, x) in pairs and (c, y) in pairs}
            if len([c for c in common if all((a, c) in pairs for a in common)]) != 1:
                return None
    cover_set = {(a, b) for (a, b) in pairs
                 if a != b and not any((a, c) in pairs and (c, b) in pairs
                                       for c in kept if c not in (a, b))}
    return set(kept), cover_set


def cover_paths(objects, covers) -> dict:
    """(src, dst) -> every path of covers from src to dst, as a tuple of
    objects, by depth-first enumeration; (src,) is the identity path."""
    children = {o: [j for (i, j) in covers if i == o] for o in objects}
    paths: dict = {}
    stack = [(o,) for o in objects]
    while stack:
        path = stack.pop()
        paths.setdefault((path[0], path[-1]), []).append(path)
        stack.extend(path + (j,) for j in children[path[-1]])
    return paths


def compose_path(atoms, path, cover_maps) -> dict:
    """Each atom pushed along a path of cover maps, one cover at a time."""
    out = {}
    for a in atoms:
        image = a
        for cover in zip(path, path[1:]):
            image = cover_maps[cover][image]
        out[a] = image
    return out


def path_composites(objects, covers, sets, cover_maps) -> dict:
    """(src, dst) -> {path: its composite on sets[src]} for every path of
    covers between every reachable pair."""
    return {pair: {path: compose_path(sets[pair[0]], path, cover_maps) for path in paths}
            for pair, paths in cover_paths(objects, covers).items()}


def all_paths_agree(composites: dict) -> bool:
    return all(len({tuple(sorted(m.items(), key=repr)) for m in by_path.values()}) == 1
               for by_path in composites.values())


def squares_commute(covers, source_sets, source_maps, target_maps, maps) -> bool:
    """Whether per-object atom maps commute with every cover: maps[j] after
    the source's cover map equals the target's cover map after maps[i]."""
    return all(maps[j][source_maps[(i, j)][a]] == target_maps[(i, j)][maps[i][a]]
               for (i, j) in covers for a in source_sets[i])


def solve_support(support, rows, cols):
    """Exact solve of the transportation equations on a fixed support.

    Returns cell values when the support admits a unique solution matching
    the marginals, None otherwise.  Gaussian elimination over Fractions on
    the (rows + cols) x cells incidence system."""
    cells = list(support)
    m, n = len(rows), len(cols)
    equations = []
    for r in range(m):
        coeffs = [Fraction(1) if cell[0] == r else Fraction(0) for cell in cells]
        equations.append((coeffs, Fraction(rows[r])))
    for c in range(n):
        coeffs = [Fraction(1) if cell[1] == c else Fraction(0) for cell in cells]
        equations.append((coeffs, Fraction(cols[c])))

    k = len(cells)
    pivots = []
    row_idx = 0
    matrix = [list(co) + [rhs] for co, rhs in equations]
    for col in range(k):
        pivot = next((r for r in range(row_idx, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            return None  # underdetermined support
        matrix[row_idx], matrix[pivot] = matrix[pivot], matrix[row_idx]
        base = matrix[row_idx]
        inv = 1 / base[col]
        matrix[row_idx] = [v * inv for v in base]
        for r in range(len(matrix)):
            if r != row_idx and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [v - factor * p for v, p in zip(matrix[r], matrix[row_idx])]
        pivots.append(col)
        row_idx += 1
    for r in range(row_idx, len(matrix)):
        if matrix[r][-1] != 0:
            return None  # inconsistent
    values = [matrix[i][-1] for i in range(k)]
    if any(v < 0 for v in values):
        return None
    return dict(zip(cells, values))


def transport_vertices(rows, cols):
    """All vertices of the transportation polytope by trying every support
    of size at most m + n - 1; deduplicated by positive support."""
    m, n = len(rows), len(cols)
    all_cells = [(r, c) for r in range(m) for c in range(n)]
    seen = set()
    out = []
    for size in range(1, m + n):
        for support in itertools.combinations(all_cells, size):
            solution = solve_support(support, rows, cols)
            if solution is None:
                continue
            positive = frozenset(c for c, v in solution.items() if v > 0)
            if positive in seen:
                continue
            seen.add(positive)
            out.append({c: v for c, v in solution.items() if v > 0})
    return out


def min_coupling_entropy_distance(x_weights, y_weights) -> float:
    """Exact single-space distance: minimize 2 H(coupling) - H(x) - H(y)
    over the subset-enumerated vertices."""
    import math

    def entropy(ws):
        return -sum(float(w) * math.log(w) for w in ws if w > 0)

    hx, hy = entropy(x_weights), entropy(y_weights)
    best = None
    for vertex in transport_vertices(list(x_weights), list(y_weights)):
        value = 2.0 * entropy(list(vertex.values())) - hx - hy
        best = value if best is None else min(best, value)
    return best


def min_coupling_argmin(x_weights, y_weights):
    """(value, sorted support) of the subset-enumerated vertex minimizing
    2 H(coupling) - H(x) - H(y), ties broken by the sorted support.  The
    coupling's entropy is summed over its sorted weights."""
    hx = fraction_entropy(dict(enumerate(x_weights)))
    hy = fraction_entropy(dict(enumerate(y_weights)))
    return min((2.0 * fraction_entropy(dict(enumerate(sorted(v.values())))) - hx - hy, sorted(v))
               for v in transport_vertices(list(x_weights), list(y_weights)))


def majorization_meet(p, q) -> list:
    """Greatest lower bound of two distributions in the majorization order:
    the vector whose prefix sums are the smaller of the two prefix sums of
    the decreasingly sorted inputs."""
    p, q = sorted(p, reverse=True), sorted(q, reverse=True)
    size = max(len(p), len(q))
    p += [Fraction(0)] * (size - len(p))
    q += [Fraction(0)] * (size - len(q))
    meet, sum_p, sum_q, previous = [], Fraction(0), Fraction(0), Fraction(0)
    for a, b in zip(p, q):
        sum_p, sum_q = sum_p + a, sum_q + b
        meet.append(min(sum_p, sum_q) - previous)
        previous = min(sum_p, sum_q)
    return [w for w in meet if w > 0]


def fraction_pushforward(weights: dict, mapping) -> dict:
    """Image of an atom -> Fraction measure, in order of first appearance."""
    out: dict = {}
    for atom, w in weights.items():
        out[mapping[atom]] = out.get(mapping[atom], Fraction(0)) + w
    return out


def reduction_accepts(domain: dict, target: dict, mapping) -> bool:
    """Whether mapping pushes the domain measure forward exactly onto the
    target, both given as atom -> positive Fraction dicts.  Raises KeyError
    naming the first domain atom, in order, that mapping leaves undefined."""
    return fraction_pushforward(domain, mapping) == target


def fraction_tensor(left: dict, right: dict) -> dict:
    return {(a, b): wa * wb for a, wa in left.items() for b, wb in right.items()}


def fraction_fiber(weights: dict, mapping, target) -> dict:
    """The measure conditioned on the preimage of target, renormalized."""
    fiber = {a: w for a, w in weights.items() if mapping[a] == target}
    mass = sum(fiber.values(), Fraction(0))
    return {a: w / mass for a, w in fiber.items()}


def fraction_local_decomposition(pi: dict, pi_prime: dict) -> tuple:
    """(alpha, common, rest_left, rest_right) of pi = (1 - alpha) common +
    alpha rest_left and the same for pi_prime, in Fraction arithmetic over
    every atom either dict names; common is None for alpha = 1, and all
    three parts are pi for alpha = 0."""
    pi = {a: Fraction(w) for a, w in pi.items()}
    pi_prime = {a: Fraction(w) for a, w in pi_prime.items()}
    atoms = list(pi) + [a for a in pi_prime if a not in pi]
    zero = Fraction(0)
    alpha = sum((abs(pi.get(a, zero) - pi_prime.get(a, zero)) for a in atoms), zero) / 2
    if alpha == 1:
        return alpha, None, dict(pi), dict(pi_prime)
    if alpha == 0:
        return alpha, dict(pi), dict(pi), dict(pi)
    common = {a: min(pi.get(a, zero), pi_prime.get(a, zero)) / (1 - alpha) for a in atoms}
    rest_left = {a: (pi.get(a, zero) - (1 - alpha) * common[a]) / alpha for a in atoms}
    rest_right = {a: (pi_prime.get(a, zero) - (1 - alpha) * common[a]) / alpha for a in atoms}
    return alpha, common, rest_left, rest_right


def fraction_random_coupling(x, y, rng) -> dict:
    """Random mass routing on the Fraction weights of two spaces: each step
    draws a row, then a column, by rng.choice over the live atoms sorted by
    str, and moves the smaller residual into their cell.  {(a, b): weight}
    in the order cells are used."""
    rem_x = dict(x.items())
    rem_y = dict(y.items())
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
    return cells


def greedy_coupling(x, y, denom: int) -> dict:
    """Largest-mass-first matching on integer masses over denom: saturate
    the cell of the largest residual row and column, ties broken by
    str(atom).  {(row, col): mass} in the order cells are used."""
    rem_x = {r: m * (denom // x.denom) for r, m in enumerate(x.masses)}
    rem_y = {c: m * (denom // y.denom) for c, m in enumerate(y.masses)}
    label_x = [str(a) for a in x.atoms]
    label_y = [str(b) for b in y.atoms]
    cells = {}
    while rem_x:
        r = max(rem_x, key=lambda k: (rem_x[k], label_x[k]))
        c = max(rem_y, key=lambda k: (rem_y[k], label_y[k]))
        move = min(rem_x[r], rem_y[c])
        cells[(r, c)] = move
        rem_x[r] -= move
        rem_y[c] -= move
        if rem_x[r] == 0:
            del rem_x[r]
        if rem_y[c] == 0:
            del rem_y[c]
    return cells


def fraction_entropy(weights: dict) -> float:
    """Entropy in nats, term by term from each reduced weight in order."""
    total = 0.0
    for w in weights.values():
        if w != 1:
            total -= float(w) * (math.log(w.numerator) - math.log(w.denominator))
    return total


def all_partitions(items):
    """Every partition of a list, as tuples of blocks."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        yield ((first,),) + partition
        for idx, block in enumerate(partition):
            yield partition[:idx] + (block + (first,),) + partition[idx + 1:]


def fan_minimal_by_partitions(top, left_map, right_map) -> bool:
    """Categorical minimality by brute force: a nontrivial quotient of the
    top through which both feet factor exists iff the fan is not minimal."""
    atoms = list(top)
    for partition in all_partitions(atoms):
        if len(partition) == len(atoms):
            continue  # trivial quotient
        factors = all(
            len({left_map[a] for a in block}) == 1 and len({right_map[a] for a in block}) == 1
            for block in partition
        )
        if factors:
            return False
    return True


def brute_automorphism_count(diagram) -> int:
    """Count diagram automorphisms by enumerating all weight-preserving
    permutations of the initial support and checking induced consistency."""
    init = diagram.initial
    atoms = list(diagram.initial_space.atoms)
    comps = {o: diagram.composite_mapping(init, o) for o in diagram.category.objects}

    def consistent(sigma0: dict) -> bool:
        for obj in diagram.category.objects:
            induced = {}
            for z, w in sigma0.items():
                a, b = comps[obj][z], comps[obj][w]
                if induced.setdefault(a, b) != b:
                    return False
            if len(set(induced.values())) != len(induced):
                return False
            for a, b in induced.items():
                if diagram.spaces[obj].weight(a) != diagram.spaces[obj].weight(b):
                    return False
        return True

    count = 0
    for perm in itertools.permutations(atoms):
        sigma0 = dict(zip(atoms, perm))
        if any(diagram.initial_space.weight(z) != diagram.initial_space.weight(w)
               for z, w in sigma0.items()):
            continue
        if consistent(sigma0):
            count += 1
    return count


def dense_fan_tail_hits(ext, kind: str, t: float, mult) -> int:
    """Number of samples whose fan statistic exceeds its threshold, counted
    per x0 atom: each row of mult holds the multiplicities of the u atoms
    (in u_space order) in one sample of N draws, and an atom's count is the
    sum over the u fibers holding it, read from ext.fibers alone."""
    x0_atoms = sorted({x for fiber in ext.fibers.values() for x in fiber}, key=str)
    index = {x: k for k, x in enumerate(x0_atoms)}
    mask = np.zeros((len(ext.fibers), len(x0_atoms)), dtype=np.int64)
    for row, u in enumerate(ext.u_space.atoms):
        for x in ext.fibers[u]:
            mask[row, index[x]] = 1
    card = len(x0_atoms)
    n = int(mult[0].sum())
    f = len(next(iter(ext.fibers.values())))
    counts = mult @ mask
    p = counts / float(n * f)
    two_alpha = np.abs(p - 1.0 / card).sum(axis=1)
    if kind == "totalvar":
        return int(np.count_nonzero(two_alpha > t))
    if kind == "height":
        safe = np.where(counts > 0, counts, 1)
        stat = (counts * np.log(safe)).sum(axis=1) / float(n * f)
        return int(np.count_nonzero(stat > math.log(n * f / card) + t))
    if kind == "ikd":
        log_card = math.log(card)
        a = np.clip(two_alpha / 2.0, 1e-15, 1.0 - 1e-15)
        ent = -(a * np.log(a) + (1 - a) * np.log(1 - a))
        stat = a * log_card + np.where(two_alpha <= 0, 0.0, ent)
        return int(np.count_nonzero(stat > t * log_card))
    raise ValueError(kind)


def uniform_below(rng, n: int) -> int:
    """A uniform integer in [0, n) by rejection on
    rng.getrandbits(bit_length(n - 1)); no bits when n = 1."""
    bits = (n - 1).bit_length()
    while True:
        point = rng.getrandbits(bits) if bits else 0
        if point < n:
            return point


def categorical_draws(space, rng, n: int) -> list:
    """n draws from a space, as positions into its atoms, one at a time: a
    `uniform_below` its denominator, located by a scan of the cumulative
    masses."""
    cumulative = list(itertools.accumulate(space.masses))
    return [next(k for k, c in enumerate(cumulative) if point < c)
            for point in (uniform_below(rng, space.denom) for _ in range(n))]


def contract_per_atom(ext, params) -> SimpleNamespace:
    """One contraction run computed atom by atom, from the draws
    `categorical_draws` makes at the run's seed, which `contract_once` must
    make too: each x0 atom's count summed over the sampled u fibers
    holding it (a dict in order of first count), alpha as half the l1
    distance of count / (N f) from the uniform law in Fractions, the height
    as one float term per atom summed in that order, and the conditioned
    x-side as the law on the counted atoms, in x0 order, pushed forward to
    every object, with each cover's map read off the two pushforwards."""
    from probdiag.distances import local_estimate_bound
    from probdiag.spaces import ProbSpace, pushforward

    rng = random.Random(params.seed)
    u_atoms = ext.u_space.atoms
    draws = [u_atoms[p] for p in categorical_draws(ext.u_space, rng, params.N)]
    counts: dict = {}
    for u, mult in Counter(draws).items():
        for x in ext.fibers[u]:
            counts[x] = counts.get(x, 0) + mult
    nf, card = params.N * ext.fiber_size, ext.x0_card
    alpha = sum(abs(Fraction(counts.get(x, 0), nf) - Fraction(1, card))
                for x in ext.x0_space.atoms) / 2
    height = 0.0
    for c in counts.values():
        height += (c / nf) * math.log(c)
    covered = [x for x in ext.x0_space.atoms if x in counts]
    law = ProbSpace(covered, [counts[x] for x in covered], denom=nf)
    lifts = {o: ext.xdiag.composite_mapping(ext.x0, o) for o in ext.shape.objects}
    spaces = {o: pushforward(law, lifts[o]) for o in ext.shape.objects}
    maps = {(i, j): {lifts[i][x]: lifts[j][x] for x in covered}
            for (i, j) in ext.shape.covers}
    coverage = len(covered) == card
    ikd_upper = (local_estimate_bound(ext.size_h, card, alpha) if coverage
                 else 2.0 * ext.size_h * math.log(card))
    return SimpleNamespace(counts=counts, alpha=alpha, height=height, coverage=coverage,
                           ikd_upper=ikd_upper, spaces=spaces, maps=maps)


def first_drawn(sample) -> list:
    """The distinct items of a sample, in the order first drawn."""
    return list(dict.fromkeys(sample))


def first_counted(ext, drawn) -> list:
    """The x0 atoms counted over the fibers of the distinct sampled u atoms
    `drawn` (in first-draw order), in the order first counted: row by row,
    in fiber order, the atoms whose pattern, the set of u atoms whose fibers
    hold it, no earlier row's fiber held."""
    holders: dict = {}
    for u in ext.u_space.atoms:
        for x in ext.fibers[u]:
            holders.setdefault(x, set()).add(u)
    pattern = {x: frozenset(us) for x, us in holders.items()}
    seen: set = set()
    order = []
    for u in drawn:
        fresh = {pattern[x] for x in ext.fibers[u]} - seen
        order += [x for x in ext.fibers[u] if pattern[x] in fresh]
        seen |= fresh
    return order


def dict_lift_diagram(category, measure, lifts):
    """The diagram of one measure on an initial set pushed through a
    skeleton, as the library once built every such diagram: lifts[obj] is
    an atom dict sending each atom of `measure` to its atom at obj, the
    space at obj the pushforward under it, and the map on a cover (i, j)
    the dict sending lifts[i][a] to lifts[j][a], keyed in domain order."""
    from probdiag.diagrams import Diagram
    from probdiag.spaces import pushforward

    spaces = {o: pushforward(measure, lifts[o]) for o in category.objects}
    maps = {(i, j): dict_reduction(spaces[i], spaces[j],
                                   {lifts[i][a]: lifts[j][a] for a in measure.atoms})
            for (i, j) in category.covers}
    return Diagram._trusted(category, spaces, maps)


def dict_reduction(domain, target, mapping):
    """An unchecked reduction given as an atom dict: each image looked up in
    the target's frame index."""
    from probdiag.spaces import Reduction

    index = target.frame.index
    return Reduction._trusted(domain, target,
                              positions=[index[mapping[a]] for a in domain.atoms])


def dict_lifts(source) -> dict:
    """Object -> composite atom dict out of the initial object of a diagram
    or a set diagram."""
    return {o: source.composite_mapping(source.initial, o) for o in source.category.objects}


def dict_restricted(source, atoms, masses, category=None):
    """`source` under the measure `masses` over their sum on the initial
    atoms `atoms` (zero masses dropped), pushed through its atom dicts to
    every object of `category`, by default its own shape."""
    from probdiag.spaces import ProbSpace

    measure = ProbSpace(atoms, masses, denom=sum(masses))
    return dict_lift_diagram(category or source.category, measure, dict_lifts(source))


def dict_pair_fan(coupling, first, second, first_on_left=True):
    """The fan of a coupling on pairs of initial atoms of two diagrams of one
    shape: the coupling pushed through the pairs of atom dicts, each pair
    atom a tuple, and projected back to each coordinate by atom dicts."""
    from probdiag.diagrams import FanOfDiagrams

    lift1, lift2 = dict_lifts(first), dict_lifts(second)
    lifts = {o: {p: (lift1[o][p[0]], lift2[o][p[1]]) for p in coupling.atoms}
             for o in first.category.objects}
    top = dict_lift_diagram(first.category, coupling, lifts)
    proj1, proj2 = ({o: dict_reduction(s, foot.spaces[o], {p: p[k] for p in s.atoms})
                     for o, s in top.spaces.items()} for k, foot in enumerate((first, second)))
    if first_on_left:
        return FanOfDiagrams._trusted(top, first, second, proj1, proj2)
    return FanOfDiagrams._trusted(top, second, first, proj2, proj1)


def materialized_fan(ext, u_pos, xprime, vspace):
    """The conditioned two-fan (x' <- y' -> V) of a contraction run, with y'0
    the uniform law on every pair (x, k), x in the fiber over the k-th
    sampled u atom (u_pos holds the sampled positions into u's atoms),
    pushed through the coupling fan of x' and the constant diagram on V
    (`dict_pair_fan`)."""
    from probdiag.diagrams import constant_diagram
    from probdiag.spaces import ProbSpace

    u_bar = map(ext.u_space.atoms.__getitem__, u_pos.tolist())
    y0_atoms = [(x, k) for k, u in enumerate(u_bar, 1) for x in ext.fibers[u]]
    y0 = ProbSpace(y0_atoms, [1] * len(y0_atoms), denom=len(y0_atoms))
    return dict_pair_fan(y0, xprime, constant_diagram(ext.shape, vspace))


def dict_strip_expansion(expanded, spec):
    """The W coordinate marginalized out of an expansion's u-side as the
    library once did it: each inflated space pushed forward along
    (v, w) -> v, each inflated map rebuilt as an atom dict, then checked
    through `Reduction(...)` and `Diagram(...)`."""
    from probdiag import Diagram, Reduction
    from probdiag.errors import VerificationError
    from probdiag.spaces import pushforward

    if spec.m == 1:
        return expanded
    inflate = set(spec.base.category.ancestors(spec.fan.u_obj))
    spaces = {}
    for obj in expanded.category.objects:
        space = expanded.spaces[obj]
        spaces[obj] = (pushforward(space, {(v, w): v for (v, w) in space.atoms})
                       if obj in inflate else space)
    maps = {}
    for (i, j) in expanded.category.covers:
        old = expanded.prime_maps[(i, j)].mapping
        if i in inflate:
            mapping = {}
            for (v, _), image in old.items():
                stripped = image[0] if j in inflate else image
                if mapping.setdefault(v, stripped) != stripped:
                    raise VerificationError(f"W marginal ill-defined on cover {(i, j)!r}")
        else:
            mapping = dict(old)
        maps[(i, j)] = Reduction(spaces[i], spaces[j], mapping)
    return Diagram(expanded.category, spaces, maps)


def slice_clause(original, expanded, spec):
    """The first (u-atom, object) at which an expansion's x-ideal,
    conditioned on a u-atom (v, w) (on v when m = 1), differs from the
    original's conditioned on v, in the expansion's u order; None when no
    slice differs.  The per-slice loop `verify_expansion` once ran: one
    diagram per u-atom of each, each pair compared by `dict_first_change`."""
    from probdiag.diagrams import conditioned_slices

    fan = spec.fan
    x_ideal = original.category.descendants(fan.x_obj)
    old_slices = dict(conditioned_slices(original, fan.u_obj, x_ideal))
    for atom, cond_new in conditioned_slices(expanded, fan.u_obj, x_ideal):
        obj = dict_first_change(old_slices[atom[0] if spec.m > 1 else atom], cond_new)
        if obj is not None:
            return atom, obj
    return None


def _atoms_at(source, obj) -> tuple:
    """The atoms at obj of a diagram or a set diagram."""
    return source.sets[obj] if hasattr(source, "sets") else source.spaces[obj].atoms


def list_lift(source, obj) -> list:
    """The lift of obj in a diagram or a set diagram, composed on Python
    lists as the library once did: range(|initial|) at the initial object,
    elsewhere the first parent's cover positions (read off the cover's atom
    dict) indexed by the parent's lift."""
    cat = source.category
    if obj == cat.initial:
        return list(range(len(_atoms_at(source, obj))))
    parent = cat.first_parent[obj]
    cover = (parent, obj)
    mapping = source.maps[cover] if hasattr(source, "sets") else source.prime_maps[cover].mapping
    index = {b: p for p, b in enumerate(_atoms_at(source, obj))}
    via = [index[b] for b in mapping.values()]
    return [via[p] for p in list_lift(source, parent)]


def list_composite(source, src, dst) -> list:
    """The composite src -> dst as a list of positions in dst's atoms, in
    src's atom order, read off the two list lifts."""
    positions = [None] * len(_atoms_at(source, src))
    for a, b in zip(list_lift(source, src), list_lift(source, dst)):
        positions[a] = b
    return positions


def joint_size(diagram, objs) -> int:
    """The number of distinct tuples (z's image at each of objs) over the
    initial atoms z, read off the composite atom dicts."""
    init = diagram.initial
    images = [diagram.composite_mapping(init, o) for o in objs]
    return len({tuple(image[z] for image in images) for z in diagram.spaces[init].atoms})


def recheck(diagram_or_fan):
    """Rebuild a diagram, or a fan of diagrams, through the public checked
    constructors and return the rebuilt object.

    Every prime map and projection is rebuilt with `Reduction(...)`, which
    checks that it preserves measure, after asserting that its mapping lists
    exactly the domain's atoms in domain order; `Diagram(...)` and
    `FanOfDiagrams(...)` then rerun the shape, commutativity and naturality
    checks.  Raises on the first failure."""
    from probdiag import Diagram, FanOfDiagrams, Reduction

    def reduction(red):
        assert list(red.mapping) == list(red.domain.atoms), "mapping not in domain order"
        return Reduction(red.domain, red.target, red.mapping)

    def diagram(d):
        return Diagram(d.category, d.spaces,
                       {cover: reduction(r) for cover, r in d.prime_maps.items()})

    if isinstance(diagram_or_fan, FanOfDiagrams):
        fan = diagram_or_fan
        return FanOfDiagrams(diagram(fan.top), diagram(fan.left), diagram(fan.right),
                             {o: reduction(r) for o, r in fan.proj_left.items()},
                             {o: reduction(r) for o, r in fan.proj_right.items()})
    return diagram(diagram_or_fan)


def project_bits(atom: int, positions) -> int:
    """The coordinate projection of one bit-vector atom: bit t of the image
    is bit positions[t] of the atom."""
    out = 0
    for t, p in enumerate(positions):
        out |= ((atom >> p) & 1) << t
    return out


def translation_iso_by_dicts(ext, u_atom, u_ref) -> bool:
    """Whether XOR by the coordinate translation taking u_ref to u_atom is
    an isomorphism between the x-side conditioned on u_atom and on u_ref,
    checked as the library once did: both conditioned diagrams built (here
    by pushing each fiber's uniform law through the x-side's composites,
    through the checked `make_diagram`), one XOR dict per object, and
    `verify_explicit_iso` over them."""
    from probdiag import make_diagram
    from probdiag.automorphisms import verify_explicit_iso
    from probdiag.spaces import ProbSpace, pushforward

    lifts = {o: ext.xdiag.composite_mapping(ext.x0, o) for o in ext.shape.objects}

    def conditioned(u):
        fiber = ext.fibers[u]
        law = ProbSpace(fiber, [1] * len(fiber), denom=len(fiber))
        spaces = {o: pushforward(law, lifts[o]) for o in ext.shape.objects}
        maps = {(i, j): {lifts[i][x]: lifts[j][x] for x in fiber}
                for (i, j) in ext.shape.covers}
        return make_diagram(ext.shape, spaces, maps)

    cond_u, cond_ref = conditioned(u_atom), conditioned(u_ref)
    meta = ext.base.coord_meta
    table = meta.embed(ext.fan.u_obj, u_atom ^ u_ref)
    maps = {o: {a: a ^ meta.extract(o, table) for a in cond_u.spaces[o].atoms}
            for o in ext.shape.objects}
    return verify_explicit_iso(cond_u, cond_ref, maps)


def dict_first_change(old, new):
    """The first object whose space differs in two diagrams of one shape,
    else the source of the first cover whose atom dict does, else None."""
    for o, space in old.spaces.items():
        if new.spaces[o] != space:
            return o
    for (i, j), red in old.prime_maps.items():
        if red.mapping != new.prime_maps[(i, j)].mapping:
            return i
    return None


def dict_unnatural_at(source, target, maps):
    """The first object o where the atom dict maps[o] after source's
    composite out of the initial object differs from target's composite
    after maps[initial], atom by atom; else None."""
    init = source.initial
    base = maps[init]
    for o in source.category.objects:
        if o == init:
            continue
        m = maps[o]
        target_lift = target.composite_mapping(init, o)
        for z, a in source.composite_mapping(init, o).items():
            if m[a] != target_lift[base[z]]:
                return o
    return None


def dict_joint_space(diagram, i, j):
    """The joint of the spaces at i and j: the initial measure pushed
    forward under the pair of composite atom dicts, with its two
    projections as atom dicts."""
    from probdiag.spaces import pushforward

    ci = diagram.composite_mapping(diagram.initial, i)
    cj = diagram.composite_mapping(diagram.initial, j)
    pair = {z: (ci[z], cj[z]) for z in diagram.initial_space.atoms}
    joint = pushforward(diagram.initial_space, pair)
    to_i = dict_reduction(joint, diagram.spaces[i], {(a, b): a for (a, b) in joint.atoms})
    to_j = dict_reduction(joint, diagram.spaces[j], {(a, b): b for (a, b) in joint.atoms})
    return joint, to_i, to_j


def dict_conditioned_xprime(ext, counts, nf):
    """A contraction's conditioned x-side from its pattern counts, through
    atom dicts: at each object the composite images of the x0 atoms, its
    atoms in first-appearance order among them (among the counted atoms'
    images when the counts leave atoms uncovered), its masses the
    incidence of the patterns times the counts, and on each cover the dict
    between the two objects' images."""
    from probdiag.diagrams import Diagram
    from probdiag.spaces import Frame, ProbSpace

    x0_atoms = ext.x0_space.atoms
    atom_pattern = ext._patterns.atom_pattern
    n_patterns = ext._patterns.sizes.size
    covered = None if counts.all() else counts[atom_pattern] > 0
    images, spaces = {}, {}
    for o in ext.shape.objects:
        images[o] = list(map(ext.xdiag.composite_mapping(ext.x0, o).__getitem__, x0_atoms))
        position = dict(zip(dict.fromkeys(images[o]), itertools.count()))
        image = np.fromiter(map(position.__getitem__, images[o]), dtype=np.int64,
                            count=len(x0_atoms))
        incidence = np.bincount(image * n_patterns + atom_pattern,
                                minlength=len(position) * n_patterns)
        masses = incidence.reshape(len(position), n_patterns) @ counts
        atoms = tuple(position)
        if covered is not None:
            seen = image[covered]
            _, first = np.unique(seen, return_index=True)
            order = seen[np.sort(first)]
            atoms = tuple(map(atoms.__getitem__, order.tolist()))
            masses = masses[order]
        spaces[o] = ProbSpace(Frame(atoms), masses.tolist(), denom=nf)
    maps = {}
    for (i, j) in ext.shape.covers:
        mapping = dict(zip(images[i], images[j]))
        maps[(i, j)] = dict_reduction(spaces[i], spaces[j],
                                      {a: mapping[a] for a in spaces[i].atoms})
    return Diagram._trusted(ext.shape, spaces, maps)


def dict_find_diagram_morphism(d1, d2, fixed=None, step_cap=2_000_000):
    """`find_diagram_morphism` as the library once ran it, on one composite
    atom dict per object of each diagram and atom-keyed partial bijections:
    the same candidate order, so the same witness and step count."""
    from probdiag.errors import TooLargeError

    objects = d1.category.objects
    init = d1.category.initial
    comp1, comp2 = ({o: d.composite_mapping(init, o) for o in objects} for d in (d1, d2))
    fwd = {o: {} for o in objects}
    bwd = {o: {} for o in objects}
    atoms1 = d1.initial_space.atoms
    atoms2 = d2.initial_space.atoms
    if len(atoms1) != len(atoms2):
        return None
    if any(d1.spaces[o].denom != d2.spaces[o].denom for o in objects):
        return None
    steps = 0

    def assign(z, w):
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
        undo(trail)
        return None

    def undo(trail):
        for o, a, b in trail:
            del fwd[o][a]
            del bwd[o][b]

    if fixed:
        for (obj, a), b in fixed.items():
            if obj == init:
                continue
            if (fwd[obj].get(a, b) != b or bwd[obj].get(b, a) != a
                    or d1.spaces[obj].mass(a) != d2.spaces[obj].mass(b)):
                return None
            fwd[obj][a], bwd[obj][b] = b, a
        for (obj, a), b in fixed.items():
            if obj == init and fwd[init].get(a) != b and assign(a, b) is None:
                return None

    heads = {m: object() for m in {*d1.initial_space.masses, *d2.initial_space.masses}}
    nxt = {head: head for head in heads.values()}
    prv = dict(nxt)
    for w in atoms2:
        if w not in bwd[init]:
            head = heads[d2.initial_space.mass(w)]
            nxt[prv[head]], prv[w], nxt[w], prv[head] = w, prv[head], head, w
    order = [z for z in atoms1 if z not in fwd[init]]
    frames = []
    fresh = w = object()
    while len(frames) < len(order):
        z = order[len(frames)]
        head = heads[d1.initial_space.mass(z)]
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
    return {o: dict(fwd[o]) for o in objects}


def p_b0(run) -> dict:
    """A contraction run's conditioned x0 law: x0 atom -> exact weight
    count / (N f), over the atoms counted."""
    nf = run.params.N * run.fiber_size
    return {x: Fraction(c, nf) for x, c in run.counts.items()}


def height_two_ways(run) -> tuple[float, float]:
    """A run's height as its mean log fiber count, and as the entropy
    difference of the conditioned fan's arrow, ln(N f) - H(x'0)."""
    return run.height, (math.log(run.params.N * run.fiber_size)
                        - run.xprime.initial_space.entropy)
