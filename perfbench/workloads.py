"""The four benchmark workloads: inputs made from the seed, one operation,
and the checks on its output.

Each workload has `setup(seed, scratch)` returning a state,
`prepare(state, label, k)`, which makes the input of operation k of a
sequence outside the timed region, and `run(state, prepared)`, which runs
one operation and returns the checks that failed (empty when the output is
correct).  The warm-up operation is the sequence "warmup", the timed ones
the sequence "run".  `round_ops` is the number of operations that make up
one full mix of the workload; the timed loop only stops between rounds, so
every run measures whole mixes.  `trace_ops` is the fixed number of
operations the traced run counts.  `reference` names the kernel in
reference.py that measures the host's speed for this kind of work.

Library calls go through module attributes (``contraction.contract_once``)
so that the tracer's wrappers, installed at run time, see every call.
"""
from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

from probdiag import contraction, distances, expansion, fixtures, jsonio, sampling
from probdiag.categories import build_category
from probdiag.diagrams import classify_fan, make_diagram
from probdiag.spaces import ProbSpace

# The fan tail kinds simulate far below the |x0| > e^10 regime; their
# regime warnings say nothing about the measurement.
warnings.filterwarnings("ignore", message="t = 10/ln", category=RuntimeWarning)
warnings.filterwarnings("ignore", message="t below 10/ln", category=RuntimeWarning)


def _contraction_checks(ext, run) -> list[str]:
    failed = []
    if run.sum_nu != ext.rho * ext.x0_card:
        failed.append("sum_nu != rho*|x0|")
    if run.total_mass != 1:
        failed.append("total_mass != 1")
    if not run.fiber_iso_ok:
        failed.append("fiber_iso_ok is false")
    return failed


class ContractRegime:
    """Headline regime: |x0| = 2^15, rho = 1/4, default N = 4496."""

    name = "contract_regime"
    reference = "fraction"
    round_ops = 1
    trace_ops = 4

    def setup(self, seed, scratch):
        diagram, fan = fixtures.coord_two_fan(17, range(1, 16), range(14, 18))
        ext = contraction.extend_admissible_fan(diagram, fan)
        base = contraction.default_parameters(ext, seed=0)
        return {"seed": seed, "ext": ext, "base": base}

    def prepare(self, state, label, k):
        base, ext = state["base"], state["ext"]
        return contraction.ContractionParams(N=base.N, t=base.t, rho=ext.rho,
                                             seed=sampling.subseed(state["seed"], label, k))

    def run(self, state, params):
        result = contraction.contract_once(state["ext"], params)
        return _contraction_checks(state["ext"], result)


class RoundtripLoaded:
    """reduced_lambda3(split=3, ell=7, U=6..7) reloaded from JSON, so it has
    no coordinate certificate; each op contracts, recovers, expands and
    verifies."""

    name = "roundtrip_loaded"
    reference = "fraction"
    round_ops = 3
    trace_ops = 3

    def setup(self, seed, scratch):
        diagram, fan = fixtures.reduced_lambda3(3, 7, range(6, 8))
        path = scratch / "roundtrip_lambda3.json"
        jsonio.save_diagram(diagram, path)
        loaded = jsonio.load_diagram(path)
        ext = contraction.extend_admissible_fan(loaded, fan)
        base = contraction.default_parameters(ext, seed=0)
        return {"seed": seed, "diagram": loaded, "fan": fan, "ext": ext, "base": base}

    def prepare(self, state, label, k):
        base, ext = state["base"], state["ext"]
        params = contraction.ContractionParams(
            N=base.N, t=base.t, rho=ext.rho, seed=sampling.subseed(state["seed"], label, k))
        # each round of three ops expands with m = 2, 3, 4 in a seeded order
        sizes = [2, 3, 4]
        random.Random(sampling.subseed(state["seed"], f"{label}|m", k // 3)).shuffle(sizes)
        return params, sizes[k % 3]

    def run(self, state, prepared):
        params, m = prepared
        ext, diagram, fan = state["ext"], state["diagram"], state["fan"]
        result = contraction.contract_once(ext, params)
        failed = _contraction_checks(ext, result)
        if result.fan_prime is None:
            failed.append("conditioned fan not materialized")
            return failed
        recovered = contraction.recover_collapsed_diagram(diagram, fan, result)
        if recovered.category != diagram.category:
            failed.append("recovered diagram changed shape")
        if recovered.spaces[fan.u_obj] != result.vspace:
            failed.append("recovered u space is not V")
        if recovered.spaces[fan.x_obj] != result.xprime.spaces[fan.x_obj]:
            failed.append("recovered x space is not the conditioned one")
        if not classify_fan(recovered, fan).admissible:
            failed.append("recovered fan not admissible")

        spec = expansion.ExpansionSpec(diagram, fan, m)
        expanded = expansion.expand_diagram(spec)
        report = expansion.verify_expansion(diagram, expanded, spec)
        if not (report.recovered_exactly and report.conditioned_slices_equal
                and report.admissible_after and not report.reduced_after):
            failed.append(f"expansion report {report}")
        return failed


# -- distance_bounds inputs ----------------------------------------------------

# Single-object pairs of a round, as (|x|, |y|) supports with 12..20 cells.
# The exact path enumerates all m^(n-1) n^(m-1) spanning trees, so the shape
# fixes the cost; the two 4x5 shapes (32000 trees each) set the tail.
# 5x5 (6.8 s) is left out.
EXACT_SHAPES = ((3, 4), (2, 7), (4, 5), (2, 9), (3, 5), (4, 4), (2, 6), (5, 4),
                (3, 6), (2, 10))

# (objects, initial atoms) of the multi-object pairs of a round: every
# object count 1..5 four times, atom counts spread over 2..12.  A fixed mix
# keeps the latency quantiles of a run from depending on how many large
# instances the seed happened to draw.  No one-object pair has 5 atoms: that
# is a 5x5 exact pair.
MULTI_SIZES = tuple((1 + j % 5, 2 + (3 * j) % 11) for j in range(2 * len(EXACT_SHAPES)))


def _random_masses(rng, size):
    masses = [rng.randint(1, 16) for _ in range(size)]
    total = sum(masses)
    return [Fraction(k, total) for k in masses]


def _reaches(covers, objects):
    reach = {o: {o} for o in objects}
    for o in reversed(objects):  # covers only go from lower to higher index
        for (a, b) in covers:
            if a == o:
                reach[o] |= reach[b]
    return reach


def _has_least_common_ancestors(objects, reach):
    ancestors = {o: {a for a in objects if o in reach[a]} for o in objects}
    for i in objects:
        for j in objects:
            common = ancestors[i] & ancestors[j]
            least = [c for c in common if all(c in reach[o] for o in common)]
            if len(least) != 1:
                return False
    return True


def _random_shape(rng, k):
    """A rooted random DAG on k objects with least common ancestors, given
    by its cover relation (transitive reduction)."""
    objects = [f"o{i}" for i in range(k)]
    while True:
        edges = set()
        for j in range(1, k):
            for p in rng.sample(range(j), rng.randint(1, j)):
                edges.add((objects[p], objects[j]))
        reach = _reaches(sorted(edges), objects)
        if not _has_least_common_ancestors(objects, reach):
            continue
        covers = [(a, b) for (a, b) in sorted(edges)
                  if not any(c not in (a, b) and c in reach[a] and b in reach[c]
                             for c in objects)]
        return objects, covers


def _random_labels(rng, objects, covers, n_atoms):
    """Per-object labels of the initial atoms; each object's labelling
    coarsens every parent's, so maps along covers are well defined."""
    labels = {objects[0]: list(range(n_atoms))}
    for obj in objects[1:]:
        parents = [a for (a, b) in covers if b == obj]
        leader = list(range(n_atoms))

        def find(z):
            while leader[z] != z:
                leader[z] = leader[leader[z]]
                z = leader[z]
            return z

        for parent in parents:
            first = {}
            for z, lab in enumerate(labels[parent]):
                if lab in first:
                    leader[find(z)] = find(first[lab])
                else:
                    first[lab] = z
        roots = sorted({find(z) for z in range(n_atoms)})
        for root in roots:
            if len(roots) > 1 and rng.random() < 0.35:
                leader[find(root)] = find(rng.choice(roots))
        canon = {}
        labels[obj] = [canon.setdefault(find(z), len(canon)) for z in range(n_atoms)]
    return labels


def _pushed_space(labels, masses):
    acc = {}
    for lab, w in zip(labels, masses):
        acc[lab] = acc.get(lab, 0) + w
    return list(acc), list(acc.values())


def multi_object_instance(rng, n_objects, n_atoms):
    """Plain-data pair of diagrams on one random set diagram: a random
    category with n_objects objects, n_atoms initial atoms, and two
    full-support rational distributions."""
    objects, covers = _random_shape(rng, n_objects)
    labels = _random_labels(rng, objects, covers, n_atoms)
    sides = []
    for _ in range(2):
        masses = _random_masses(rng, n_atoms)
        sides.append({o: _pushed_space([f"{o}:{lab}" for lab in labels[o]], masses)
                      for o in objects})
    maps = {(a, b): {f"{a}:{la}": f"{b}:{lb}" for la, lb in zip(labels[a], labels[b])}
            for (a, b) in covers}
    return {"objects": objects, "covers": covers, "sides": sides, "maps": maps}


def exact_pair_instance(rng, shape):
    m, n = shape
    sides = [{"1": ([f"x{i}" for i in range(m)], _random_masses(rng, m))},
             {"1": ([f"y{j}" for j in range(n)], _random_masses(rng, n))}]
    return {"objects": ["1"], "covers": [], "sides": sides, "maps": {}}


class DistanceBounds:
    """CLI `distance` body on generated pairs: two multi-object pairs, then
    one single-object pair that takes the exact vertex-enumeration path."""

    name = "distance_bounds"
    reference = "fraction"
    round_ops = 3 * len(EXACT_SHAPES)
    trace_ops = round_ops

    def setup(self, seed, scratch):
        return {"seed": seed}

    def prepare(self, state, label, k):
        rng = random.Random(sampling.subseed(state["seed"], label, k))
        position = k % self.round_ops
        if position % 3 == 2:
            return exact_pair_instance(rng, EXACT_SHAPES[position // 3])
        return multi_object_instance(rng, *MULTI_SIZES[position // 3 * 2 + position % 3])

    def run(self, state, inst):
        cat = build_category(inst["objects"], inst["covers"])
        left, right = (make_diagram(cat, {o: ProbSpace(*side[o]) for o in inst["objects"]},
                                    inst["maps"])
                       for side in inst["sides"])
        bounds = distances.ikd_bounds(left, right)
        failed = []
        # The bounds are float sums of entropies taken in different orders.
        # When they meet (one foot a coarsening of the other), lower can
        # exceed upper by an ulp: seed 42 op 299 gives 1.3066284808826323
        # against 1.306628480882632.  Allow that rounding, nothing more.
        if not (bounds.lower <= bounds.upper
                or math.isclose(bounds.lower, bounds.upper, rel_tol=1e-12)):
            failed.append(f"lower {bounds.lower!r} > upper {bounds.upper!r}")
        if bounds.witness.kd_value != bounds.upper:
            failed.append("witness kd_value != upper")
        return failed


class TailsFan:
    """Monte-Carlo tail cells of the 2^12 two-fan, one cell per op; the kind
    cycles through totalvar, height, ikd."""

    name = "tails_fan"
    reference = "numpy"
    KINDS = (("totalvar", 1.0), ("height", 2.0), ("ikd", 1.0))  # kind, largest t
    TRIALS = 2000  # one batch of the library's default chunk
    round_ops = len(KINDS)
    trace_ops = 2 * len(KINDS)

    def setup(self, seed, scratch):
        diagram, fan = fixtures.coord_two_fan(14, range(1, 13), range(12, 15))
        ext = contraction.extend_admissible_fan(diagram, fan)
        base = contraction.default_parameters(ext, seed=0)
        return {"seed": seed, "ext": ext, "base": base}

    def prepare(self, state, label, k):
        kind, t_max = self.KINDS[k % len(self.KINDS)]
        t = random.Random(sampling.subseed(state["seed"], f"{label}|t", k)).uniform(0.0, t_max)
        return kind, t, sampling.subseed(state["seed"], label, k)

    def run(self, state, prepared):
        kind, t, seed = prepared
        check = contraction.monte_carlo_tails(kind, t=t, trials=self.TRIALS, seed=seed,
                                              ext=state["ext"], params=state["base"])
        return [] if check.passed else [f"{kind} tail at t={t} failed: {check}"]


WORKLOADS = {w.name: w for w in (ContractRegime(), RoundtripLoaded(), DistanceBounds(),
                                 TailsFan())}
