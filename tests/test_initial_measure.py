"""Every diagram built from one initial measure, against the dict-lift
construction it replaced (`oracles.dict_lift_diagram`), field by field: the
same atoms in the same order, the same masses over the same denominators,
the same cover positions, the same atom maps in the same key order, and the
same projections.  A recorder catches every call of `_restricted` and
`_pair_fan`, wherever the package binds them, and checks each against the
oracle on the same input; the public callers are also checked against the
oracle run on their own inputs."""
import json
import random
import sys
from fractions import Fraction

import pytest

import oracles
from conftest import random_diagram, random_distribution, random_set_diagram
from probdiag import (
    DistributionOnSetDiagram,
    ProbSpace,
    SetDiagram,
    condition_diagram,
    coupling_fan,
    extend_admissible_fan,
    ikd_bounds,
    jsonio,
    local_estimate_witness,
    min_entropy_coupling,
    pushforward,
    tensor_fan,
    tensor_spaces,
)
from probdiag import diagrams
from probdiag.diagrams import conditioned_slices, sub_diagram
from probdiag.fixtures import coord_lambda3, reduced_lambda3


def assert_same_reduction(new, old):
    assert list(new.positions) == list(old.positions)
    assert list(new.mapping.items()) == list(old.mapping.items())


def assert_same_diagram(new, old):
    assert new.category == old.category
    assert list(new.spaces) == list(old.spaces)
    for o, space in old.spaces.items():
        got = new.spaces[o]
        assert (got.atoms, got.masses, got.denom) == (space.atoms, space.masses, space.denom)
    assert list(new.prime_maps) == list(old.prime_maps)
    for cover, red in old.prime_maps.items():
        assert_same_reduction(new.prime_maps[cover], red)


def assert_same_fan(new, old):
    for part in ("top", "left", "right"):
        assert_same_diagram(getattr(new, part), getattr(old, part))
    for side in ("proj_left", "proj_right"):
        assert list(getattr(new, side)) == list(getattr(old, side))
        for o, red in getattr(old, side).items():
            assert_same_reduction(getattr(new, side)[o], red)


def _recording(fn, log):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((args, kwargs, out))
        return out
    return wrapper


@pytest.fixture
def recorded(monkeypatch):
    """name -> [(args, kwargs, result)] of every `_restricted` and
    `_pair_fan` call; `check_recorded` compares each with the oracle."""
    calls = {"_restricted": [], "_pair_fan": []}
    for name, log in calls.items():
        fn = getattr(diagrams, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("probdiag") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, _recording(fn, log))
    return calls


def check_recorded(calls) -> None:
    for (source, positions, masses, *category), _, out in calls["_restricted"]:
        atoms = source._atoms(source.initial)
        old = oracles.dict_restricted(source, [atoms[p] for p in positions], list(masses),
                                      *category)
        assert_same_diagram(out, old)
    for (coupling, first, second), kwargs, out in calls["_pair_fan"]:
        assert_same_fan(out, oracles.dict_pair_fan(coupling, first, second, **kwargs))


def _old_slices(d, obj, members):
    """conditioned_slices as the dict-lift path built them."""
    cat = sub_diagram(d, members).category
    comp = d.composite_mapping(d.initial, obj)
    init = d.initial_space
    for a in d.spaces[obj].atoms:
        fiber = [z for z in init.atoms if comp[z] == a]
        yield a, oracles.dict_restricted(d, fiber, [init.mass(z) for z in fiber], cat)


def test_conditioning_random_diagrams(recorded):
    rng = random.Random(2201)
    for _ in range(40):
        d = random_diagram(rng)
        init = d.initial_space
        for obj in d.category.objects:
            comp = d.composite_mapping(d.initial, obj)
            for atom in d.spaces[obj].atoms:
                fiber = [z for z in init.atoms if comp[z] == atom]
                assert_same_diagram(condition_diagram(d, obj, atom),
                                    oracles.dict_restricted(d, fiber, list(map(init.mass, fiber))))
            for x in d.category.objects:
                members = d.category.descendants(x)
                new = list(conditioned_slices(d, obj, members))
                old = list(_old_slices(d, obj, members))
                assert [a for a, _ in new] == [a for a, _ in old]
                for (_, got), (_, want) in zip(new, old):
                    assert_same_diagram(got, want)
    assert recorded["_restricted"]
    check_recorded(recorded)


def _with_a_zero(rng, atoms) -> dict:
    """A random distribution on atoms with at least one atom of weight 0."""
    pi = random_distribution(rng, atoms)
    zero = rng.choice([a for a, w in pi.items() if w])
    if sum(pi.values()) == pi[zero]:
        zero = rng.choice([a for a in atoms if a != zero])
    total = sum(w for a, w in pi.items() if a != zero)
    return {a: (Fraction(0) if a == zero else w / total) for a, w in pi.items()}


def test_set_diagrams_with_zero_masses(recorded):
    rng = random.Random(2202)
    fans = 0
    for _ in range(40):
        sd = random_set_diagram(rng)
        pi, pi_prime = (_with_a_zero(rng, sd.initial_set()) for _ in range(2))
        dist = DistributionOnSetDiagram(sd, pi)
        assert len(dist.measure) < len(sd.initial_set())
        old = oracles.dict_lift_diagram(sd.category, dist.measure, oracles.dict_lifts(sd))
        assert_same_diagram(dist.to_diagram(), old)
        for o in sd.category.objects:
            want = pushforward(dist.measure, sd.composite_mapping(sd.initial, o))
            assert list(dist.marginal(o).items()) == list(want.items())
        est = local_estimate_witness(sd, pi, pi_prime)
        assert est.slice_isos_ok
        pair_fans = [out for _, _, out in recorded["_pair_fan"]]
        assert est.witness.fan in pair_fans
        for fan in est.lambda_fans or ():
            assert fan in pair_fans
            fans += 1
    assert fans > 0
    check_recorded(recorded)


def test_pair_fans(recorded):
    rng = random.Random(2203)
    for _ in range(30):
        d = random_diagram(rng)
        other = random_diagram(rng, d.category)
        product = tensor_spaces(d.initial_space, other.initial_space)
        old = oracles.dict_pair_fan(product, d, other)
        assert_same_fan(tensor_fan(d, other), old)
        assert_same_fan(coupling_fan(d, other, product), old)
        x, y = d.initial_space, other.initial_space
        for cap in (30, 0):  # the exact search, then the greedy coupling
            min_entropy_coupling(x, y, cap=cap)
        # a measure on d's skeleton, so ikd_bounds builds the mixture
        weights = random_distribution(rng, x.atoms)
        for a in x.atoms:
            weights[a] += 1
        total = sum(weights.values())
        same = DistributionOnSetDiagram(SetDiagram.from_diagram(d),
                                        {a: w / total for a, w in weights.items()}).to_diagram()
        assert ikd_bounds(d, same).witness.fan is not None
    assert len(recorded["_pair_fan"]) >= 30 * 5
    check_recorded(recorded)


def _loaded_reduced_lambda3(tmp_path):
    diagram, fan = reduced_lambda3(3, 7, range(6, 8))
    jsonio.save_diagram(diagram, tmp_path / "lambda3.json")
    return jsonio.load_diagram(tmp_path / "lambda3.json"), fan


@pytest.mark.parametrize("build", [_loaded_reduced_lambda3, lambda _: coord_lambda3()],
                         ids=["loaded_reduced_lambda3", "coord_lambda3"])
def test_extended_fan_diagrams(build, tmp_path, recorded):
    ext = extend_admissible_fan(*build(tmp_path))
    lifts = oracles.dict_lifts(ext.base)
    cu = lifts[ext.fan.u_obj]
    pairs = {o: {z: (lifts[o][z], cu[z]) for z in cu} for o in ext.shape.objects}
    assert_same_diagram(ext.ydiag,
                        oracles.dict_lift_diagram(ext.shape, ext.base.initial_space, pairs))
    x_lifts = oracles.dict_lifts(ext.xdiag)
    for u in ext.u_space.atoms:
        fiber = ext.fibers[u]
        uniform = ProbSpace(fiber, [1] * len(fiber), denom=len(fiber))
        assert_same_diagram(ext.conditioned_x_side(u),
                            oracles.dict_lift_diagram(ext.shape, uniform, x_lifts))
    assert len(recorded["_restricted"]) == len(ext.u_space)
    check_recorded(recorded)
    # the diagrams read the same once written out, as the digests do
    old = oracles.dict_lift_diagram(ext.shape, ext.base.initial_space, pairs)
    assert json.dumps(jsonio.diagram_to_obj(ext.ydiag)) == json.dumps(jsonio.diagram_to_obj(old))
