"""One map form: a `Reduction` stores positions, and atom dicts are views.

Every reader of maps inside the package runs on positions.  Each one that
once read atom dicts is checked here against that dict form, kept in
`tests/oracles.py`, on random diagrams reloaded with each space's atoms
shuffled, so the one helper that takes a map across two orders of its
spaces' atoms (`Reduction._in_spaces`) runs on every path.  A counting
test pins that the benchmark's operations and CLI `contract` build no atom
dict at all."""
import contextlib
import importlib.util
import io
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_diagram
from probdiag import (
    Diagram,
    ExpansionSpec,
    FanOfDiagrams,
    ProbSpace,
    Reduction,
    contract_once,
    expand_diagram,
    extend_admissible_fan,
    joint_space,
    tensor_fan,
)
from probdiag import contraction, jsonio
from probdiag.automorphisms import find_diagram_morphism
from probdiag.cli import main
from probdiag.contraction import ContractionParams
from probdiag.diagrams import _first_change, _unnatural_at
from probdiag.errors import CommutativityError, TooLargeError
from probdiag.expansion import _slices_agree
from probdiag.fixtures import coord_lambda3, coord_two_fan, reduced_lambda3, reduced_two_fan

from test_expansion import _relabelled

ROOT = Path(__file__).resolve().parent.parent


def _shuffled(diagram: Diagram, rng) -> Diagram:
    """The diagram saved as JSON with every space's atoms listed in a
    shuffled order, and loaded again."""
    obj = jsonio.diagram_to_obj(diagram)
    for space in obj["spaces"].values():
        order = list(range(len(space["atoms"])))
        rng.shuffle(order)
        for key in ("atoms", "weights"):
            space[key] = [space[key][k] for k in order]
    return jsonio.diagram_from_obj(json.loads(json.dumps(obj)))


def _reordered(space: ProbSpace, rng) -> ProbSpace:
    """An equal space, its atoms listed in a shuffled order."""
    pairs = list(zip(space.atoms, space.masses))
    rng.shuffle(pairs)
    return ProbSpace([a for a, _ in pairs], [m for _, m in pairs], denom=space.denom)


def _tampered(red: Reduction, rng) -> Reduction:
    """red with the images of two domain atoms of equal mass swapped, when
    it has two with different images: still measure-preserving."""
    mapping = dict(red.mapping)
    mass = dict(zip(red.domain.atoms, red.domain.masses))
    pairs = [(a, b) for a in mapping for b in mapping
             if a != b and mass[a] == mass[b] and mapping[a] != mapping[b]]
    if pairs:
        a, b = rng.choice(pairs)
        mapping[a], mapping[b] = mapping[b], mapping[a]
    return Reduction(red.domain, red.target, mapping)


def _fields(red: Reduction) -> tuple:
    return red.domain, red.target, list(red.mapping.items())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16), salt=st.integers(0, 2 ** 16))
def test_position_readers_equal_their_dict_forms(seed, salt):
    d = random_diagram(random.Random(seed))
    rng = random.Random(salt)
    shuffled = _shuffled(d, rng)
    cat = d.category

    tampered = {}
    for c, red in d.prime_maps.items():
        other = shuffled.prime_maps[c]
        assert red == other and hash(red) == hash(other)
        bad = tampered[c] = _tampered(other, rng)
        assert (red == bad) == (red.mapping == bad.mapping)
        if red == bad:
            assert hash(red) == hash(bad)
        # preimages and fibers keep domain order
        weights = dict(other.domain.items())
        for b in other.target.atoms:
            assert other.preimage(b) == tuple(a for a in other.domain.atoms
                                              if other.mapping[a] == b)
            fiber = other.fiber(b)
            assert fiber.atoms == other.preimage(b)
            assert dict(fiber.items()) == oracles.fraction_fiber(weights, other.mapping, b)

    assert _first_change(d, shuffled) is oracles.dict_first_change(d, shuffled) is None
    for c, bad in tampered.items():
        changed = Diagram._trusted(cat, shuffled.spaces, {**shuffled.prime_maps, c: bad})
        assert _first_change(d, changed) == oracles.dict_first_change(d, changed)
        assert _first_change(changed, d) == oracles.dict_first_change(changed, d)

    # the checked Diagram(...) takes each map into its own spaces, and
    # accepts exactly the maps whose paths agree
    built = Diagram(cat, d.spaces, shuffled.prime_maps)
    for c, red in built.prime_maps.items():
        assert red.domain is d.spaces[c[0]] and red.target is d.spaces[c[1]]
        other = shuffled.prime_maps[c].mapping
        assert list(red.mapping.items()) == [(a, other[a]) for a in d.spaces[c[0]].atoms]
    if tampered:
        c = rng.choice(sorted(tampered))
        maps = {k: r.mapping for k, r in shuffled.prime_maps.items()}
        maps[c] = tampered[c].mapping
        atoms = {o: s.atoms for o, s in d.spaces.items()}
        agree = oracles.all_paths_agree(oracles.path_composites(cat.objects, cat.covers,
                                                                atoms, maps))
        try:
            Diagram(cat, d.spaces, {**shuffled.prime_maps, c: tampered[c]})
            assert agree
        except CommutativityError:
            assert not agree

    # the checked FanOfDiagrams(...) likewise takes its projections into its
    # own spaces, and accepts exactly the natural ones
    fan = tensor_fan(d, d)
    projs = {o: Reduction(_reordered(fan.top.spaces[o], rng), shuffled.spaces[o],
                          r.mapping) for o, r in fan.proj_left.items()}
    checked = FanOfDiagrams(fan.top, d, d, projs, fan.proj_right)
    for o, red in checked.proj_left.items():
        assert red.domain is fan.top.spaces[o] and red.target is d.spaces[o]
        assert list(red.mapping.items()) == list(fan.proj_left[o].mapping.items())
    obj = rng.choice(cat.objects)
    projs[obj] = _tampered(projs[obj], rng)
    dicts = {o: r.mapping for o, r in projs.items()}
    unnatural = oracles.dict_unnatural_at(fan.top, d, dicts)
    positions = {o: np.array([d.spaces[o].frame.index[m[a]] for a in fan.top.spaces[o].atoms])
                 for o, m in dicts.items()}
    assert _unnatural_at(fan.top, d, positions) == unnatural
    try:
        FanOfDiagrams(fan.top, d, d, projs, fan.proj_right)
        assert unnatural is None
    except CommutativityError:
        assert unnatural is not None

    # joint spaces, atom order included
    for i in cat.objects:
        for j in cat.objects:
            got, want = joint_space(shuffled, i, j), oracles.dict_joint_space(shuffled, i, j)
            assert (got[0].atoms, got[0].masses, got[0].denom) == (
                want[0].atoms, want[0].masses, want[0].denom)
            assert _fields(got[1]) == _fields(want[1]) and _fields(got[2]) == _fields(want[2])


EXPANDED = {
    "two_fan": lambda: reduced_two_fan(4, (3, 4)),
    "lambda3": lambda: reduced_lambda3(2, 4, (3, 4)),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_slice_clause_on_shuffled_reloads(data):
    # the grouped slice pass against the per-slice loop, with the original,
    # the expansion or both reloaded with shuffled atoms, and one object of
    # the expansion relabelled by a swap of two atoms of equal mass
    name = data.draw(st.sampled_from(sorted(EXPANDED)))
    m = data.draw(st.integers(1, 3))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    d, fi = EXPANDED[name]()
    spec = ExpansionSpec(d, fi, m)
    out = expand_diagram(spec)
    if data.draw(st.booleans()):
        obj = rng.choice(out.category.objects)
        space = out.spaces[obj]
        pairs = [(a, b) for a in space.atoms for b in space.atoms
                 if repr(a) < repr(b) and space.mass(a) == space.mass(b)]
        if pairs:
            a, b = rng.choice(pairs)
            out = _relabelled(out, obj, {a: b, b: a})
    original = _shuffled(d, rng) if data.draw(st.booleans()) else d
    expanded = _shuffled(out, rng) if data.draw(st.booleans()) else out
    assert _slices_agree(original, expanded, spec) == (
        oracles.slice_clause(original, expanded, spec) is None)


def _steps(search, *args) -> int:
    """The steps a morphism search takes: the least step cap it keeps."""
    low, high = 0, 1
    while True:
        try:
            search(*args, step_cap=high)
            break
        except TooLargeError:
            low, high = high, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            search(*args, step_cap=mid)
            high = mid
        except TooLargeError:
            low = mid + 1
    return low


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 16), salt=st.integers(0, 2 ** 16))
def test_morphism_search_equals_its_dict_form(seed, salt):
    # same witness, key order included, and same step count, between a
    # random diagram and its shuffled reload, with and without a constraint
    d = random_diagram(random.Random(seed))
    rng = random.Random(salt)
    other = _shuffled(d, rng)
    obj = rng.choice(d.category.objects)
    fixed = {(obj, rng.choice(d.spaces[obj].atoms)): rng.choice(other.spaces[obj].atoms)}
    for pair in ((d, other), (other, d), (d, d)):
        for constraint in (None, fixed):
            got = find_diagram_morphism(*pair, constraint)
            want = oracles.dict_find_diagram_morphism(*pair, constraint)
            assert (got is None) == (want is None)
            if got is not None:
                assert {o: list(m.items()) for o, m in got.items()} == {
                    o: list(m.items()) for o, m in want.items()}
            assert (_steps(find_diagram_morphism, *pair, constraint)
                    == _steps(oracles.dict_find_diagram_morphism, *pair, constraint))


@pytest.mark.parametrize("build", [
    lambda: coord_two_fan(4, [1, 2], [2, 3, 4]),
    lambda: coord_lambda3(),
    lambda: reduced_lambda3(2, 5, (4, 5)),
], ids=["two_fan", "lambda3", "reduced_lambda3"])
def test_conditioned_xprime_equals_its_dict_form(build):
    # the x-side built on lifts, field by field and in key order, on the
    # fixture and on a shuffled reload; N = 1 and 2 leave atoms uncovered
    d, fi = build()
    covered = set()
    for diagram in (d, _shuffled(d, random.Random(4))):
        ext = extend_admissible_fan(diagram, fi)
        pattern = ext.fiber_patterns[0]
        for n in (1, 2, 40):
            for seed in range(3):
                run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
                counts = np.bincount(run._u_pos, minlength=len(ext.u_space)) @ pattern
                nf = n * ext.fiber_size
                got = contraction._conditioned_xprime(ext, counts, nf)
                want = oracles.dict_conditioned_xprime(ext, counts, nf)
                assert list(got.spaces) == list(want.spaces)
                for o, space in want.spaces.items():
                    assert (got.spaces[o].atoms, got.spaces[o].masses, got.spaces[o].denom) == (
                        space.atoms, space.masses, space.denom)
                assert list(got.prime_maps) == list(want.prime_maps)
                for c, red in want.prime_maps.items():
                    assert list(got.prime_maps[c].mapping.items()) == list(red.mapping.items())
                covered.add(run.coverage)
    assert covered == {False, True}


# -- no atom dict on the benchmark's and the CLI's paths ---------------------


@pytest.fixture
def dict_builds(monkeypatch):
    """Each `Reduction.mapping` view built and each
    `Diagram.composite_mapping` call, by name."""
    made = []
    view = Reduction.mapping

    def mapping(red):
        if red._mapping is None:
            made.append("mapping")
        return view.fget(red)

    composite = Diagram.composite_mapping

    def composite_mapping(diagram, src, dst):
        made.append("composite_mapping")
        return composite(diagram, src, dst)

    monkeypatch.setattr(Reduction, "mapping", property(mapping))
    monkeypatch.setattr(Diagram, "composite_mapping", composite_mapping)
    return made


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["roundtrip_loaded", "distance_bounds", "tails_fan"])
def test_benchmark_ops_build_no_atom_dict(dict_builds, name, tmp_path):
    # the roundtrip op contracts, reads fan_prime, recovers, classifies,
    # expands and verifies; the distance op runs make_diagram and ikd_bounds
    bench = _workloads()[name]
    state = bench.setup(1, tmp_path)
    ops = 2 * bench.round_ops if name != "distance_bounds" else bench.round_ops
    prepared = [bench.prepare(state, "run", k) for k in range(ops)]
    dict_builds.clear()
    for inputs in prepared:
        assert bench.run(state, inputs) == []
    assert dict_builds == []


@pytest.mark.parametrize("argv", [
    ["--l", "17", "--I", "1..15", "--J", "14..17", "--seeds", "1"],
    ["--input", "{path}", "--fan", "x,z,u", "--seeds", "2"],
], ids=["regime", "input"])
def test_cli_contract_builds_no_atom_dict(dict_builds, argv, tmp_path):
    path = tmp_path / "r3.json"
    jsonio.save_diagram(reduced_lambda3(3, 7, range(6, 8))[0], path)
    dict_builds.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["contract", *(a.format(path=path) for a in argv)]) == 0
    assert dict_builds == []


def test_a_read_view_is_counted(dict_builds):
    # the counter sees a view built for a public reader, once
    d = coord_lambda3()[0]
    red = d.prime_maps[d.category.covers[0]]
    assert red.mapping is red.mapping
    d.composite_mapping(d.initial, d.category.objects[-1])
    assert dict_builds == ["mapping", "composite_mapping"]
