"""Spaces on shared and lazily built frames against eagerly built spaces."""
import json
import random
import warnings

import numpy as np
import pytest

from probdiag import ContractionParams, contract_once, default_parameters, extend_admissible_fan
from probdiag import contraction
from probdiag.diagrams import classify_fan
from probdiag.errors import WeightSumError
from probdiag.expansion import ExpansionSpec, expand_diagram, verify_expansion
from probdiag.fixtures import reduced_lambda3
from probdiag.jsonio import diagram_from_obj, diagram_to_obj
from probdiag.spaces import Frame, ProbSpace
from conftest import random_space


def _views(space: ProbSpace) -> tuple:
    """What a space shows, read in the order a caller would."""
    return (len(space), space.denom, space.masses, space.weights, repr(space),
            space.entropy, hash(space))


def _lazy(atoms: tuple) -> Frame:
    return Frame(build=lambda: iter(atoms))


@pytest.mark.parametrize("seed", range(12))
def test_space_on_a_frame_equals_the_eager_space(seed):
    rng = random.Random(seed)
    eager = random_space(rng, max_support=9)
    atoms, masses = eager.atoms, list(eager.masses)
    for frame in (Frame(atoms), _lazy(atoms)):
        framed = ProbSpace(frame, masses, denom=eager.denom)
        assert framed == eager and eager == framed
        assert _views(framed) == _views(eager)
        assert framed.atoms == atoms
        for a in atoms:
            assert a in framed and framed.mass(a) == eager.mass(a)
            assert framed.weight(a) == eager.weight(a)
        assert "absent" not in framed and framed.mass("absent") == 0
    # the same atoms and masses in another order, on a lazily built frame
    order = list(range(len(atoms)))
    rng.shuffle(order)
    shuffled = ProbSpace(_lazy(tuple(atoms[k] for k in order)),
                         [masses[k] for k in order], denom=eager.denom)
    assert shuffled == eager and eager == shuffled
    assert hash(shuffled) == hash(eager)
    assert shuffled.entropy == pytest.approx(eager.entropy, abs=1e-15)
    assert dict(shuffled.items()) == dict(eager.items())
    assert sorted(shuffled.weights) == sorted(eager.weights)
    assert all(shuffled.mass(a) == eager.mass(a) for a in atoms)


def test_spaces_on_one_frame_compare_masses():
    frame = Frame(("a", "b", "c"))
    one = ProbSpace(frame, [1, 2, 3], denom=6)
    assert one == ProbSpace(frame, [2, 4, 6], denom=12)  # reduced to denom 6
    assert one != ProbSpace(frame, [3, 2, 1], denom=6)
    assert one != ProbSpace(("a", "b", "c"), [1, 2, 2], denom=5)
    assert one.frame.index == {"a": 0, "b": 1, "c": 2}


def test_a_frame_needs_masses_summing_to_the_denominator():
    with pytest.raises(WeightSumError):
        ProbSpace(Frame(("a", "b")), [1, 1], denom=3)


def test_len_masses_and_entropy_leave_a_lazy_frame_unbuilt():
    built = []

    def build():
        built.append(True)
        return iter(range(4))

    space = ProbSpace(Frame(build=build), [1, 1, 1, 1], denom=4)
    assert (len(space), space.masses, space.is_uniform()) == (4, (1, 1, 1, 1), True)
    assert space.weights == (space.weights[0],) * 4
    assert space.entropy == pytest.approx(1.3862943611198906)
    assert not built and space.frame._atoms is None
    assert space.atoms == (0, 1, 2, 3) and 3 in space and built == [True]
    assert space.atoms is space.frame.atoms  # built once, then read as is


def _roundtrip_state():
    diagram, fan = reduced_lambda3(3, 7, range(6, 8))
    loaded = diagram_from_obj(json.loads(json.dumps(diagram_to_obj(diagram))))
    ext = extend_admissible_fan(loaded, fan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = default_parameters(ext, seed=0)
    return loaded, fan, ext, base


def test_roundtrip_builds_no_tagged_atoms(monkeypatch):
    # the benchmark's roundtrip op: contract, recover, classify, expand and
    # verify; nothing in it reads an atom (a, k) of y'
    diagram, fan, ext, base = _roundtrip_state()

    def refuse(*args):
        raise AssertionError("an atom (a, k) of y' was built")

    monkeypatch.setattr(contraction, "_tagged_atoms", refuse)
    for seed, m in ((1, 2), (2, 3), (3, 4)):
        run = contract_once(ext, ContractionParams(base.N, base.t, ext.rho, seed))
        top = run.fan_prime.top
        recovered = contraction.recover_collapsed_diagram(diagram, fan, run)
        assert classify_fan(recovered, fan).admissible
        # y' is the recovered initial space, whose lift is np.arange of its size
        lift = recovered._lift(recovered.initial)
        assert lift.dtype == np.int64 and not lift.flags.writeable
        assert np.array_equal(lift, np.arange(len(recovered.initial_space)))
        spec = ExpansionSpec(diagram, fan, m)
        assert verify_expansion(diagram, expand_diagram(spec), spec).recovered_exactly
        assert all(s.frame._atoms is None for s in top.spaces.values())


def test_tagged_atoms_are_built_on_first_read_in_sample_order():
    _, _, ext, base = _roundtrip_state()
    run = contract_once(ext, ContractionParams(base.N, base.t, ext.rho, 5))
    x0 = run.fan_prime.top.spaces[ext.x0]
    assert len(x0) == base.N * ext.fiber_size and x0.frame._atoms is None
    u_atoms = ext.u_space.atoms
    pieces = [ext.conditioned_x_side(u_atoms[p]).spaces[ext.x0].atoms
              for p in run._u_pos.tolist()]
    want = tuple((a, k) for k, piece in enumerate(pieces, start=1) for a in piece)
    assert x0.atoms == want
