"""The trust boundary.

Internal builders construct their diagrams, maps and fans unchecked; here
`oracles.recheck` rebuilds each of their outputs through the public checked
constructors, and a counting test pins that the constructions derived from
valid objects call no checked constructor at all.  Every public entry must
reject a map that does not preserve measure and a square that does not
commute.  The benchmark's tracer must still find every entry point it
wraps."""
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import oracles
from conftest import (
    random_category,
    random_diagram,
    random_distribution,
    random_set_diagram,
    random_surjection,
)
from probdiag import (
    ContractionParams,
    Diagram,
    DistributionOnSetDiagram,
    FanOfDiagrams,
    ProbSpace,
    Reduction,
    SetDiagram,
    arrow_collapse,
    collapse_object_pair,
    condition_diagram,
    cone_diagram,
    constant_diagram,
    contract_once,
    default_parameters,
    diagonal_fan,
    expand_diagram,
    extend_admissible_fan,
    ikd_bounds,
    joint_space,
    local_estimate_witness,
    make_diagram,
    min_entropy_coupling,
    recover_collapsed_diagram,
    standard_category,
    strip_expansion,
    tensor_diagrams,
    tensor_fan,
    verify_expansion,
)
from probdiag import contraction, diagrams, distances, jsonio
from probdiag.cli import main
from probdiag.distances import single_space_diagram
from probdiag.errors import DuplicateAtomError, ProbdiagError, QuotientError
from probdiag.expansion import ExpansionSpec
from probdiag.fixtures import coord_lambda3, coord_two_fan, reduced_lambda3, reduced_two_fan
from probdiag.sampling import subseed
from probdiag.spaces import LAMBDA_HEAVY, LAMBDA_LIGHT

ROOT = Path(__file__).resolve().parent.parent


def recheck_reduction(red: Reduction) -> None:
    assert list(red.mapping) == list(red.domain.atoms)
    Reduction(red.domain, red.target, red.mapping)


def recheck_extended(ext) -> None:
    """The extended fan's y-diagram with its projections onto the x-side and
    onto the constant diagram on u, its fibers as read off the y-diagram's
    initial space, and every conditioned x-side slice."""
    oracles.recheck(ext.xdiag)
    oracles.recheck(ext.ydiag)
    u_diagram = constant_diagram(ext.shape, ext.u_space)

    def projections(foot, k):
        return {o: Reduction(s, foot.spaces[o], {p: p[k] for p in s.atoms})
                for o, s in ext.ydiag.spaces.items()}

    oracles.recheck(FanOfDiagrams(ext.ydiag, ext.xdiag, u_diagram,
                                  projections(ext.xdiag, 0), projections(u_diagram, 1)))
    fibers = {u: [] for u in ext.u_space.atoms}
    for x, u in ext.ydiag.initial_space.atoms:
        fibers[u].append(x)
    assert ext.fibers == {u: tuple(xs) for u, xs in fibers.items()}
    for u in ext.u_space.atoms:
        oracles.recheck(ext.conditioned_x_side(u))


def recheck_run(run) -> None:
    oracles.recheck(run.xprime)
    if run.fan_prime is not None:
        oracles.recheck(run.fan_prime)


def recheck_estimate(est) -> None:
    oracles.recheck(est.witness.fan)
    if est.lambda_fans is None:
        return
    for fan in est.lambda_fans:
        oracles.recheck(fan)
        for mark in (LAMBDA_LIGHT, LAMBDA_HEAVY):
            if any(p[1] == mark for p in fan.top.initial_space.atoms):
                oracles.recheck(distances._condition_on_mark(fan.top, mark))


# -- the oracle on every unchecked builder ---------------------------------


def test_recheck_random_diagram_builders():
    rng = random.Random(606)
    for _ in range(40):
        d = random_diagram(rng)
        other = random_diagram(rng, d.category)
        oracles.recheck(d)
        for obj in d.category.objects:
            for atom in d.spaces[obj].atoms:
                oracles.recheck(condition_diagram(d, obj, atom))
            oracles.recheck(cone_diagram(d, obj, "descendants"))
            oracles.recheck(cone_diagram(d, obj, "ancestors"))
            for _, to_i, to_j in (joint_space(d, d.initial, obj), joint_space(d, obj, obj)):
                recheck_reduction(to_i)
                recheck_reduction(to_j)
            for dst in d.category.descendants(obj):
                recheck_reduction(d.composite_reduction(obj, dst))
        oracles.recheck(constant_diagram(d.category, d.initial_space))
        oracles.recheck(tensor_diagrams(d, other))
        oracles.recheck(diagonal_fan(d))
        oracles.recheck(tensor_fan(d, other))
        oracles.recheck(ikd_bounds(d, other).witness.fan)
        sd = SetDiagram.from_diagram(d)
        pi = dict(d.initial_space.items())
        pi_prime = random_distribution(rng, d.initial_space.atoms)
        recheck_estimate(local_estimate_witness(sd, pi, pi_prime))


def test_recheck_random_set_diagram_builders():
    rng = random.Random(607)
    for _ in range(40):
        sd = random_set_diagram(rng)
        pi = random_distribution(rng, sd.initial_set())
        pi_prime = random_distribution(rng, sd.initial_set())
        oracles.recheck(DistributionOnSetDiagram(sd, pi).to_diagram())
        recheck_estimate(local_estimate_witness(sd, pi, pi_prime))


def test_recheck_single_space_couplings():
    rng = random.Random(608)
    for _ in range(20):
        x = _random_space(rng, "x", 3)
        y = _random_space(rng, "y", 4)
        oracles.recheck(min_entropy_coupling(x, y).fan)
        oracles.recheck(min_entropy_coupling(x, y, cap=4).fan)  # the greedy path


def _random_space(rng, prefix, size):
    masses = [rng.randint(1, 9) for _ in range(size)]
    return ProbSpace([f"{prefix}{i}" for i in range(size)], masses, denom=sum(masses))


@pytest.mark.parametrize("build", [
    lambda: coord_two_fan(6, range(1, 5), range(3, 7)),
    lambda: coord_lambda3(),
    lambda: reduced_two_fan(4, (3, 4)),
    lambda: reduced_lambda3(2, 5, (4, 5)),
], ids=["coord_two_fan", "coord_lambda3", "reduced_two_fan", "reduced_lambda3"])
def test_recheck_fixture_builders(build):
    diagram, fan = build()
    oracles.recheck(diagram)
    ext = extend_admissible_fan(diagram, fan)
    recheck_extended(ext)
    params = ContractionParams(N=40, t=0.5, rho=ext.rho, seed=3)
    run = contract_once(ext, params)
    recheck_run(run)
    oracles.recheck(recover_collapsed_diagram(diagram, fan, run))


@pytest.mark.parametrize("root", [1, 42])
def test_recheck_loaded_roundtrip(root, tmp_path):
    """contract -> recover -> expand on reduced_lambda3(3, 7, 6..7) reloaded
    from JSON (so without a coordinate certificate), at the default N."""
    diagram, fan = reduced_lambda3(3, 7, range(6, 8))
    path = tmp_path / "lambda3.json"
    jsonio.save_diagram(diagram, path)
    loaded = jsonio.load_diagram(path)
    ext = extend_admissible_fan(loaded, fan)
    recheck_extended(ext)
    base = default_parameters(ext, seed=0)
    for k, m in enumerate((2, 3, 4)):
        params = ContractionParams(N=base.N, t=base.t, rho=ext.rho,
                                   seed=subseed(root, "run", k))
        run = contract_once(ext, params)
        assert run.fan_prime is not None
        recheck_run(run)
        oracles.recheck(recover_collapsed_diagram(loaded, fan, run))
        spec = ExpansionSpec(loaded, fan, m)
        expanded = expand_diagram(spec)
        oracles.recheck(expanded)
        oracles.recheck(strip_expansion(expanded, spec))
        assert verify_expansion(loaded, expanded, spec).recovered_exactly


def _shuffled_json_copy(diagram: Diagram, seed: int) -> Diagram:
    """The diagram saved as JSON with every space's atoms listed in a
    shuffled order, and loaded again."""
    obj = jsonio.diagram_to_obj(diagram)
    rng = random.Random(seed)
    for space in obj["spaces"].values():
        order = list(range(len(space["atoms"])))
        rng.shuffle(order)
        for key in ("atoms", "weights"):
            space[key] = [space[key][k] for k in order]
    return jsonio.diagram_from_obj(json.loads(json.dumps(obj)))


REDUCED = {
    "reduced_two_fan": lambda: reduced_two_fan(4, (3, 4)),
    "reduced_lambda3": lambda: reduced_lambda3(2, 5, (4, 5)),
    "reduced_lambda3_wide": lambda: reduced_lambda3(3, 7, range(6, 8)),
}


@pytest.mark.parametrize("name", REDUCED)
def test_recheck_arrow_collapse(name):
    """Every isomorphism cover collapsed, on the fixture and on a JSON-loaded
    copy with shuffled atoms, and on random diagrams."""
    diagram, _ = REDUCED[name]()
    rng = random.Random(611)
    inputs = [diagram, _shuffled_json_copy(diagram, 5)] + [random_diagram(rng) for _ in range(60)]
    collapsed = 0
    for d in inputs:
        for cover in d.category.covers:
            if not d.prime_maps[cover].is_isomorphism():
                continue
            try:
                out = arrow_collapse(d, cover)
            except QuotientError:
                continue
            oracles.recheck(out)
            collapsed += 1
    assert collapsed >= 2


def test_collapse_object_pair_matches_brute_quotient():
    """On every cover of seeded random shapes, and of named shapes where
    some collapses break the least-common-ancestor property."""
    rng = random.Random(610)
    shapes = [random_category(rng, 6) for _ in range(200)]
    shapes += [standard_category("diamond"), standard_category("full_lambda", 3),
               coord_lambda3()[0].category]
    for cat in shapes:
        for (i, j) in cat.covers:
            expected = oracles.brute_collapse(cat.objects, cat.covers, i, j)
            if expected is None:
                with pytest.raises(QuotientError):
                    collapse_object_pair(cat, i, j)
                continue
            quotient, mapping = collapse_object_pair(cat, i, j)
            assert (set(quotient.objects), set(quotient.covers)) == expected
            assert mapping == {o: (j if o == i else o) for o in cat.objects}


# -- checks run once, where data enters ------------------------------------


@pytest.fixture
def checked_calls(monkeypatch):
    """The name of every call of a checked constructor or of `coupling_fan`,
    wherever the package binds it."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner in (Reduction, Diagram, SetDiagram):
        monkeypatch.setattr(owner, "__init__", counted(owner.__name__, owner.__init__))
    coupling = diagrams.coupling_fan
    for name, module in list(sys.modules.items()):
        if name.startswith("probdiag") and getattr(module, "coupling_fan", None) is coupling:
            monkeypatch.setattr(module, "coupling_fan", counted("coupling_fan", coupling))
    return calls


def _same_skeleton_pair(rng):
    """A random diagram and one on its skeleton under another initial
    measure, positive on every atom."""
    d = random_diagram(rng)
    other = _random_space(rng, "", len(d.initial_space))
    pi = dict(zip(d.initial_space.atoms, other.weights))
    return d, DistributionOnSetDiagram(SetDiagram.from_diagram(d), pi).to_diagram()


def test_derived_constructions_make_no_checked_call(checked_calls):
    rng = random.Random(609)
    pairs = []
    for _ in range(10):
        d = random_diagram(rng)
        pairs.append((d, random_diagram(rng, d.category)))
        pairs.append(_same_skeleton_pair(rng))
        for size in (3, 6):  # within the exact cap, then beyond it
            pairs.append((single_space_diagram(_random_space(rng, "x", size)),
                          single_space_diagram(_random_space(rng, "y", size + 1))))
    fixtures = [REDUCED[name]() for name in ("reduced_two_fan", "reduced_lambda3")]
    fixtures += [(_shuffled_json_copy(d, 7), fan) for d, fan in fixtures]
    domain = _random_space(rng, "a", 6)
    mapping = random_surjection(rng, domain.atoms, 3)
    checked_calls.clear()

    methods = set()
    for left, right in pairs:
        methods.add(ikd_bounds(left, right).witness.method)
        tensor_fan(left, right)
        tensor_diagrams(left, right)
        x, y = left.initial_space, right.initial_space
        methods.add(min_entropy_coupling(x, y).method)
        methods.add(min_entropy_coupling(x, y, cap=0).method)
    for diagram, fan in fixtures:
        for m in (2, 3):
            spec = ExpansionSpec(diagram, fan, m)
            strip_expansion(expand_diagram(spec), spec)
        for cover in diagram.category.covers:
            if diagram.prime_maps[cover].is_isomorphism():
                try:
                    arrow_collapse(diagram, cover)
                except QuotientError:
                    pass
    Reduction.from_map(domain, mapping, target_atoms=["t0", "t1", "t2"])
    assert checked_calls == []
    assert {"common-rest mixture", "vertex-enumeration", "greedy", "tensor"} <= methods


def test_recovery_checks_its_result_once(checked_calls):
    diagram, fan = reduced_lambda3(2, 5, (4, 5))
    ext = extend_admissible_fan(diagram, fan)
    run = contract_once(ext, ContractionParams(N=40, t=0.5, rho=ext.rho, seed=3))
    checked_calls.clear()
    recover_collapsed_diagram(diagram, fan, run)
    assert checked_calls == ["Diagram"]


# -- every public entry rejects bad maps and squares -----------------------

DIAMOND = standard_category("diamond")


def _diamond(defect: str | None = None):
    """Spaces and map dicts of a uniform diamond; `measure` makes top->left
    fail to preserve measure, `square` makes the two paths to bottom
    disagree (every map still preserving measure)."""
    half = [1, 1]
    spaces = {"top": ProbSpace([0, 1, 2, 3], [1] * 4, denom=4),
              "left": ProbSpace(["l0", "l1"], half, denom=2),
              "right": ProbSpace(["r0", "r1"], half, denom=2),
              "bottom": ProbSpace(["b0", "b1"], half, denom=2)}
    maps = {("top", "left"): {0: "l0", 1: "l0", 2: "l1", 3: "l1"},
            ("top", "right"): {0: "r0", 1: "r0", 2: "r1", 3: "r1"},
            ("left", "bottom"): {"l0": "b0", "l1": "b1"},
            ("right", "bottom"): {"r0": "b0", "r1": "b1"}}
    if defect == "measure":
        maps[("top", "left")] = {0: "l0", 1: "l1", 2: "l1", 3: "l1"}
    elif defect == "square":
        maps[("right", "bottom")] = {"r0": "b1", "r1": "b0"}
    return spaces, maps


def _diagram_obj(spaces, maps) -> dict:
    return {"category": jsonio.category_to_obj(DIAMOND),
            "spaces": {o: jsonio.space_to_obj(s) for o, s in spaces.items()},
            "maps": {f"{i}->{j}": {jsonio.atom_key(a): b for a, b in m.items()}
                     for (i, j), m in maps.items()}}


def _fan_projections(defect: str):
    """Projections of the good diamond onto itself: identities, except at
    the top, where `measure` merges two atoms and `square` swaps two atoms
    of different classes (measure-preserving but not natural)."""
    spaces, _ = _diamond()
    top_map = ({0: 0, 1: 1, 2: 2, 3: 2} if defect == "measure"
               else {0: 2, 1: 1, 2: 0, 3: 3})
    return {o: (top_map if o == "top" else {a: a for a in s.atoms})
            for o, s in spaces.items()}


def _via_reduction(defect):
    spaces, maps = _diamond(defect)
    Reduction(spaces["top"], spaces["left"], maps[("top", "left")])


def _via_from_map(defect):
    spaces, _ = _diamond()
    # declares two target atoms but sends all mass to one of them
    Reduction.from_map(spaces["top"], {a: "l0" for a in spaces["top"].atoms},
                       target_atoms=["l0", "l1"])


def _via_make_diagram(defect):
    make_diagram(DIAMOND, *_diamond(defect))


def _via_diagram(defect):
    spaces, maps = _diamond(defect)
    # a non-measure-preserving map reaches the constructor only as a checked
    # reduction onto its own pushforward, which differs from the declared space
    prime = {(i, j): Reduction.from_map(spaces[i], m) for (i, j), m in maps.items()}
    Diagram(DIAMOND, spaces, prime)


def _via_fan(defect):
    good = make_diagram(DIAMOND, *_diamond())
    projs = {o: Reduction.from_map(good.spaces[o], m)
             for o, m in _fan_projections(defect).items()}
    ident = {o: Reduction.identity(s) for o, s in good.spaces.items()}
    FanOfDiagrams(good, good, good, projs, ident)


def _via_diagram_from_obj(defect):
    jsonio.diagram_from_obj(json.loads(json.dumps(_diagram_obj(*_diamond(defect)))))


def _via_fan_from_obj(defect):
    good = _diagram_obj(*_diamond())
    ident = {o: {jsonio.atom_key(a): a for a in s.atoms} for o, s in _diamond()[0].items()}
    bad = {o: {jsonio.atom_key(a): b for a, b in m.items()}
           for o, m in _fan_projections(defect).items()}
    obj = {"top": good, "left": good, "right": good, "proj_left": bad, "proj_right": ident}
    jsonio.fan_from_obj(json.loads(json.dumps(obj)))


def _via_set_diagram(defect):
    spaces, maps = _diamond(defect)
    SetDiagram(DIAMOND, {o: s.atoms for o, s in spaces.items()}, maps)


ENTRIES = [
    (_via_reduction, ("measure",)),
    (_via_from_map, ("measure",)),
    (_via_make_diagram, ("measure", "square")),
    (_via_diagram, ("measure", "square")),
    (_via_fan, ("measure", "square")),
    (_via_diagram_from_obj, ("measure", "square")),
    (_via_fan_from_obj, ("measure", "square")),
    (_via_set_diagram, ("square",)),
]


@pytest.mark.parametrize("entry, defect", [
    pytest.param(entry, defect, id=f"{entry.__name__[5:]}-{defect}")
    for entry, defects in ENTRIES for defect in defects] + [
    pytest.param("cli", defect, id=f"cli_validate-{defect}") for defect in ("measure", "square")])
def test_public_entries_reject_bad_maps(entry, defect, tmp_path, capsys):
    if entry == "cli":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_diagram_obj(*_diamond(defect))))
        assert main(["validate", "--input", str(path)]) == 2
        assert "invalid" in capsys.readouterr().out
        return
    with pytest.raises(ProbdiagError):
        entry(defect)


@pytest.mark.parametrize("cover, mapping", [
    (("top", "left"), {0: "l0", 1: "l0", 2: "l1"}),
    (("top", "left"), {0: "l0", 1: "l0", 2: "l0", 3: "l0"}),
    (("left", "bottom"), {"l0": "b0", "l1": "bx"}),
], ids=["partial", "not-onto", "outside-target"])
def test_set_diagram_rejects_bad_maps(cover, mapping):
    spaces, maps = _diamond()
    maps[cover] = mapping
    with pytest.raises(ProbdiagError):
        SetDiagram(DIAMOND, {o: s.atoms for o, s in spaces.items()}, maps)


def test_set_diagram_rejects_a_set_listing_an_atom_twice():
    spaces, maps = _diamond()
    sets = {o: s.atoms for o, s in spaces.items()}
    sets["left"] += sets["left"][:1]
    with pytest.raises(DuplicateAtomError, match="'left' lists an atom twice"):
        SetDiagram(DIAMOND, sets, maps)


def test_good_diamond_passes_every_entry():
    spaces, maps = _diamond()
    good = make_diagram(DIAMOND, spaces, maps)
    assert jsonio.diagram_from_obj(_diagram_obj(spaces, maps)) == good
    ident = {o: Reduction.identity(s) for o, s in good.spaces.items()}
    FanOfDiagrams(good, good, good, ident, ident)
    SetDiagram(DIAMOND, {o: s.atoms for o, s in spaces.items()}, maps)


# -- the benchmark's tracer still resolves --------------------------------


def test_perfbench_tracer_entries_resolve():
    """perfbench/tracer.py wraps library functions and methods by name and
    reads Diagram._composites and ExtendedFan._fiber_iso_cache; installing
    it must find every entry, and a traced contraction must record them.
    The contraction reads positions only, so the composite atom map, a
    public view, is read here as a caller would, twice: once built, once
    from the cache; and it builds no diagram from an initial measure, so a
    diagram is conditioned here as a caller would."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = {}
    for kind, module, attr, _name, _hook in tracer_module.ENTRIES:
        owner = sys.modules[f"probdiag.{module}"]
        if kind == "method":
            originals[(module, attr)] = getattr(owner, attr[0]).__dict__[attr[1]]
        else:
            originals[(module, attr)] = getattr(owner, attr)

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for kind, module, attr, _name, _hook in tracer_module.ENTRIES:
            owner = sys.modules[f"probdiag.{module}"]
            current = (getattr(owner, attr[0]).__dict__[attr[1]] if kind == "method"
                       else getattr(owner, attr))
            assert getattr(current, "__wrapped__", None) is originals[(module, attr)]
        diagram, fan = coord_lambda3()
        ext = contraction.extend_admissible_fan(diagram, fan)
        run = contraction.contract_once(
            ext, ContractionParams(N=40, t=0.5, rho=ext.rho, seed=1))
        assert run.fan_prime is not None
        for _ in range(2):
            diagram.composite_mapping(diagram.initial, fan.x_obj)
        diagrams.condition_diagram(diagram, fan.u_obj, ext.u_space.atoms[0])
    finally:
        tracer.uninstall()
    for kind, module, attr, _name, _hook in tracer_module.ENTRIES:
        owner = sys.modules[f"probdiag.{module}"]
        current = (getattr(owner, attr[0]).__dict__[attr[1]] if kind == "method"
                   else getattr(owner, attr))
        assert current is originals[(module, attr)]
    spans = {record[0] for record in tracer.spans}
    assert {"diagrams.from_initial_measure", "contraction.materialize_fan",
            "contraction.fiber_iso", "diagrams.composite_mapping"} <= spans
    counters = tracer.counters
    assert counters["diagrams.composite_mapping.hits"] >= 1
    assert counters["diagrams.composite_mapping.misses"] >= 1
    assert counters["contraction.fiber_iso.hits"] + counters["contraction.fiber_iso.misses"] > 0
