"""Print one sha256 per fixed set of probdiag outputs of a checkout.

    python3 tools/output_digest.py [CHECKOUT]

CHECKOUT defaults to the repository this script sits in.  Each set runs in
a fresh interpreter on CHECKOUT's own src/, tests/ and perfbench/, so two
checkouts (a parent commit and a change) can be compared line by line:
equal digests mean byte-identical outputs.  Uses the standard library only.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

PRELUDE = """
import atexit, contextlib, io, json, random, shutil, tempfile
from pathlib import Path
from probdiag import jsonio
from probdiag.cli import main
tmp = Path(tempfile.mkdtemp())
atexit.register(shutil.rmtree, tmp)
def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    print(code, out.getvalue())
"""

SETS = {
    "sampling": """
from probdiag import ProbSpace, uniform
from probdiag.sampling import rng_for, sample_atoms
spaces = [uniform(3), uniform(1000),
          ProbSpace("abc", [1, 2 ** 39, 2 ** 39 + 6], denom=2 ** 40 + 7),
          ProbSpace("abc", [1, 2 ** 63, 2 ** 63 + 12], denom=2 ** 64 + 13)]
for k, space in enumerate(spaces):
    rng = rng_for(0, "sampling", k)
    print(space.denom, sample_atoms(space, rng, 500), rng.random())
""",
    "cli_contract": """
from probdiag.fixtures import coord_lambda3
cli("contract", "--seeds", 5, "--workers", 3)
jsonio.save_diagram(coord_lambda3()[0], tmp / "l3.json")
cli("contract", "--input", tmp / "l3.json", "--fan", "x,z,u", "--seeds", 3)
""",
    "cli_contract_partial": """
from probdiag import contraction
from probdiag.fixtures import coord_lambda3
cli("contract", "--N", 3, "--seeds", 5)
jsonio.save_diagram(coord_lambda3()[0], tmp / "l3.json")
cli("contract", "--input", tmp / "l3.json", "--fan", "x,z,u", "--N", 3, "--seeds", 5)
ext = contraction.extend_admissible_fan(*coord_lambda3())
for seed in range(10):
    run = contraction.contract_once(ext, contraction.ContractionParams(3, 0.5, ext.rho, seed))
    print(run.coverage, json.dumps(jsonio.diagram_to_obj(run.xprime)))
""",
    "cli_contract_regime": """
cli("contract", "--l", 17, "--I", "1..15", "--J", "14..17", "--seeds", 2)
""",
    "cli_expand": """
for fixture in ("two_fan", "lambda3"):
    cli("expand", "--fixture", fixture, "--output", tmp / "e.json")
    print((tmp / "e.json").read_text())
""",
    "cli_distance_validate": """
from probdiag import ProbSpace, build_category, make_diagram
from workloads import DistanceBounds
for k in range(12):
    inst = DistanceBounds().prepare({"seed": 7}, "run", k)
    cat = build_category(inst["objects"], inst["covers"])
    for s, side in enumerate(inst["sides"]):
        d = make_diagram(cat, {o: ProbSpace(*side[o]) for o in inst["objects"]}, inst["maps"])
        jsonio.save_diagram(d, tmp / f"{s}.json")
        cli("validate", "--input", tmp / f"{s}.json")
    cli("distance", "--input", tmp / "0.json", "--input2", tmp / "1.json")
""",
    "cli_config": """
from probdiag import ProbSpace, build_category, make_diagram
from probdiag.fixtures import coord_lambda3
from workloads import DistanceBounds
def from_config(**config):
    (tmp / "config.json").write_text(json.dumps(config))
    cli("--config", tmp / "config.json")
from_config(command="contract", seeds=5, workers=3)
jsonio.save_diagram(coord_lambda3()[0], tmp / "l3.json")
from_config(command="contract", input=str(tmp / "l3.json"), fan="x,z,u", seeds=3)
for fixture in ("two_fan", "lambda3"):
    from_config(command="expand", fixture=fixture, output=str(tmp / "e.json"))
    print((tmp / "e.json").read_text())
for k in range(12):
    inst = DistanceBounds().prepare({"seed": 7}, "run", k)
    cat = build_category(inst["objects"], inst["covers"])
    for s, side in enumerate(inst["sides"]):
        d = make_diagram(cat, {o: ProbSpace(*side[o]) for o in inst["objects"]}, inst["maps"])
        jsonio.save_diagram(d, tmp / f"{s}.json")
        from_config(command="validate", input=str(tmp / f"{s}.json"))
    from_config(command="distance", input=str(tmp / "0.json"), input2=str(tmp / "1.json"))
""",
    "arrow_collapse": """
from probdiag import arrow_collapse
from probdiag.fixtures import reduced_lambda3, reduced_two_fan
from conftest import random_diagram
def collapse_all(d):
    for cover in d.category.covers:
        try:
            print(json.dumps(jsonio.diagram_to_obj(arrow_collapse(d, cover))))
        except Exception as exc:
            print(type(exc).__name__, exc)
for d in (reduced_two_fan(4, range(3, 5))[0], reduced_lambda3(3, 7, range(6, 8))[0]):
    collapse_all(d)
    jsonio.save_diagram(d, tmp / "d.json")
    collapse_all(jsonio.load_diagram(tmp / "d.json"))
rng = random.Random(5)
for _ in range(400):
    collapse_all(random_diagram(rng))
""",
    "recover_partial": """
from probdiag import contraction
from probdiag.fixtures import coord_lambda3, reduced_lambda3
for name, (d, fan) in (("l3", coord_lambda3()), ("r3", reduced_lambda3(3, 7, range(6, 8)))):
    jsonio.save_diagram(d, tmp / f"{name}.json")
    loaded = jsonio.load_diagram(tmp / f"{name}.json")
    ext = contraction.extend_admissible_fan(loaded, fan)
    for n in (1, 3, 5):
        for seed in range(4):
            run = contraction.contract_once(ext, contraction.ContractionParams(n, 0.5, ext.rho, seed))
            recovered = contraction.recover_collapsed_diagram(loaded, fan, run)
            jsonio.save_diagram(recovered, tmp / "recovered.json")
            print(name, n, seed, run.coverage, (tmp / "recovered.json").read_text())
""",
    "roundtrip_loaded": """
from probdiag import contraction, expansion
from workloads import RoundtripLoaded
bench = RoundtripLoaded()
for seed in (1, 42):
    state = bench.setup(seed, tmp)
    for k in range(30):
        params, m = bench.prepare(state, "run", k)
        run = contraction.contract_once(state["ext"], params)
        d, fan = state["diagram"], state["fan"]
        for out in (contraction.recover_collapsed_diagram(d, fan, run),
                    expansion.expand_diagram(expansion.ExpansionSpec(d, fan, m))):
            print(json.dumps(jsonio.diagram_to_obj(out)))
""",
    "builders": """
from probdiag import (ProbSpace, arrow_collapse, build_category, ikd_bounds, make_diagram,
                      min_entropy_coupling, tensor_diagrams, tensor_fan)
from probdiag.expansion import ExpansionSpec, expand_diagram
from probdiag.fixtures import reduced_lambda3
from workloads import DistanceBounds
def show(obj):
    print(json.dumps(obj))
for k in range(12):
    inst = DistanceBounds().prepare({"seed": 7}, "run", k)
    cat = build_category(inst["objects"], inst["covers"])
    left, right = (make_diagram(cat, {o: ProbSpace(*side[o]) for o in inst["objects"]},
                                inst["maps"]) for side in inst["sides"])
    bounds = ikd_bounds(left, right)
    print(bounds.lower, bounds.upper, bounds.witness.method)
    show(jsonio.fan_to_obj(bounds.witness.fan))
    show(jsonio.fan_to_obj(tensor_fan(left, right)))
    show(jsonio.diagram_to_obj(tensor_diagrams(left, right)))
    for cap in (30, 0):  # exact up to 30 cells, then the greedy coupling
        coupling = min_entropy_coupling(left.initial_space, right.initial_space, cap=cap)
        print(coupling.method, coupling.kd_value)
        show(jsonio.fan_to_obj(coupling.fan))
# a JSON-loaded diagram whose atoms are listed in a shuffled order
diagram, fan = reduced_lambda3(3, 7, range(6, 8))
obj = jsonio.diagram_to_obj(diagram)
rng = random.Random(3)
for space in obj["spaces"].values():
    order = list(range(len(space["atoms"])))
    rng.shuffle(order)
    for key in ("atoms", "weights"):
        space[key] = [space[key][k] for k in order]
loaded = jsonio.diagram_from_obj(json.loads(json.dumps(obj)))
for m in (2, 3):
    show(jsonio.diagram_to_obj(expand_diagram(ExpansionSpec(loaded, fan, m))))
for cover in loaded.category.covers:
    try:
        show(jsonio.diagram_to_obj(arrow_collapse(loaded, cover)))
    except Exception as exc:
        print(type(exc).__name__, exc)
""",
    "conditioning": """
from probdiag import (DistributionOnSetDiagram, condition_diagram, contraction, joint_space,
                      local_estimate_witness)
from probdiag.diagrams import conditioned_slices
from probdiag.fixtures import coord_lambda3, reduced_lambda3
from conftest import random_diagram, random_distribution, random_set_diagram
def show(obj):
    print(json.dumps(obj))
rng = random.Random(11)
for _ in range(40):
    d = random_diagram(rng)
    for obj in d.category.objects:
        for atom in d.spaces[obj].atoms:
            show(jsonio.diagram_to_obj(condition_diagram(d, obj, atom)))
        for x in d.category.objects:
            for atom, piece in conditioned_slices(d, obj, d.category.descendants(x)):
                show([jsonio.encode_atom(atom), jsonio.diagram_to_obj(piece)])
        joint, to_i, to_j = joint_space(d, d.initial, obj)
        show([jsonio.space_to_obj(joint), list(to_i.positions), list(to_j.positions)])
for _ in range(40):
    sd = random_set_diagram(rng)
    pi, pi_prime = (random_distribution(rng, sd.initial_set()) for _ in range(2))
    dist = DistributionOnSetDiagram(sd, pi)
    show(jsonio.diagram_to_obj(dist.to_diagram()))
    show({o: [[jsonio.encode_atom(a), str(w)] for a, w in dist.marginal(o).items()]
          for o in sd.category.objects})
    est = local_estimate_witness(sd, pi, pi_prime)
    print(est.alpha, est.bound, est.slice_isos_ok, est.witness.method, est.witness.kd_value)
    show(jsonio.fan_to_obj(est.witness.fan))
    for fan in est.lambda_fans or ():
        show(jsonio.fan_to_obj(fan))
loaded = reduced_lambda3(3, 7, range(6, 8))
jsonio.save_diagram(loaded[0], tmp / "r3.json")
for d, fan in ((jsonio.load_diagram(tmp / "r3.json"), loaded[1]), coord_lambda3()):
    ext = contraction.extend_admissible_fan(d, fan)
    show(jsonio.diagram_to_obj(ext.ydiag))
    for u in ext.u_space.atoms:
        show(jsonio.diagram_to_obj(ext.conditioned_x_side(u)))
""",
    "reordered": """
from probdiag import (Diagram, FanOfDiagrams, ProbSpace, build_category, ikd_bounds,
                      joint_space, make_diagram, tensor_fan)
from probdiag.expansion import ExpansionSpec, expand_diagram, verify_expansion
from probdiag.fixtures import coord_two_fan, reduced_lambda3, reduced_two_fan
from workloads import DistanceBounds
def show(obj):
    print(json.dumps(obj))
def reversed_obj(obj):
    obj = json.loads(json.dumps(obj))
    for space in obj["spaces"].values():
        space["atoms"].reverse()
        space["weights"].reverse()
    return obj
def reversed_reload(d):
    return jsonio.diagram_from_obj(reversed_obj(jsonio.diagram_to_obj(d)))
def verdict(run):
    try:
        print(run())
    except Exception as exc:
        print(type(exc).__name__, exc)
# the expansion fixtures, saved, reloaded with every space's atoms reversed
for d, fan in (reduced_two_fan(4, range(3, 5)), reduced_lambda3(2, 4, (3, 4)),
               reduced_lambda3(3, 7, range(6, 8))):
    jsonio.save_diagram(d, tmp / "d.json")
    back = reversed_reload(jsonio.load_diagram(tmp / "d.json"))
    show(jsonio.diagram_to_obj(back))
    rekeyed = Diagram(d.category, d.spaces, back.prime_maps)
    show(jsonio.diagram_to_obj(rekeyed))
    print(rekeyed == d, back == d, d == back)
    for i in d.category.objects:
        for j in d.category.objects:
            joint, to_i, to_j = joint_space(back, i, j)
            show([jsonio.space_to_obj(joint), list(to_i.positions), list(to_j.positions)])
    bounds = ikd_bounds(d, back)
    print(bounds.lower, bounds.upper, bounds.witness.method)
    for m in (1, 2, 3):
        spec = ExpansionSpec(d, fan, m)
        out = expand_diagram(spec)
        for original, expanded in ((back, out), (d, reversed_reload(out)), (back, back)):
            verdict(lambda: verify_expansion(original, expanded, spec))
# a coupling fan, saved and reloaded reversed, and the original fan checked
# with the reloaded projections, whose spaces list their atoms in another
# order; their atom maps are printed as sorted pairs, since the checked fan
# keys them in its own spaces' order where the parent kept the given order
left, right = coord_two_fan(3, [1, 2], [2, 3])[0], coord_two_fan(3, [1], [1, 2, 3])[0]
fan = tensor_fan(left, right)
obj = json.loads(json.dumps(jsonio.fan_to_obj(fan)))
for key in ("top", "left", "right"):
    obj[key] = reversed_obj(obj[key])
loaded = jsonio.fan_from_obj(obj)
show(jsonio.fan_to_obj(loaded))
checked = FanOfDiagrams(fan.top, fan.left, fan.right, loaded.proj_left, loaded.proj_right)
for projs in (checked.proj_left, checked.proj_right):
    show({o: sorted([jsonio.atom_key(a), jsonio.encode_atom(b)] for a, b in r.mapping.items())
          for o, r in projs.items()})
bounds = ikd_bounds(loaded.left, loaded.right)
print(bounds.lower, bounds.upper, bounds.witness.method)
# pairs on one skeleton, one side reloaded reversed
for k in range(12):
    inst = DistanceBounds().prepare({"seed": 7}, "run", k)
    cat = build_category(inst["objects"], inst["covers"])
    first, second = (make_diagram(cat, {o: ProbSpace(*side[o]) for o in inst["objects"]},
                                  inst["maps"]) for side in inst["sides"])
    for a, b in ((first, reversed_reload(second)), (reversed_reload(first), first)):
        bounds = ikd_bounds(a, b)
        print(bounds.lower, bounds.upper, bounds.witness.method)
        show(jsonio.fan_to_obj(bounds.witness.fan))
""",
}


def _parser() -> argparse.ArgumentParser:
    summary, _usage, details = __doc__.split("\n\n", 2)
    parser = argparse.ArgumentParser(
        prog="tools/output_digest.py", description=f"{summary}\n\n{details}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent,
                        type=Path, metavar="CHECKOUT",
                        help="the checkout to digest (default: the repository this "
                             "script sits in)")
    return parser


def main(argv: list[str]) -> int:
    parser = _parser()
    checkout = parser.parse_args(argv).checkout
    root = checkout.resolve()
    if not (root / "src" / "probdiag").is_dir():
        parser.error(f"{str(checkout)!r} is not a checkout: it has no src/probdiag")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / sub) for sub in ("src", "tests", "perfbench")))
    for name, body in SETS.items():
        done = subprocess.run([sys.executable, "-c", PRELUDE + body], cwd=root, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            print(done.stderr, file=sys.stderr)
            return 1
        print(hashlib.sha256(done.stdout.encode()).hexdigest(), name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
