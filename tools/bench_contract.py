"""Time the phases of a contraction, per phase and per checkout.

    python3 tools/bench_contract.py [NAME=]CHECKOUT ... [--case CASE]
                                    [--ops K] [--rounds R]

Each CHECKOUT (default: the repository this script sits in) runs in fresh
interpreters on its own src/, --rounds R rounds (default 3), the checkouts
taking turns within a round.  A run times one warm-up operation and then
--ops K more (default 30) at the run seeds subseed(1, "run", k).  --case
CASE is one of:

regime (default): `contract_once` at the paper's regime scale, on
coord_two_fan(17, I=1..15, J=14..17) (|x0| = 2^15, |u| = 16, default
N = 4496), and then a read of the run's conditioned x-side `xprime`, which
builds it wherever the checkout does not build it inside `contract_once`.
Its phases are timed by wrapping, for the length of the run, what the op
calls; a call inside an already timed phase counts towards that phase
only:
- sampling: `CategoricalSampler.draw_many` and, where the checkout has
  it, `CategoricalSampler.draw_positions`;
- xprime: building the conditioned x-side and the sample space V, that is
  every `ProbSpace` construction (on given atoms or on a frame),
  `diagrams._from_initial_measure` and, where the checkout has it,
  `_conditioned_xprime`;
- fiber_iso: `ExtendedFan.fiber_isomorphic_to_reference`;
- counts: the rest of the op: counting, alpha, height, coverage.
`precompute` is the first read of each cached pattern table the checkout
has on a fresh extended fan (`fiber_patterns`, `_x_side_tables`).  The
set-up's phases (`setup_ms`) are timed directly, with `time.perf_counter`
around each:
- coordinate_diagram: building the fixture;
- extend_admissible_fan: extending its fan;
- fiber_iso: the first fiber-isomorphism verdict of each of the 16 u
  atoms, on a fresh extended fan;
- warmup_op: the run's first op, which reaches those 16 verdicts and the
  first read of the pattern tables.

roundtrip: the benchmark's `roundtrip_loaded` operation, on
reduced_lambda3(3, 7, U=6..7) saved and reloaded as JSON, at the default
N = 457 and with m = 2, 3, 4 in turn.  Its phases run one after another:
- contract: `contract_once`, less any time in `_materialize_fan`;
- materialize: `_materialize_fan`, wherever the checkout calls it (inside
  `contract_once`, or on the first read of `fan_prime`, read here right
  after the contraction);
- recover: `recover_collapsed_diagram`;
- classify: `classify_fan` of the recovered diagram;
- expand: `expand_diagram`;
- verify: `verify_expansion`.

Whatever the case, each timed operation also counts the cyclic garbage
collector's passes and times them, through `gc.callbacks`: `gc` is their
mean over the timed operations, passes and milliseconds per operation.  A
pass runs inside whichever phase allocated, so its time is part of the
phase times, not a phase of its own.

Each round also measures, in a fresh interpreter per
checkout, the memory of the regime set-up: building
coord_two_fan(17, I=1..15, J=14..17) and `extend_admissible_fan` on it,
under tracemalloc (`regime_setup_mb`: the peak, and what the diagram and
the extended fan still hold after it).

Prints one JSON object: per checkout, the median over rounds of each
run's median milliseconds per phase, of its mean collector passes and time
per operation and of the set-up memory; `spread_ms`, per checkout, each
phase's run-to-run spread (the largest run median less the smallest);
`moved`, each phase's change from the first checkout to the last, and the
collector's and the set-up memory's, and for the regime each set-up
phase's; `layer_moved`, the phase that changed most, and for the regime
`setup_layer_moved`, the set-up phase that changed most.  Uses the
standard library and numpy only.
"""
import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np


def _import_checkout(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import probdiag

    if not Path(probdiag.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"probdiag imported from {probdiag.__file__}, not {checkout}")


class _GcMeter:
    """The cyclic garbage collector's passes and their time since the
    last `take`, from `gc.callbacks`."""

    def __init__(self):
        self.passes, self.seconds, self._start = 0, 0.0, 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.passes += 1
            self.seconds += time.perf_counter() - self._start

    def take(self) -> dict:
        taken = {"gc_passes": self.passes, "gc": self.seconds}
        self.passes, self.seconds = 0, 0.0
        return taken


def _medians(per_op: list) -> dict:
    """The first op's total, the median over the rest of each phase, and
    the mean over the rest of the collector's passes and time."""
    timed = per_op[1:]
    return {"first_op_ms": 1000 * per_op[0]["total"],
            "op_ms": {key: 1000 * statistics.median(op[key] for op in timed)
                      for key in per_op[0] if not key.startswith("gc")},
            "gc": {"passes_per_op": statistics.mean(op["gc_passes"] for op in timed),
                   "ms_per_op": 1000 * statistics.mean(op["gc"] for op in timed)}}


def regime_child(checkout: Path, ops: int) -> dict:
    _import_checkout(checkout)
    from probdiag import contraction, diagrams, fixtures, sampling, spaces

    totals = dict.fromkeys(REGIME_PHASES, 0.0)
    active = []

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            active.append(phase)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[phase] += time.perf_counter() - start
                active.pop()
        return wrapper

    wraps = [(sampling.CategoricalSampler, "draw_many", "sampling"),
             (sampling.CategoricalSampler, "draw_positions", "sampling"),
             (spaces.ProbSpace, "__init__", "xprime"),
             (diagrams, "_from_initial_measure", "xprime"),
             (contraction, "_conditioned_xprime", "xprime"),
             (contraction.ExtendedFan, "fiber_isomorphic_to_reference", "fiber_iso")]

    setup = {}
    start = time.perf_counter()
    diagram, fan = fixtures.coord_two_fan(17, range(1, 16), range(14, 18))
    setup["coordinate_diagram"] = 1000 * (time.perf_counter() - start)
    start = time.perf_counter()
    ext = contraction.extend_admissible_fan(diagram, fan)
    setup["extend_admissible_fan"] = 1000 * (time.perf_counter() - start)
    fresh = contraction.extend_admissible_fan(diagram, fan)
    start = time.perf_counter()
    for u in fresh.u_space.atoms:
        fresh.fiber_isomorphic_to_reference(u)
    setup["fiber_iso"] = 1000 * (time.perf_counter() - start)

    precompute = {}
    fresh = contraction.extend_admissible_fan(diagram, fan)
    for name in ("fiber_patterns", "_x_side_tables"):
        if hasattr(contraction.ExtendedFan, name):
            start = time.perf_counter()
            getattr(fresh, name)
            precompute[name] = 1000 * (time.perf_counter() - start)

    for owner, attr, phase in wraps:
        if hasattr(owner, attr):
            setattr(owner, attr, timed(phase, getattr(owner, attr)))
    base = contraction.default_parameters(ext, seed=0)
    per_op = []
    meter = _GcMeter()
    for k in range(ops + 1):
        params = contraction.ContractionParams(base.N, base.t, ext.rho,
                                               sampling.subseed(1, "run", k))
        for phase in REGIME_PHASES:
            totals[phase] = 0.0
        meter.take()
        start = time.perf_counter()
        contraction.contract_once(ext, params).xprime
        total = time.perf_counter() - start
        totals["counts"] = total - sum(totals[p] for p in REGIME_PHASES if p != "counts")
        per_op.append({"total": total, **totals, **meter.take()})
    medians = _medians(per_op)
    setup["warmup_op"] = medians.pop("first_op_ms")
    return {"setup_ms": setup, "precompute_ms": precompute, **medians}


def roundtrip_child(checkout: Path, ops: int) -> dict:
    _import_checkout(checkout)
    from probdiag import contraction, expansion, fixtures, jsonio, sampling
    from probdiag.diagrams import classify_fan

    inside = {"materialize": 0.0}
    build = contraction._materialize_fan

    def materialize(*args):
        start = time.perf_counter()
        try:
            return build(*args)
        finally:
            inside["materialize"] += time.perf_counter() - start

    contraction._materialize_fan = materialize
    diagram, fan = fixtures.reduced_lambda3(3, 7, range(6, 8))
    with tempfile.TemporaryDirectory() as tmp:
        jsonio.save_diagram(diagram, Path(tmp) / "lambda3.json")
        diagram = jsonio.load_diagram(Path(tmp) / "lambda3.json")
    ext = contraction.extend_admissible_fan(diagram, fan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        base = contraction.default_parameters(ext, seed=0)
    per_op = []
    meter = _GcMeter()
    for k in range(ops + 1):
        params = contraction.ContractionParams(base.N, base.t, ext.rho,
                                               sampling.subseed(1, "run", k))
        spec = expansion.ExpansionSpec(diagram, fan, 2 + k % 3)
        inside["materialize"] = 0.0
        meter.take()
        marks = [time.perf_counter()]
        run = contraction.contract_once(ext, params)
        assert run.fan_prime is not None
        marks.append(time.perf_counter())
        recovered = contraction.recover_collapsed_diagram(diagram, fan, run)
        marks.append(time.perf_counter())
        assert classify_fan(recovered, fan).admissible
        marks.append(time.perf_counter())
        expanded = expansion.expand_diagram(spec)
        marks.append(time.perf_counter())
        assert expansion.verify_expansion(diagram, expanded, spec).recovered_exactly
        marks.append(time.perf_counter())
        spans = [b - a for a, b in zip(marks, marks[1:])]
        per_op.append({"total": marks[-1] - marks[0],
                       "contract": spans[0] - inside["materialize"],
                       "materialize": inside["materialize"],
                       **dict(zip(ROUNDTRIP_PHASES[2:], spans[1:])), **meter.take()})
    return _medians(per_op)


def memory_child(checkout: Path, ops: int) -> dict:
    _import_checkout(checkout)
    from probdiag import contraction, fixtures

    tracemalloc.start()
    diagram, fan = fixtures.coord_two_fan(17, range(1, 16), range(14, 18))
    ext = contraction.extend_admissible_fan(diagram, fan)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert ext.x0_card == 2 ** 15
    return {"peak": peak / 2 ** 20, "held": held / 2 ** 20}


REGIME_PHASES = ("sampling", "counts", "xprime", "fiber_iso")
ROUNDTRIP_PHASES = ("contract", "materialize", "recover", "classify", "expand", "verify")
CASES = {
    "regime": (regime_child, REGIME_PHASES,
               "contract_once and xprime phases at |x0| = 2^15, N = 4496"),
    "roundtrip": (roundtrip_child, ROUNDTRIP_PHASES,
                  "roundtrip_loaded phases on JSON-loaded reduced_lambda3(3, 7, 6..7), "
                  "N = 457"),
}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def _median_of_runs(runs: list):
    """The median over runs of every number, key by key; anything else is
    taken from the first run."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: _median_of_runs([r[key] for r in runs]) for key in first}
    if isinstance(first, (int, float)):
        return statistics.median(runs)
    return first


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    summary, _usage, details = __doc__.split("\n\n", 2)
    parser = argparse.ArgumentParser(
        prog="tools/bench_contract.py", description=f"{summary}\n\n{details}",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkouts", nargs="*", metavar="[NAME=]CHECKOUT",
                        help="a checkout to time, named NAME in the report "
                             "(default: the repository this script sits in)")
    parser.add_argument("--case", choices=sorted(CASES), default="regime",
                        help="what to time (default regime)")
    parser.add_argument("--ops", type=_positive_int, default=30,
                        help="timed operations per run, after one warm-up (default 30)")
    parser.add_argument("--rounds", type=_positive_int, default=3,
                        help="rounds, the checkouts taking turns in each (default 3)")
    return parser


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child = memory_child if argv[1] == "memory" else CASES[argv[1]][0]
        print(json.dumps(child(Path(argv[2]).resolve(), int(argv[3]))))
        return 0
    parser = _parser()
    args = parser.parse_args(argv)
    ops, rounds, case, named = args.ops, args.rounds, args.case, []
    for arg in args.checkouts:
        name, _, path = arg.rpartition("=")
        checkout = Path(path).resolve()
        if not (checkout / "src" / "probdiag").is_dir():
            parser.error(f"{path!r} is not a checkout: it has no src/probdiag")
        named.append((name or path, checkout))
    if not named:
        root = Path(__file__).resolve().parent.parent
        named = [("checkout", root)]
    _, phases, title = CASES[case]
    runs: dict = {name: [] for name, _ in named}
    for _ in range(rounds):
        for name, checkout in named:
            run = {}
            for child, key in ((case, None), ("memory", "regime_setup_mb")):
                done = subprocess.run([sys.executable, __file__, "--child", child,
                                       str(checkout), str(ops)], capture_output=True, text=True)
                if done.returncode:
                    print(done.stderr, file=sys.stderr)
                    return 1
                out = json.loads(done.stdout)
                run.update(out if key is None else {key: out})
            runs[name].append(run)
    results = {name: _median_of_runs(rs) for name, rs in runs.items()}
    first, last = results[named[0][0]], results[named[-1][0]]
    moved = {key: {"from_ms": first["op_ms"][key], "to_ms": last["op_ms"][key],
                   "delta_ms": last["op_ms"][key] - first["op_ms"][key]}
             for key in ("total", *phases)}
    moved["gc"] = {key: {"from": first["gc"][key], "to": last["gc"][key],
                         "delta": last["gc"][key] - first["gc"][key]}
                   for key in ("passes_per_op", "ms_per_op")}
    if "setup_ms" in first:
        moved["setup_ms"] = {
            key: {"from_ms": first["setup_ms"][key], "to_ms": last["setup_ms"][key],
                  "delta_ms": last["setup_ms"][key] - first["setup_ms"][key]}
            for key in first["setup_ms"]}
    moved["regime_setup_mb"] = {
        key: {"from_mb": first["regime_setup_mb"][key], "to_mb": last["regime_setup_mb"][key],
              "delta_mb": last["regime_setup_mb"][key] - first["regime_setup_mb"][key]}
        for key in ("peak", "held")}
    report = {
        "bench": title,
        "command": " ".join(["python3 tools/bench_contract.py",
                             *(f"{name}=<{name}>" for name, _ in named),
                             *(["--case", case] if case != "regime" else []),
                             f"--ops {ops} --rounds {rounds}"]),
        "ops_per_run": ops,
        "rounds": rounds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "results": results,
        "spread_ms": {name: {key: (max(r["op_ms"][key] for r in rs)
                                   - min(r["op_ms"][key] for r in rs))
                             for key in ("total", *phases)}
                      for name, rs in runs.items()},
        "moved": moved,
        "layer_moved": max(phases, key=lambda key: abs(moved[key]["delta_ms"])),
    }
    if "setup_ms" in moved:
        report["setup_layer_moved"] = max(
            moved["setup_ms"], key=lambda key: abs(moved["setup_ms"][key]["delta_ms"]))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
