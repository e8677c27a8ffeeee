"""Time the phases of `contract_once` at the paper's regime scale.

    python3 tools/bench_contract.py [NAME=]CHECKOUT ... [--ops K] [--rounds R]

Each CHECKOUT (default: the repository this script sits in) runs in fresh
interpreters on its own src/, R rounds (default 3), the checkouts taking
turns within a round.  A run builds coord_two_fan(17, I=1..15, J=14..17)
(|x0| = 2^15, |u| = 16, default N = 4496), times one warm-up contraction
and then K more (default 30) at the run seeds subseed(1, "run", k).

The phases of an operation are timed by wrapping, for the length of the
run, what `contract_once` calls; a call inside an already timed phase
counts towards that phase only:
- sampling: `CategoricalSampler.draw_many`;
- xprime: building the conditioned x-side and the sample space V, that is
  every `ProbSpace` construction, `_from_initial_measure` and, where the
  checkout has it, `_conditioned_xprime`;
- fiber_iso: `ExtendedFan.fiber_isomorphic_to_reference`;
- counts: the rest of `contract_once`: counting, alpha, height, coverage.
`precompute` is the first read of each cached pattern table the checkout
has on a fresh extended fan (`fiber_patterns`, `_x_side_tables`).

Prints one JSON object: per checkout, the median over rounds of each
run's median milliseconds per phase; `moved`, each phase's change from the
first checkout to the last; and `layer_moved`, the phase that changed
most.  Uses the standard library and numpy only.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PHASES = ("sampling", "counts", "xprime", "fiber_iso")


def child(checkout: Path, ops: int) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    import numpy as np
    import probdiag
    from probdiag import contraction, fixtures, sampling, spaces

    if not Path(probdiag.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"probdiag imported from {probdiag.__file__}, not {checkout}")
    totals = dict.fromkeys(PHASES, 0.0)
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
             (spaces.ProbSpace, "__init__", "xprime"),
             (contraction, "_from_initial_measure", "xprime"),
             (contraction, "_conditioned_xprime", "xprime"),
             (contraction.ExtendedFan, "fiber_isomorphic_to_reference", "fiber_iso")]

    diagram, fan = fixtures.coord_two_fan(17, range(1, 16), range(14, 18))
    start = time.perf_counter()
    ext = contraction.extend_admissible_fan(diagram, fan)
    extend_ms = 1000 * (time.perf_counter() - start)

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
    for k in range(ops + 1):
        params = contraction.ContractionParams(base.N, base.t, ext.rho,
                                               sampling.subseed(1, "run", k))
        for phase in PHASES:
            totals[phase] = 0.0
        start = time.perf_counter()
        contraction.contract_once(ext, params)
        total = time.perf_counter() - start
        totals["counts"] = total - sum(totals[p] for p in PHASES if p != "counts")
        per_op.append({"total": total, **totals})
    first, rest = per_op[0], per_op[1:]
    return {
        "extend_ms": extend_ms,
        "precompute_ms": precompute,
        "first_op_ms": 1000 * first["total"],
        "op_ms": {key: 1000 * statistics.median(op[key] for op in rest)
                  for key in ("total", *PHASES)},
        "numpy": np.__version__,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(child(Path(argv[1]).resolve(), int(argv[2]))))
        return 0
    ops, rounds, named = 30, 3, []
    args = iter(argv)
    for arg in args:
        if arg in ("--ops", "--rounds"):
            value = int(next(args))
            ops, rounds = (value, rounds) if arg == "--ops" else (ops, value)
        else:
            name, _, path = arg.rpartition("=")
            named.append((name or path, Path(path).resolve()))
    if not named:
        root = Path(__file__).resolve().parent.parent
        named = [("checkout", root)]
    runs: dict = {name: [] for name, _ in named}
    for _ in range(rounds):
        for name, checkout in named:
            done = subprocess.run([sys.executable, __file__, "--child", str(checkout), str(ops)],
                                  capture_output=True, text=True)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                return 1
            runs[name].append(json.loads(done.stdout))
    results = {}
    for name, rs in runs.items():
        results[name] = {
            "extend_ms": statistics.median(r["extend_ms"] for r in rs),
            "precompute_ms": {key: statistics.median(r["precompute_ms"][key] for r in rs)
                              for key in rs[0]["precompute_ms"]},
            "first_op_ms": statistics.median(r["first_op_ms"] for r in rs),
            "op_ms": {key: statistics.median(r["op_ms"][key] for r in rs)
                      for key in rs[0]["op_ms"]},
        }
    first, last = results[named[0][0]], results[named[-1][0]]
    moved = {key: {"from_ms": first["op_ms"][key], "to_ms": last["op_ms"][key],
                   "delta_ms": last["op_ms"][key] - first["op_ms"][key]}
             for key in ("total", *PHASES)}
    report = {
        "bench": "contract_once phases at |x0| = 2^15, N = 4496",
        "command": " ".join(["python3 tools/bench_contract.py",
                             *(f"{name}=<{name}>" for name, _ in named),
                             f"--ops {ops} --rounds {rounds}"]),
        "ops_per_run": ops,
        "rounds": rounds,
        "python": platform.python_version(),
        "numpy": runs[named[0][0]][0]["numpy"],
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "results": results,
        "moved": moved,
        "layer_moved": max(PHASES, key=lambda key: abs(moved[key]["delta_ms"])),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
