"""Batch experiment runner: validation, entropies, distance bounds,
contraction and expansion experiments, tail-verification sweeps.

Every option is a flag or a config key, declared once in COMMANDS and
converted, range-checked and defaulted once, by its command's body.  Flags
left unset never override a --config file.  Any malformed input, a usage
error among them, exits 1.

Exit codes: 0 success, 1 input/config error, 2 verification failure.
Every output file records the tool version and the root seed; identical
config and seed give byte-identical output regardless of worker count."""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .contraction import (
    ContractionParams,
    contract_once,
    default_parameters,
    extend_admissible_fan,
    monte_carlo_tails,
    recover_collapsed_diagram,
)
from .diagrams import FanIndices, entropy_vector
from .distances import ikd_bounds
from .errors import ConfigError, ProbdiagError, TooLargeError
from .expansion import ExpansionSpec, expand_diagram, verify_expansion
from .fixtures import coord_lambda3, coord_two_fan, parse_coords, reduced_lambda3, reduced_two_fan
from .jsonio import diagram_to_obj, load_diagram, read_json
from .sampling import subseed
from .tropical_bounds import TropicalBoundParams, contraction_epsilons, min_n_for_epsilon

DEFAULT_TAIL_GRID = {
    "binomial_i": {"N": [50, 200, 1000], "rho": ["1/2", "1/4", "1/8"], "t": [0.3, 0.5, 0.8]},
    "binomial_ii": {"N": [50, 200, 1000], "rho": ["1/2", "1/4", "1/8"], "t": [0.5, 1.0, 1.5]},
}


def emit_results(rows: list[dict], fmt: str, path, *, seed) -> None:
    """Write rows with a stable column order and a version+seed header.

    fmt is "csv" or "json" (run_config checks it).  Fractions become
    "num/den" strings in JSON and decimals in CSV."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if fmt == "json":
        def convert(v):
            return str(v) if isinstance(v, Fraction) else v
        payload = {"version": __version__, "seed": seed,
                   "rows": [{k: convert(v) for k, v in r.items()} for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        def convert(v):
            if isinstance(v, Fraction):
                return repr(float(v))
            if isinstance(v, float):
                return repr(v)
            return v
        buffer = io.StringIO()
        buffer.write(f"# probdiag {__version__} seed={seed}\n")
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: convert(v) for k, v in row.items()})
        text = buffer.getvalue()
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _number(config: dict, key: str, kind, default=None):
    """config[key] as an int, float or Fraction (`kind`), or `default` when
    the key is absent or None.  Values of another type, non-integral ints
    among them, raise ConfigError naming the flag."""
    value = config.get(key)
    if value is None:
        return default
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = kind(str(value)) if kind is Fraction else kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        name = {int: "an integer", float: "a number", Fraction: "a rational"}[kind]
        raise ConfigError(f"{_flag(key)} must be {name}, got {value!r}") from None
    return number


def _positive(config: dict, key: str, kind, default=None):
    """`_number`, further required to be >= 1 (ints) or finite and > 0
    (floats) when given."""
    number = _number(config, key, kind, default)
    if number is not None and not (math.isfinite(number) and number > 0):
        rule = ">= 1" if kind is int else "a finite number > 0"
        raise ConfigError(f"{_flag(key)} must be {rule}, got {config[key]!r}")
    return number


def _coords(config: dict, key: str, default: str) -> tuple[int, ...]:
    """Coordinates of config[key] ("a..b" or "1,3,5"); ConfigError naming
    the flag when they do not parse."""
    try:
        return parse_coords(str(config.get(key, default)))
    except ValueError:
        raise ConfigError(f"{_flag(key)} must be a range a..b or a list like 1,3,5, "
                          f"got {config[key]!r}") from None
    except TooLargeError as exc:
        raise ConfigError(f"{_flag(key)}: {exc}") from None


def _fixture(config: dict):
    name = config.get("fixture", "coord")
    if name in ("coord", "two_fan"):
        ell = _number(config, "l", int, 6)
        left = _coords(config, "I", "1..4")
        right = _coords(config, "J", "3..6")
        return coord_two_fan(ell, left, right)
    if name == "lambda3":
        left = _coords(config, "I", "1,2")
        right = _coords(config, "J", "2,3")
        u = _coords(config, "U", "3,4,5")
        ell = _number(config, "l", int)
        return coord_lambda3(left, right, u, ell=ell)
    raise ConfigError(f"unknown fixture {name!r}")


def _load_input(config: dict):
    if "input" in config and config["input"]:
        diagram = load_diagram(config["input"])
        fan_text = config.get("fan")
        fan = None
        if fan_text:
            parts = [p.strip() for p in str(fan_text).split(",")]
            if len(parts) != 3:
                raise ConfigError("fan must be 'x,z,u'")
            fan = FanIndices(x_obj=parts[0], z_obj=parts[1], u_obj=parts[2])
        return diagram, fan
    return _fixture(config)


# -- subcommands ------------------------------------------------------------


def cmd_validate(config: dict) -> int:
    """Build the input diagram with every check.  Exit 0 when it is valid,
    1 when the input is malformed (unreadable JSON, a missing field, a map
    that skips an atom) and 2 when it is well-formed but fails validation,
    such as a map that does not preserve measure or paths that do not
    commute: a verification failure."""
    try:
        diagram, _ = _load_input(config)
    except ConfigError:
        raise  # malformed input: exit 1 like unreadable JSON
    except ProbdiagError as exc:
        print(f"invalid: {exc}")
        return 2
    sizes = {o: len(s) for o, s in diagram.spaces.items()}
    print(f"valid diagram: {len(diagram.category.objects)} objects, supports {sizes}")
    return 0


def cmd_entropy(config: dict) -> int:
    seed = _number(config, "seed", int, 0)
    diagram, _ = _load_input(config)
    vec = entropy_vector(diagram)
    rows = [{"object": o, "entropy_nats": h} for o, h in vec.items()]
    emit_results(rows, config.get("format", "csv"), config.get("output"), seed=seed)
    return 0


def cmd_distance(config: dict) -> int:
    if config.get("input") is None or config.get("input2") is None:
        raise ConfigError("distance needs --input and --input2")
    seed = _number(config, "seed", int, 0)
    left = load_diagram(config["input"])
    right = load_diagram(config["input2"])
    bounds = ikd_bounds(left, right)
    rows = [{"lower": bounds.lower, "upper": bounds.upper,
             "witness_method": bounds.witness.method, "witness_exact": bounds.witness.exact}]
    emit_results(rows, config.get("format", "csv"), config.get("output"), seed=seed)
    return 0


def _contract_row(index: int, run) -> dict:
    cap_run, cap_size = run.height_thresholds()
    cap_h, cap_g = run.ikd_caps()
    return {
        "run": index,
        "seed": run.params.seed,
        "N": run.params.N,
        "t": run.params.t,
        "rho": run.params.rho,
        "x0_card": run.x0_card,
        "sum_nu_ok": run.sum_nu == run.params.rho * run.x0_card,
        "mass_ok": run.total_mass == 1,
        "alpha": run.alpha,
        "height": run.height,
        "height_cap_run": cap_run,
        "height_cap_size": cap_size,
        "pass_height": run.height <= cap_run and run.height <= cap_size,
        "coverage": run.coverage,
        "fiber_iso_ok": run.fiber_iso_ok,
        "ikd_upper": run.ikd_upper,
        "ikd_cap_h": cap_h,
        "ikd_cap_g": cap_g,
        "pass_ikd": run.ikd_upper <= cap_h and run.ikd_upper <= cap_g,
    }


def cmd_contract(config: dict) -> int:
    n_runs = _positive(config, "seeds", int, 1)
    n_override = _positive(config, "N", int)
    t_override = _positive(config, "t", float)
    root_seed = _number(config, "seed", int, 0)
    # accepted and checked for older configs; runs are computed serially,
    # since threads would only take turns on the interpreter lock
    _number(config, "workers", int, 1)
    diagram, fan = _load_input(config)
    if fan is None:
        raise ConfigError("contract needs a designated fan")
    ext = extend_admissible_fan(diagram, fan)
    if n_override is None or t_override is None:
        base = default_parameters(ext, seed=0)
        n_override = base.N if n_override is None else n_override
        t_override = base.t if t_override is None else t_override

    rows = []
    for index in range(n_runs):
        params = ContractionParams(N=n_override, t=t_override, rho=ext.rho,
                                   seed=subseed(root_seed, "run", index))
        rows.append(_contract_row(index, contract_once(ext, params)))
    emit_results(rows, config.get("format", "csv"), config.get("output"), seed=root_seed)
    ok = all(r["sum_nu_ok"] and r["mass_ok"] and r["fiber_iso_ok"] for r in rows)
    return 0 if ok else 2


def cmd_expand(config: dict) -> int:
    name = config.get("fixture", "two_fan")
    ell = _number(config, "l", int, 4)
    u_coords = _coords(config, "J", "3..4")
    if name == "two_fan":
        diagram, fan = reduced_two_fan(ell, u_coords)
    elif name == "lambda3":
        split = _number(config, "split", int, ell // 2)
        diagram, fan = reduced_lambda3(split, ell, u_coords)
    else:
        raise ConfigError(f"unknown expand fixture {name!r}")
    m = _number(config, "m", int, 2)
    spec = ExpansionSpec(diagram, fan, m)
    expanded = expand_diagram(spec)
    try:
        report = verify_expansion(diagram, expanded, spec)
    except ProbdiagError as exc:
        print(f"expansion verification failed: {exc}")
        return 2
    print(f"expansion m={m}: arrow entropy {report.arrow_entropy_before:.6f} -> "
          f"{report.arrow_entropy_after:.6f} (added ln m = {report.added:.6f}); "
          f"recovered exactly: {report.recovered_exactly}")
    if config.get("output"):
        Path(config["output"]).write_text(
            json.dumps(diagram_to_obj(expanded), indent=2) + "\n")
    return 0


def cmd_tails(config: dict) -> int:
    if config.get("grid") not in (None, "default"):
        raise ConfigError(f"--grid must be default, got {config['grid']!r}")
    seed = _number(config, "seed", int, 0)
    trials = _number(config, "trials", int, 10000)
    checks = []
    if config.get("kind"):
        missing = [f"--{k}" for k in ("t", "N", "rho") if config.get(k) is None]
        if missing:
            raise ConfigError(f"--kind needs --t, --N and --rho; missing {', '.join(missing)}")
        checks.append(monte_carlo_tails(
            config["kind"], t=_positive(config, "t", float), trials=trials, seed=seed,
            n=_positive(config, "N", int), rho=_number(config, "rho", Fraction)))
    else:
        grid = DEFAULT_TAIL_GRID
        for kind, axes in grid.items():
            for n in axes["N"]:
                for rho in axes["rho"]:
                    for t in axes["t"]:
                        checks.append(monte_carlo_tails(
                            kind, t=t, trials=trials, seed=seed,
                            n=n, rho=Fraction(rho)))
    rows = [{"kind": c.kind, "N": c.N, "rho": c.rho, "t": c.t, "trials": c.trials,
             "empirical": c.empirical, "bound": c.bound, "slack": c.slack,
             "pass": c.passed} for c in checks]
    emit_results(rows, config.get("format", "csv"), config.get("output"), seed=seed)
    return 0 if all(c.passed for c in checks) else 2


def cmd_sweep(config: dict, running: tuple = ()) -> int:
    """Run each step of the sweep file; `running` holds (real path, path as
    given) of each sweep file this one runs inside, outermost first."""
    path = config.get("config")
    if not path:
        raise ConfigError("sweep needs a config file")
    real = os.path.realpath(path)
    paths = [r for r, _ in running]
    if real in paths:
        cycle = [given for _, given in running[paths.index(real):]] + [path]
        raise ConfigError(f"sweep cycle: {' -> '.join(cycle)}")
    steps = read_json(path)
    if not isinstance(steps, list):
        raise ConfigError("sweep config must be a list of command objects")
    running += ((real, path),)
    worst = 0
    for step in steps:
        if not isinstance(step, dict) or "command" not in step:
            raise ConfigError("each sweep step needs a 'command'")
        body = _checked_body(step)
        worst = max(worst, cmd_sweep(step, running) if body is cmd_sweep else body(step))
    return worst


def cmd_epsilons(config: dict) -> int:
    params = TropicalBoundParams(
        c=_number(config, "C", float, 1.0), d_phi=_number(config, "D_phi", float, 1.0),
        size_g=_number(config, "size_g", int, 3), log_card=_number(config, "log_card", float, 1.0))
    n = _number(config, "n", int)
    target = _number(config, "target", float)
    seed = _number(config, "seed", int, 0)
    rows = []
    if n is not None:
        schedule = contraction_epsilons(params, n)
        rows.append({"n": n, "eps_conditional": schedule.conditional,
                     "eps_x": schedule.x_side, "eps_height": schedule.height})
    if target is not None:
        rows.append({"target": target, "min_n": min_n_for_epsilon(params, target)})
    if not rows:
        raise ConfigError("epsilons needs n and/or target")
    print("schedule constants are exploration defaults, not normative values")
    emit_results(rows, config.get("format", "csv"), config.get("output"), seed=seed)
    return 0


def cmd_demo(config: dict) -> int:
    seed = _number(config, "seed", int, 0)
    out_dir = Path(config["output"]) if config.get("output") else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    print("== three-feet pipeline ==")
    diagram, fan = coord_lambda3()
    ext = extend_admissible_fan(diagram, fan)
    params = default_parameters(ext, seed=subseed(seed, "demo-lambda3", 0))
    run = contract_once(ext, params)
    recovered = recover_collapsed_diagram(diagram, fan, run)
    print(f"fan (x <- z -> u): |x0|={ext.x0_card}, rho={ext.rho}, "
          f"N={params.N}, coverage={run.coverage}")
    before = entropy_vector(diagram)
    after = entropy_vector(recovered)
    for obj in diagram.category.objects:
        print(f"  {obj:>3}: H={before[obj]:8.5f} -> H'={after[obj]:8.5f}")
    print(f"  arrow defect [y'0 | x'0] = {run.height:.5f} "
          f"(<= 4 ln ln|x0| = {run.height_thresholds()[1]:.5f})")

    print("== broken diamond narrative ==")
    diagram2, fan2 = coord_two_fan(8, range(1, 7), range(5, 9))
    ext2 = extend_admissible_fan(diagram2, fan2)
    params2 = default_parameters(ext2, seed=subseed(seed, "demo-diamond", 0))
    run2 = contract_once(ext2, params2)
    recovered2 = recover_collapsed_diagram(diagram2, fan2, run2)
    mutual = -math.log(float(ext2.rho))
    log_n = math.log(params2.N)
    print(f"mutual information of the feet: {mutual:.5f}")
    print(f"[V] = ln N = {log_n:.5f} "
          f"= mutual + 3 ln ln|x0| + o(1) (excess {log_n - mutual:.5f})")
    print(f"contracted fan arrow defect: {run2.height:.5f}; after normalizing by "
          "tensor powers the defect is what vanishes in the limit")
    print(f"recovered shape: {list(recovered2.category.objects)} with "
          f"H(V) = {recovered2.spaces[fan2.u_obj].entropy:.5f}")
    if out_dir:
        from .jsonio import save_diagram
        save_diagram(recovered, out_dir / "lambda3_contracted.json")
        save_diagram(recovered2, out_dir / "two_fan_contracted.json")
        print(f"wrote artifacts to {out_dir}")
    ok = run.fiber_iso_ok and run2.fiber_iso_ok
    return 0 if ok else 2


_INPUT_KEYS = {
    "input": "diagram JSON file, in place of a fixture",
    "fixture": "coord (default), two_fan or lambda3",
    "l": "bit coordinates of the top space",
    "I": "left-foot coordinates, a range a..b or a list like 1,3,5",
    "J": "right-foot coordinates",
    "U": "third-foot coordinates (lambda3)",
}
_OUTPUT_KEYS = {
    "output": "output path (default stdout)",
    "format": "csv (default) or json",
    "seed": "root seed (default 0)",
}

# command -> (body, help, {config key: help}).  Each key is both a config
# entry and the flag _flag(key), and only these keys are accepted; the body
# converts, range-checks and defaults every value, from a flag or a file.
COMMANDS = {
    "validate": (cmd_validate, "validate a diagram file or fixture", _INPUT_KEYS),
    "entropy": (cmd_entropy, "entropy vector of a diagram", {**_INPUT_KEYS, **_OUTPUT_KEYS}),
    "distance": (cmd_distance, "certified distance bounds between two diagrams", {
        "input": "first diagram JSON file",
        "input2": "second diagram JSON file",
        **_OUTPUT_KEYS}),
    "contract": (cmd_contract, "sampled arrow-contraction runs", {
        **_INPUT_KEYS,
        "fan": "x,z,u object ids for a loaded diagram",
        "N": "sample size (default: from the fan)",
        "t": "threshold (default: from the fan)",
        "seeds": "number of independent runs (default 1)",
        "workers": "accepted for older configs; runs are computed serially",
        **_OUTPUT_KEYS}),
    "expand": (cmd_expand, "arrow expansion with verification", {
        "fixture": "two_fan (default) or lambda3",
        "l": "bit coordinates of the top space (default 4)",
        "split": "lambda3: x1 takes coordinates 1..split (default l // 2)",
        "J": "coordinates of the reduced foot (default 3..4)",
        "m": "expansion factor (default 2)",
        **_OUTPUT_KEYS}),
    "tails": (cmd_tails, "Monte-Carlo tail checks against analytic bounds", {
        "grid": "default: the built-in grid, run when --kind is absent",
        "kind": "one cell of this kind, such as binomial_i or binomial_ii",
        "N": "sample size of the cell",
        "rho": "rational rate of the cell",
        "t": "threshold of the cell",
        "trials": "Monte-Carlo trials per cell (default 10000)",
        **_OUTPUT_KEYS}),
    "sweep": (cmd_sweep, "run a list of configured commands", {
        "config": "JSON file holding a list of command objects"}),
    "epsilons": (cmd_epsilons, "error schedule for the limiting argument", {
        "C": "approximation constant (default 1)",
        "D_phi": "sub-additivity constant (default 1)",
        "size_g": "objects of the ambient shape (default 3)",
        "log_card": "growth of the log-cardinality per step (default 1)",
        "n": "block length to evaluate the schedule at",
        "target": "error target to find the least block length for",
        **_OUTPUT_KEYS}),
    "demo": (cmd_demo, "worked contraction narratives on fixtures", {
        "seed": "root seed (default 0)",
        "output": "directory for the contracted diagrams"}),
}


# config entries that name a file: the input diagrams, a sweep's steps and
# the output
PATH_KEYS = ("input", "input2", "config", "output")


def run_config(config: dict) -> int:
    """Run one command object after checking its keys against COMMANDS, its
    path entries and its output format."""
    return _checked_body(config)(config)


def _checked_body(config: dict):
    """The body of a command object, once its keys, path entries and output
    format pass the checks."""
    command = config.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    body, _, keys = COMMANDS[command]
    unknown = set(config) - set(keys) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in PATH_KEYS:
        value = config.get(key)
        if value is not None and not (isinstance(value, str) and "\0" not in value):
            raise ConfigError(f"{_flag(key)} must be a file path, got {value!r}")
    if config.get("format", "csv") not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {config['format']!r}")
    return body


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One flag per COMMANDS key, with no type, choices or default: a flag
    left unset is absent from the parsed namespace's non-None values."""
    parser = _Parser(prog="probdiag", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"probdiag {__version__}")
    parser.add_argument("--config", dest="config_file",
                        help="JSON config object; flags given on the command line win")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, keys) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key, key_help in keys.items():
            command.add_argument(_flag(key), dest=key, help=key_help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        flags = {k: v for k, v in vars(parser.parse_args(argv)).items() if v is not None}
        config_file = flags.pop("config_file", None)
        if config_file is None and "command" not in flags:
            parser.print_help()
            return 1
        config = {} if config_file is None else read_json(config_file)
        if not isinstance(config, dict):
            raise ConfigError(f"{config_file} must hold a JSON object")
        config.update(flags)
        return run_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ProbdiagError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
