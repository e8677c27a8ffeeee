import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from probdiag import constant_diagram, standard_category, uniform
from probdiag.cli import COMMANDS, PATH_KEYS, main, run_config
from probdiag.errors import ConfigError, ProbdiagError
from probdiag.fixtures import coord_two_fan
from probdiag.jsonio import diagram_to_obj, save_diagram


def test_validate_fixture_ok(capsys):
    assert main(["validate", "--fixture", "coord", "--l", "6",
                 "--I", "1..4", "--J", "3..6"]) == 0
    assert "valid diagram" in capsys.readouterr().out


def test_validate_file(tmp_path, capsys):
    d, _ = coord_two_fan(4, [1, 2], [3, 4])
    path = tmp_path / "d.json"
    save_diagram(d, path)
    assert main(["validate", "--input", str(path)]) == 0


def test_entropy_csv(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["entropy", "--fixture", "coord", "--l", "6", "--I", "1..4",
                 "--J", "3..6", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# probdiag")
    assert lines[1] == "object,entropy_nats"
    assert len(lines) == 5


def test_distance_between_files(tmp_path, capsys):
    from probdiag.distances import single_space_diagram
    from probdiag import uniform

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_diagram(single_space_diagram(uniform(2)), a)
    save_diagram(single_space_diagram(uniform(4)), b)
    assert main(["distance", "--input", str(a), "--input2", str(b)]) == 0
    out = capsys.readouterr().out
    assert "lower,upper" in out


def test_distance_over_the_tensor_cap_exits_1(tmp_path, capsys):
    from probdiag.distances import single_space_diagram
    from probdiag import ProbSpace, uniform

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_diagram(single_space_diagram(uniform(1025)), a)
    save_diagram(single_space_diagram(ProbSpace(range(1025), [1] * 1025, denom=1025)), b)
    assert main(["distance", "--input", str(a), "--input2", str(b)]) == 1
    assert "over the cap of 1048576" in capsys.readouterr().err


def test_contract_rows_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["contract", "--fixture", "coord", "--l", "7", "--I", "1..5",
            "--J", "5..7", "--seeds", "4", "--seed", "9", "--N", "60", "--t", "0.5"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 2 + 4  # header comment + column row + one row per seed


def test_contract_workers_identical(tmp_path):
    base = ["contract", "--fixture", "coord", "--l", "7", "--I", "1..5",
            "--J", "5..7", "--seeds", "4", "--seed", "3", "--N", "50", "--t", "0.5"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--output", str(one)]) == 0
    assert main(base + ["--workers", "3", "--output", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_tails_default_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["tails", "--grid", "default", "--trials", "2000", "--seed", "5",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 54  # header comment + columns + one row per cell
    assert all(line.endswith("True") for line in lines[2:])


def test_tails_single_cell(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["tails", "--kind", "binomial_i", "--N", "100", "--rho", "1/2",
                 "--t", "0.5", "--trials", "2000", "--seed", "1",
                 "--output", str(out)]) == 0
    assert "pass" in out.read_text().splitlines()[1]


def test_contract_rejects_nonpositive_seeds(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["contract", "--fixture", "coord", "--l", "7", "--I", "1..5",
                 "--J", "5..7", "--seeds", "-1", "--output", str(out)]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_contract_refuses_too_many_coordinates(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["contract", "--l", "1000000", "--output", str(out)]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


def test_contract_refuses_a_sample_over_the_cap(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["contract", "--l", "6", "--N", str(10 ** 9), "--seeds", "2",
                 "--output", str(out)]) == 1
    assert "over the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"command": "contract", "I": "1..2000000"},
    {"command": "contract", "I": f"1..{10 ** 9}"},
    {"command": "expand", "J": f"1..{10 ** 9}"},
    {"command": "contract", "fixture": "lambda3", "U": f"3,4,5,{10 ** 9}"},
], ids=["range_2e6", "range_1e9", "expand_range_1e9", "lambda3_ell_1e9"])
def test_huge_coordinates_fail_before_allocating(config, capsys):
    # a range or an ell over MAX_COORDINATE_BITS is refused before any
    # coordinate tuple or set is built
    argv = [config["command"]] + [arg for key, value in config.items() if key != "command"
                                  for arg in (f"--{key}", value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "cap" in err
    if "fixture" not in config:
        assert err.startswith("config error: --")
    tracemalloc.start()
    try:
        with pytest.raises(ProbdiagError, match="cap"):
            run_config(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("flag, value", [("--N", "0"), ("--N", "-5"), ("--t", "0"),
                                         ("--t", "-0.5"), ("--t", "nan"), ("--t", "inf")])
def test_contract_rejects_nonpositive_n_and_t(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    assert main(["contract", "--l", "6", "--seeds", "2", flag, value,
                 "--output", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flag", [
    ({"command": "tails", "kind": "binomial_i", "N": "x", "rho": "1/2", "t": 0.5}, "--N"),
    ({"command": "tails", "kind": "binomial_i", "N": 50, "rho": "1/x", "t": 0.5}, "--rho"),
    ({"command": "tails", "kind": "binomial_i", "N": 50, "rho": "1/2", "t": "soon"}, "--t"),
    ({"command": "tails", "trials": [1]}, "--trials"),
    ({"command": "contract", "l": 6, "seeds": "two"}, "--seeds"),
    ({"command": "contract", "l": 6, "N": 2.5}, "--N"),
    ({"command": "contract", "l": "six"}, "--l"),
    ({"command": "contract", "l": 6, "I": "1..x"}, "--I"),
    ({"command": "contract", "l": 6, "workers": True}, "--workers"),
    ({"command": "expand", "m": "many"}, "--m"),
    ({"command": "expand", "fixture": "lambda3", "split": "half"}, "--split"),
    ({"command": "epsilons", "n": "ten"}, "--n"),
    ({"command": "epsilons", "target": 0.5, "D_phi": "one"}, "--D-phi"),
    ({"command": "demo", "seed": "0x"}, "--seed"),
    ({"command": "entropy", "seed": "abc"}, "--seed"),
    ({"command": "epsilons", "n": 10, "seed": 1.5}, "--seed"),
    ({"command": "entropy", "seed": math.inf}, "--seed"),
    ({"command": "contract", "l": 6, "seed": -math.inf}, "--seed"),
    ({"command": "tails", "trials": math.inf}, "--trials"),
])
def test_bad_numeric_config_value_is_config_error(tmp_path, capsys, config, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, flag", [
    ({"command": "validate", "input": [1]}, "--input"),
    ({"command": "distance", "input": 5, "input2": "x"}, "--input"),
    ({"command": "distance", "input": "x", "input2": {"a": 1}}, "--input2"),
    ({"command": "contract", "input": True, "fan": "left,top,right"}, "--input"),
    ({"command": "sweep", "config": [1]}, "--config"),
    ({"command": "entropy", "output": 3}, "--output"),
    ({"command": "validate", "input": "\x00"}, "--input"),
])
def test_non_string_path_is_config_error(tmp_path, capsys, config, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be a file path, got ")
    assert "Traceback" not in err


def test_non_string_path_in_a_sweep_step_is_config_error(tmp_path, capsys):
    path = tmp_path / "steps.json"
    path.write_text(json.dumps([{"command": "validate", "input": 7}]))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: --input must be a file path, got 7\n"


def test_tails_kind_without_t_is_config_error(capsys):
    assert main(["tails", "--kind", "binomial_i", "--N", "100", "--rho", "1/2"]) == 1
    assert "--t" in capsys.readouterr().err


def test_expand_command(capsys):
    assert main(["expand", "--fixture", "two_fan", "--l", "4", "--J", "3..4",
                 "--m", "4"]) == 0
    assert "added ln m" in capsys.readouterr().out


def test_epsilons_deterministic(capsys):
    assert main(["epsilons", "--target", "0.5", "--n", "10"]) == 0
    first = capsys.readouterr().out
    assert main(["epsilons", "--target", "0.5", "--n", "10"]) == 0
    assert capsys.readouterr().out == first


def test_demo_runs(capsys):
    assert main(["demo", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "three-feet pipeline" in out and "broken diamond" in out


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "command": "contract", "fixture": "coord", "l": 7, "I": "1..5",
        "J": "5..7", "seeds": 2, "seed": 4, "N": 40, "t": 0.5,
        "output": str(tmp_path / "cfg_out.csv"),
    }))
    assert main(["--config", str(config)]) == 0
    assert (tmp_path / "cfg_out.csv").exists()


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        run_config({"command": "contract", "fixture": "coord", "l": 7,
                    "I": "1..5", "J": "5..7", "bogus": 1})


def test_unknown_command_exit_code():
    assert main(["--config", "/nonexistent/path.json"]) == 1


def test_malformed_input_file_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--input", str(bad)]) == 1
    assert main(["entropy", "--input", str(tmp_path / "missing.json")]) == 1


def _malformed(edit):
    obj = json.loads(json.dumps(diagram_to_obj(coord_two_fan(3, [1, 2], [2, 3])[0])))
    return edit(obj)


def _undeclared_map_target(obj):
    obj["maps"]["top->zz"] = obj["maps"].pop("top->left")
    return obj


def _bad_weight(obj):
    obj["spaces"]["left"]["weights"][0] = "x"
    return obj


@pytest.mark.parametrize("payload, path", [
    (_malformed(_undeclared_map_target), 'maps["top->zz"]'),
    (_malformed(_bad_weight), "spaces.left.weights[0]"),
    ([1, 2], "the document"),
    (_malformed(lambda o: {**o, "spaces": []}), "spaces"),
    (_malformed(lambda o: {**o, "maps": {"top->left": {"{": 0}}}), 'maps["top->left"]'),
    # a second key for atom 0, sending it elsewhere
    (_malformed(lambda o: o["maps"]["top->left"].update({"0.0": 1}) or o),
     """maps["top->left"]: keys '0' and '0.0' both stand for atom 0"""),
])
def test_malformed_diagram_json_is_config_error(tmp_path, capsys, payload, path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["validate", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and path in err
    assert "Traceback" not in err


def _non_commuting(obj):
    # swap the two atoms on one side of a diamond of uniform bits: every map
    # still preserves measure, but the two paths top -> bottom disagree
    obj["maps"]["right->bottom"] = {'"u0"': "u1", '"u1"': "u0"}
    return obj


def _not_measure_preserving(obj):
    first = next(iter(obj["maps"]["top->left"].values()))
    obj["maps"]["top->left"] = {k: first for k in obj["maps"]["top->left"]}
    return obj


@pytest.mark.parametrize("payload, message", [
    (_non_commuting(diagram_to_obj(constant_diagram(standard_category("diamond"),
                                                    uniform(2)))),
     "paths 'top'->'bottom' via 'right' disagree"),
    (_malformed(_not_measure_preserving), "does not equal the declared target"),
])
def test_invalid_diagram_is_verification_failure(tmp_path, capsys, payload, message):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(payload))
    assert main(["validate", "--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("invalid: ") and message in captured.out
    assert "Traceback" not in captured.err


def test_emit_results_empty_rows(tmp_path):
    from probdiag.cli import emit_results

    out = tmp_path / "empty.csv"
    emit_results([], "csv", out, seed=5)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# probdiag") and len(lines) <= 2


def test_sweep(tmp_path):
    steps = [
        {"command": "tails", "kind": "binomial_i", "N": 50, "rho": "1/2",
         "t": 0.5, "trials": 500, "seed": 2, "output": str(tmp_path / "s1.csv")},
        {"command": "expand", "fixture": "two_fan", "l": 4, "J": "3..4", "m": 2},
    ]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(steps))
    assert main(["sweep", "--config", str(config)]) == 0
    assert (tmp_path / "s1.csv").exists()


def test_sweep_that_runs_itself_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "self.json").write_text(json.dumps([{"command": "sweep", "config": "self.json"}]))
    assert main(["sweep", "--config", "self.json"]) == 1
    assert capsys.readouterr().err == "config error: sweep cycle: self.json -> self.json\n"


def test_sweep_cycle_through_two_files_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps([{"command": "epsilons", "n": 10},
                                                 {"command": "sweep", "config": "b.json"}]))
    (tmp_path / "b.json").write_text(json.dumps([{"command": "sweep", "config": "./a.json"}]))
    assert main(["sweep", "--config", "a.json"]) == 1
    assert capsys.readouterr().err == "config error: sweep cycle: a.json -> b.json -> ./a.json\n"
    # a file run twice in sequence, not nested, is no cycle
    twice = [{"command": "sweep", "config": "b2.json"}] * 2
    (tmp_path / "twice.json").write_text(json.dumps(twice))
    (tmp_path / "b2.json").write_text(json.dumps([{"command": "epsilons", "n": 10}]))
    assert main(["sweep", "--config", "twice.json"]) == 0


@pytest.mark.parametrize("argv", [["--n", "1" + "0" * 400],
                                  ["--n", "10", "--size-g", "1" + "0" * 400]], ids=["n", "size-g"])
def test_epsilons_integers_past_float_range_exit_1(capsys, argv):
    assert main(["epsilons"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "fit a float" in err and "Traceback" not in err


def test_json_output_rationals(tmp_path):
    out = tmp_path / "r.json"
    assert main(["contract", "--fixture", "coord", "--l", "7", "--I", "1..5",
                 "--J", "5..7", "--seeds", "1", "--seed", "0", "--N", "40",
                 "--t", "0.5", "--format", "json", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["version"] and payload["seed"] == 0
    row = payload["rows"][0]
    assert "/" in row["rho"]  # exact rational serialized as num/den


# -- inputs that nest too deeply or are too large for recursion -------------


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("argv, document", [
    (["validate", "--input"], '{"category": ' + _nested(5000) + '}'),
    (["--config"], '{"command": ' + _nested(5000) + '}'),
    (["sweep", "--config"], _nested(5000)),
    (["--config"], "[1, 2]"),
], ids=["validate-input", "config", "sweep-config", "config-not-an-object"])
def test_unreadable_json_is_config_error_naming_the_file(tmp_path, capsys, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "doc.json" in err
    assert "Traceback" not in err


def test_contract_on_a_loaded_diagram_of_a_thousand_atoms(tmp_path, capsys):
    # no coordinate certificate, so homogeneity is searched: one search
    # level per initial atom, 2^10 of them
    d, _ = coord_two_fan(10, range(1, 10), range(9, 11))
    path = tmp_path / "d.json"
    save_diagram(d, path)
    assert main(["contract", "--input", str(path), "--fan", "left,top,right"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("run,") and len(rows) == 3


# -- one declaration per option: flags and config files agree ---------------


def _write_config(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_bare_subcommand_keeps_the_config_file_values(tmp_path, capsys):
    path = _write_config(tmp_path, {"command": "contract", "seeds": 3, "seed": 5,
                                    "N": 10, "t": 0.5, "format": "json"})
    assert main(["--config", path, "contract"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5
    assert [row["run"] for row in payload["rows"]] == [0, 1, 2]
    assert all(row["N"] == 10 for row in payload["rows"])


def test_flags_given_on_the_command_line_win_over_the_config_file(tmp_path, capsys):
    path = _write_config(tmp_path, {"command": "contract", "seeds": 3, "seed": 5,
                                    "N": 10, "t": 0.5, "format": "json"})
    assert main(["--config", path, "contract", "--seeds", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("seed=5") and len(lines) == 3


@pytest.mark.parametrize("argv, message", [
    (["contract", "--N", "x"], "--N must be an integer, got 'x'"),
    (["expand", "--fixture", "nope"], "unknown expand fixture 'nope'"),
    (["distance", "--input", "a.json"], "distance needs --input and --input2"),
    (["tails", "--grid", "foo"], "--grid must be default, got 'foo'"),
    (["contract", "--bogus", "1"], "bogus"),
    (["entropy", "--format", "xml"], "--format must be csv or json, got 'xml'"),
], ids=["N", "expand-fixture", "distance-input2", "tails-grid", "unknown-flag", "format"])
def test_bad_value_exits_1_from_a_flag_and_from_a_config_file(tmp_path, capsys, argv, message):
    assert main(argv) == 1
    from_flags = capsys.readouterr().err
    config = {"command": argv[0]}
    config.update((flag[2:], value) for flag, value in zip(argv[1::2], argv[2::2]))
    assert main(["--config", _write_config(tmp_path, config)]) == 1
    from_file = capsys.readouterr().err
    for err in (from_flags, from_file):
        assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command", ["validate", "entropy"])
def test_fan_is_not_a_key_of_commands_that_never_read_it(command):
    with pytest.raises(ConfigError, match="unknown config keys: \\['fan'\\]"):
        run_config({"command": command, "fan": "left,top,right"})


def test_distance_with_a_null_input_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, {"command": "distance", "input": None,
                                    "input2": str(tmp_path / "b.json")})
    assert main(["--config", path]) == 1
    assert capsys.readouterr().err == "config error: distance needs --input and --input2\n"


@pytest.mark.parametrize("argv, message", [
    (["--log-card", "0", "--target", "0.1"], "log_card > 0"),
    (["--log-card", "nan", "--target", "0.1"], "finite"),
    (["--C", "nan", "--n", "10"], "finite"),
])
def test_epsilons_rejects_degenerate_constants(capsys, argv, message):
    assert main(["epsilons"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "nan" not in captured.out


# -- fuzzing the CLI boundary over the command table ------------------------

JUNK = [math.nan, math.inf, -math.inf, True, False, None, [], [1], {}, {"a": 1},
        "", "x", "1/2", "1..3", 2.5, -1.5]
# values of the keys that set problem size stay small, so each example runs fast
SIZE_BOUNDS = {"l": 8, "N": 40, "seeds": 2, "trials": 20, "m": 3}
CHOICES = {
    "fixture": ["coord", "two_fan", "lambda3", "nope"],
    "kind": ["binomial_i", "binomial_ii", "totalvar", "nope"],
    "format": ["csv", "json", "xml"],
    "grid": ["default", "foo"],
    "rho": ["1/2", "1/4", "0", "-1/2", "3/2", "1/0"],
    "fan": ["left,top,right", "x,z,u", "a,b"],
    "I": ["1..4", "1,2", "0..2", "2..1"],
    "J": ["3..6", "2,3", "3..4", "9"],
    "U": ["3,4,5", "3..4", "1"],
    # path values are names inside the fuzz directory, and junk never
    # holds free text for them
    "input": ["d.json", "missing.json", "bad.json", "latin1.json", "\x00"],
    "input2": ["d.json", "missing.json", "bad.json"],
    "config": ["steps.json", "d.json", "missing.json", "\x00"],
    "output": ["out", "missing/out", "\x00"],
}
_junk = st.one_of(st.sampled_from(JUNK), st.text(max_size=6))


def _value(key):
    """Values for key: in range three times in four, junk otherwise."""
    if key in SIZE_BOUNDS:
        valid = st.integers(-2, SIZE_BOUNDS[key])
    elif key in CHOICES:
        valid = st.sampled_from(CHOICES[key])
    else:
        valid = st.one_of(st.integers(-3, 12), st.floats(-2, 12))
    junk = st.sampled_from(JUNK) if key in PATH_KEYS else _junk
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else valid)


def _configs(command):
    keys = COMMANDS[command][2]
    return st.fixed_dictionaries({"command": st.just(command)},
                                 optional={key: _value(key) for key in keys})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_diagram(coord_two_fan(3, [1, 2], [2, 3])[0], root / "d.json")
    (root / "bad.json").write_text("{not json")
    (root / "latin1.json").write_bytes(b'{"category": "\xff"}')
    (root / "steps.json").write_text(json.dumps([{"command": "epsilons", "n": 10}]))
    return root


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(sorted(COMMANDS)).flatmap(_configs))
@example(config={"command": "entropy", "seed": math.inf})
@example(config={"command": "contract", "seed": math.inf})
@example(config={"command": "tails", "seed": math.inf, "trials": 5})
@example(config={"command": "distance", "input": None, "input2": "d.json"})
@example(config={"command": "validate", "input": "latin1.json"})
@example(config={"command": "epsilons", "log_card": 0, "target": 0.1})
@example(config={"command": "epsilons", "log_card": math.nan, "target": 0.1})
@example(config={"command": "epsilons", "C": math.nan, "n": 10})
@example(config={"command": "contract", "seeds": 3, "seed": 5, "N": 10, "t": 0.5,
                 "format": "json"})
@example(config={"command": "contract", "N": "x"})
@example(config={"command": "expand", "fixture": "nope"})
@example(config={"command": "distance", "input": "d.json"})
@example(config={"command": "tails", "grid": "foo"})
@example(config={"command": "contract", "bogus": 1})
def test_any_config_exits_0_1_or_2_without_a_traceback(fuzz_dir, config):
    config = {key: str(fuzz_dir / value) if key in PATH_KEYS and isinstance(value, str)
              else value for key, value in config.items()}
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) in (0, 1, 2)
