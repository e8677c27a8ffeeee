import json
import random
import re

import pytest

from probdiag import standard_category, tensor_fan, uniform
from probdiag.distances import single_space_diagram
from probdiag.errors import ConfigError
from probdiag.fixtures import coord_lambda3, coord_two_fan
from probdiag.jsonio import (
    MAX_ATOM_DEPTH,
    atom_from_key,
    atom_key,
    category_from_obj,
    category_to_obj,
    decode_atom,
    diagram_from_obj,
    encode_atom,
    diagram_to_obj,
    fan_from_obj,
    fan_to_obj,
    load_diagram,
    save_diagram,
    space_from_obj,
    space_to_obj,
)
from conftest import random_diagram, random_space


def test_atom_key_roundtrip():
    for atom in ["a", 5, (0, 1), ("x", (2, 3)), (0, "n")]:
        assert atom_from_key(atom_key(atom)) == atom


def test_category_roundtrip():
    cat = standard_category("full_lambda", 3)
    assert category_from_obj(category_to_obj(cat)) == cat


def test_space_roundtrip_exact():
    rng = random.Random(60)
    for _ in range(20):
        space = random_space(rng)
        again = space_from_obj(space_to_obj(space))
        assert again == space


def test_diagram_roundtrip_exact():
    rng = random.Random(61)
    for _ in range(15):
        d = random_diagram(rng)
        again = diagram_from_obj(diagram_to_obj(d))
        assert again == d


def test_coordinate_diagram_roundtrip():
    d, _ = coord_lambda3()
    again = diagram_from_obj(diagram_to_obj(d))
    assert again == d


def test_fan_roundtrip():
    fan = tensor_fan(single_space_diagram(uniform(2)), single_space_diagram(uniform(3)))
    again = fan_from_obj(fan_to_obj(fan))
    assert again.top == fan.top and again.left == fan.left and again.right == fan.right


def test_file_roundtrip(tmp_path):
    d, _ = coord_two_fan(4, [1, 2], [3, 4])
    path = tmp_path / "diagram.json"
    save_diagram(d, path)
    assert load_diagram(path) == d
    # the payload is plain JSON with the documented top-level keys
    payload = json.loads(path.read_text())
    assert set(payload) == {"category", "spaces", "maps"}
    assert set(payload["category"]) == {"objects", "covers"}


@pytest.mark.parametrize("edit, path", [
    (lambda o: o["proj_left"].update(zz=o["proj_left"].pop("1")), "proj_left.zz"),
    (lambda o: o["right"]["spaces"]["1"]["weights"].__setitem__(0, "1/x"),
     "right.spaces.1.weights[0]"),
    (lambda o: o.pop("top"), "top is missing"),
])
def test_malformed_fan_names_the_field(edit, path):
    fan = tensor_fan(single_space_diagram(uniform(2)), single_space_diagram(uniform(3)))
    obj = json.loads(json.dumps(fan_to_obj(fan)))
    edit(obj)
    with pytest.raises(ConfigError, match=re.escape(path)):
        fan_from_obj(obj)


def _nested(depth: int) -> str:
    return "[" * depth + "1" + "]" * depth


def test_too_deep_file_is_config_error_naming_it(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"category": {"objects": ["a"], "covers": []}, "spaces": {"a": '
                    '{"atoms": [' + _nested(5000) + '], "weights": ["1"]}}, "maps": {}}')
    with pytest.raises(ConfigError, match="deep.json: JSON nested too deeply"):
        load_diagram(path)


def test_too_deep_atom_is_config_error():
    value = 1
    for _ in range(5000):
        value = [value]
    with pytest.raises(ConfigError, match="nested too deeply"):
        decode_atom(value)


def test_atom_nested_900_deep_decodes(tmp_path):
    value = 1
    for _ in range(900):
        value = [value]
    atom = decode_atom(value)
    depth = 0
    while isinstance(atom, tuple):
        assert len(atom) == 1
        atom, depth = atom[0], depth + 1
    assert (atom, depth) == (1, 900)
    assert encode_atom(decode_atom(value)) == value
    # and a one-atom diagram holding it loads from a file and saves again
    path = tmp_path / "deep.json"
    path.write_text('{"category": {"objects": ["a"], "covers": []}, "spaces": {"a": '
                    '{"atoms": [' + _nested(900) + '], "weights": ["1"]}}, "maps": {}}')
    loaded = load_diagram(path)
    assert loaded.spaces["a"].atoms == (decode_atom(json.loads(_nested(900))),)
    save_diagram(loaded, tmp_path / "again.json")
    assert load_diagram(tmp_path / "again.json") == loaded


def test_atom_depth_cap():
    value = 1
    for _ in range(MAX_ATOM_DEPTH):
        value = [value]
    decode_atom(value)
    with pytest.raises(ConfigError, match="nested too deeply"):
        decode_atom([value])
    with pytest.raises(ConfigError, match="is a JSON object"):
        decode_atom([[1, [{"a": 1}]]])
    atom = decode_atom(value)
    assert encode_atom(atom) == value
    with pytest.raises(ConfigError, match="nested too deeply"):
        encode_atom((atom,))
    with pytest.raises(ConfigError, match="1.5 is not JSON-serializable"):
        encode_atom((1, (2, 1.5)))


@pytest.mark.parametrize("first, second, atom", [
    ("0", "0.0", "0"), ("1", "true", "1"), ('"a"', ' "a"', "'a'"), ("[0,1]", "[0, 1.0]", "(0, 1)"),
], ids=["int-float", "int-bool", "whitespace", "tuple"])
@pytest.mark.parametrize("agree", [True, False], ids=["same-image", "other-image"])
def test_map_keys_standing_for_one_atom_are_refused(first, second, atom, agree):
    # two keys of one map decode to the same atom: refused whether or not
    # their images agree, naming the field path and the atom
    obj = {"category": {"objects": ["a", "b"], "covers": [["a", "b"]]},
           "spaces": {"a": {"atoms": [json.loads(first), "z"], "weights": ["1/2", "1/2"]},
                      "b": {"atoms": ["p", "q"], "weights": ["1/2", "1/2"]}},
           "maps": {"a->b": {first: "p", '"z"': "q", second: "p" if agree else "q"}}}
    with pytest.raises(ConfigError, match=re.escape(f'maps["a->b"]: keys {first!r} and '
                                                    f'{second!r} both stand for atom {atom}')):
        diagram_from_obj(obj)
