"""JSON interchange for categories, spaces, diagrams and fans.

Rationals serialize as "num/den" strings; atoms may be strings, ints or
(nested) tuples, which round-trip through JSON lists.  Map keys use a
canonical compact JSON encoding of the atom.  Object ids must not contain
the cover separator "->".

Loading checks the JSON shape before building anything: a malformed field
raises ConfigError naming its path, such as `spaces.a.weights[0]` or
`maps["a->b"]`."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .categories import IndexingCategory
from .diagrams import Diagram, FanOfDiagrams, Reduction
from .errors import ConfigError
from .spaces import ProbSpace


# Levels an atom may nest.  Comparing or printing a tuple recurses once per
# level, within Python's default limit of 1000 frames; 900 leaves room for
# the frames of the code that compares.
MAX_ATOM_DEPTH = 900


def _rebuild(value, branch: type, build, leaf):
    """value with each nested `branch` container rebuilt by `build` from its
    rebuilt items and every other item passed through `leaf`.  The nesting
    is walked with an explicit stack of (remaining items, rebuilt items) per
    open container, so any depth up to MAX_ATOM_DEPTH is rebuilt."""
    if not isinstance(value, branch):
        return leaf(value)
    stack = [(iter([value]), [])]
    while True:
        items, done = stack[-1]
        for v in items:
            if isinstance(v, branch):
                if len(stack) > MAX_ATOM_DEPTH:
                    raise ConfigError(f"atom is nested too deeply "
                                      f"(more than {MAX_ATOM_DEPTH} levels)")
                stack.append((iter(v), []))
                break
            done.append(leaf(v))
        else:
            stack.pop()
            if not stack:
                return done[0]
            stack[-1][1].append(build(done))


def _json_scalar(atom):
    if isinstance(atom, (str, int, bool)) or atom is None:
        return atom
    raise ConfigError(f"atom {atom!r} is not JSON-serializable")


def _atom_scalar(value):
    if isinstance(value, dict):
        raise ConfigError(f"atom {value!r} is a JSON object; atoms are scalars or lists")
    return value


def encode_atom(atom):
    """The JSON value of an atom: tuples become lists."""
    return _rebuild(atom, tuple, list, _json_scalar)


def decode_atom(value):
    """The atom a decoded JSON value stands for: lists become tuples."""
    return _rebuild(value, list, tuple, _atom_scalar)


def atom_key(atom) -> str:
    return json.dumps(encode_atom(atom), separators=(",", ":"), sort_keys=True)


def atom_from_key(key: str):
    try:
        value = json.loads(key)
    except (json.JSONDecodeError, RecursionError):
        raise ConfigError(f"map key {key!r} is not a JSON-encoded atom") from None
    return decode_atom(value)


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _field(obj, key: str, kind: type, path: str = ""):
    """obj[key], required to be a JSON value of the given kind; ConfigError
    naming the field path otherwise."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'the document'} must be a JSON object, "
                          f"got {type(obj).__name__}")
    if key not in obj:
        raise ConfigError(f"{where} is missing")
    if not isinstance(obj[key], kind):
        raise ConfigError(f"{where} must be a JSON {_JSON_TYPES[kind]}, "
                          f"got {type(obj[key]).__name__}")
    return obj[key]


def _each(path: str, convert, values: list) -> list:
    """convert applied to each value; the first value it rejects (with a
    ConfigError or a bad-literal error) is reported as path[k]."""
    out = []
    for k, value in enumerate(values):
        try:
            out.append(convert(value))
        except (ConfigError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{path}[{k}]: {exc}") from None
    return out


def category_to_obj(cat: IndexingCategory) -> dict:
    return {"objects": list(cat.objects), "covers": [[i, j] for (i, j) in cat.covers]}


def category_from_obj(obj: dict, path: str = "category") -> IndexingCategory:
    objects = _field(obj, "objects", list, path)
    for k, o in enumerate(objects):
        if not isinstance(o, str):
            raise ConfigError(f"{path}.objects[{k}] must be a string, got {o!r}")
    covers = _field(obj, "covers", list, path)
    for k, c in enumerate(covers):
        if not (isinstance(c, list) and len(c) == 2 and all(isinstance(o, str) for o in c)):
            raise ConfigError(f"{path}.covers[{k}] must be a pair of object ids, got {c!r}")
    return IndexingCategory(objects, [tuple(c) for c in covers])


def space_to_obj(space: ProbSpace) -> dict:
    return {"atoms": [encode_atom(a) for a in space.atoms],
            "weights": [str(w) for w in space.weights]}


def space_from_obj(obj: dict, path: str = "space") -> ProbSpace:
    atoms = _field(obj, "atoms", list, path)
    weights = _field(obj, "weights", list, path)
    return ProbSpace(_each(f"{path}.atoms", decode_atom, atoms),
                     _each(f"{path}.weights", Fraction, weights))


def _mapping_to_obj(mapping: dict) -> dict:
    return {atom_key(a): encode_atom(b) for a, b in mapping.items()}


def _reduction_from_obj(obj, domain: ProbSpace, target: ProbSpace, path: str) -> Reduction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(obj).__name__}")
    mapping, keys = {}, {}
    try:
        for key, value in obj.items():
            atom = atom_from_key(key)
            if keys.setdefault(atom, key) != key:  # as "0" and "0.0", or "1" and "true"
                raise ConfigError(f"keys {keys[atom]!r} and {key!r} both stand for atom "
                                  f"{atom_from_key(keys[atom])!r}")
            mapping[atom] = decode_atom(value)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    missing = [a for a in domain.atoms if a not in mapping]
    if missing:
        raise ConfigError(f"{path} does not map atom {missing[0]!r}")
    return Reduction(domain, target, mapping)


def diagram_to_obj(diagram: Diagram) -> dict:
    return {
        "category": category_to_obj(diagram.category),
        "spaces": {o: space_to_obj(s) for o, s in diagram.spaces.items()},
        "maps": {f"{i}->{j}": _mapping_to_obj(r.mapping)
                 for (i, j), r in diagram.prime_maps.items()},
    }


def diagram_from_obj(obj: dict, path: str = "") -> Diagram:
    at = f"{path}." if path else ""
    cat = category_from_obj(_field(obj, "category", dict, path), f"{at}category")
    spaces = {o: space_from_obj(s, f"{at}spaces.{o}")
              for o, s in _field(obj, "spaces", dict, path).items()}
    maps = {}
    for key, m in _field(obj, "maps", dict, path).items():
        where = f"{at}maps[{json.dumps(key)}]"
        i, sep, j = key.partition("->")
        if not sep:
            raise ConfigError(f"{where}: bad cover key, expected \"a->b\"")
        for o in (i, j):
            if o not in spaces:
                raise ConfigError(f"{where}: object {o!r} has no space in {at}spaces")
        maps[(i, j)] = _reduction_from_obj(m, spaces[i], spaces[j], where)
    return Diagram(cat, spaces, maps)


def fan_to_obj(fan: FanOfDiagrams) -> dict:
    return {
        "top": diagram_to_obj(fan.top),
        "left": diagram_to_obj(fan.left),
        "right": diagram_to_obj(fan.right),
        "proj_left": {o: _mapping_to_obj(r.mapping) for o, r in fan.proj_left.items()},
        "proj_right": {o: _mapping_to_obj(r.mapping) for o, r in fan.proj_right.items()},
    }


def fan_from_obj(obj: dict) -> FanOfDiagrams:
    top, left, right = (diagram_from_obj(_field(obj, k, dict), k)
                        for k in ("top", "left", "right"))
    projs = []
    for key, foot in (("proj_left", left), ("proj_right", right)):
        proj = {}
        for o, m in _field(obj, key, dict).items():
            if o not in top.spaces or o not in foot.spaces:
                raise ConfigError(f"{key}.{o}: object {o!r} is not in both diagrams")
            proj[o] = _reduction_from_obj(m, top.spaces[o], foot.spaces[o], f"{key}.{o}")
        projs.append(proj)
    return FanOfDiagrams(top, left, right, *projs)


def read_json(path):
    """The JSON document in the file at path; ConfigError naming the file
    when it is not UTF-8 text or nests too deeply to decode."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to decode") from None


def load_diagram(path) -> Diagram:
    return diagram_from_obj(read_json(path))


def save_diagram(diagram: Diagram, path) -> None:
    Path(path).write_text(json.dumps(diagram_to_obj(diagram), indent=2) + "\n")
