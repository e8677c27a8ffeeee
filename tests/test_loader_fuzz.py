"""Fuzzing the trust boundary: the JSON loaders and the checked `Diagram(...)`.

Each input is a valid fixture, mutated: atoms listed in another order,
map keys in another order, images swapped or redirected, weight moved
between atoms or replaced by a bad literal, a map entry dropped, a second
key standing for an atom already keyed.  Every input must give a valid
object or a `ProbdiagError`, and it gives an object exactly when the
brute-force oracles (`tests/oracles.py`: Fraction pushforwards and the
composite of every path, atom by atom) find every space a measure, every
map total and measure-preserving, no atom keyed twice, every path equal
and, for a fan, every square natural.  An accepted diagram's composites
must equal the oracle's, key order included.
"""
import copy
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracles
from probdiag import Diagram, ProbSpace, Reduction, tensor_fan, uniform
from probdiag.distances import single_space_diagram
from probdiag.errors import ProbdiagError
from probdiag.fixtures import coord_lambda3, coord_two_fan
from probdiag.jsonio import diagram_from_obj, diagram_to_obj, fan_from_obj, fan_to_obj
from conftest import random_diagram

DIAGRAMS = [coord_two_fan(3, [1, 2], [2, 3])[0], coord_lambda3()[0],
            *(random_diagram(random.Random(seed)) for seed in range(3))]
DIAGRAM_OBJS = [json.loads(json.dumps(diagram_to_obj(d))) for d in DIAGRAMS]
FAN_OBJS = [json.loads(json.dumps(fan_to_obj(fan))) for fan in (
    tensor_fan(single_space_diagram(uniform(2)), single_space_diagram(uniform(3))),
    tensor_fan(coord_two_fan(2, [1], [2])[0], coord_two_fan(2, [1], [1, 2])[0]),
)]


# -- mutations: each edits one space or one map of a JSON diagram or fan ------

def _spaces(obj) -> list:
    parts = [obj[k] for k in ("top", "left", "right")] if "top" in obj else [obj]
    return [space for part in parts for space in part["spaces"].values()]


def _maps(obj) -> list:
    if "top" not in obj:
        return list(obj["maps"].values())
    return ([m for k in ("top", "left", "right") for m in obj[k]["maps"].values()]
            + list(obj["proj_left"].values()) + list(obj["proj_right"].values()))


def shuffle_space(rng, obj):
    """The same space with its atoms listed in another order."""
    space = rng.choice(_spaces(obj))
    pairs = list(zip(space["atoms"], space["weights"]))
    rng.shuffle(pairs)
    space["atoms"], space["weights"] = map(list, zip(*pairs))


def shuffle_map(rng, obj):
    """The same map with its keys in another order."""
    maps = [m for m in _maps(obj) if m]
    if maps:
        m = rng.choice(maps)
        items = list(m.items())
        rng.shuffle(items)
        m.clear()
        m.update(items)


def swap_images(rng, obj):
    maps = [m for m in _maps(obj) if len(m) > 1]
    if maps:
        m = rng.choice(maps)
        a, b = rng.sample(sorted(m), 2)
        m[a], m[b] = m[b], m[a]


def redirect_image(rng, obj):
    """One atom sent to another image of the same map."""
    maps = [m for m in _maps(obj) if m]
    if maps:
        m = rng.choice(maps)
        m[rng.choice(sorted(m))] = rng.choice(list(m.values()))


def unknown_image(rng, obj):
    maps = [m for m in _maps(obj) if m]
    if maps:
        m = rng.choice(maps)
        m[rng.choice(sorted(m))] = "nowhere"


def drop_entry(rng, obj):
    maps = [m for m in _maps(obj) if m]
    if maps:
        m = rng.choice(maps)
        del m[rng.choice(sorted(m))]


def duplicate_key(rng, obj):
    """A second key of one map that decodes to an atom already keyed: the
    key with a leading space, or an int atom written as a float, or 0 and 1
    as JSON booleans; its image is that key's or another of the map's."""
    maps = [m for m in _maps(obj) if m]
    if maps:
        m = rng.choice(maps)
        key = rng.choice(sorted(m))
        atom = json.loads(key)
        others = [" " + key]
        if type(atom) is int:
            others.append(f"{atom}.0")
            if atom in (0, 1):
                others.append("true" if atom else "false")
        m[rng.choice(others)] = rng.choice([m[key], *m.values()])


def move_weight(rng, obj):
    """Half of one atom's weight moved to another atom: still a measure."""
    spaces = [s for s in _spaces(obj) if len(s["atoms"]) > 1]
    if spaces:
        weights = rng.choice(spaces)["weights"]
        a, b = rng.sample(range(len(weights)), 2)
        try:
            half, rest = Fraction(weights[a]) / 2, Fraction(weights[b])
        except (ValueError, ZeroDivisionError):
            return
        weights[a], weights[b] = str(half), str(rest + half)


def bad_weight(rng, obj):
    weights = rng.choice(_spaces(obj))["weights"]
    weights[rng.randrange(len(weights))] = rng.choice(["1/0", "x", "-1/4", "2"])


MUTATIONS = [shuffle_space, shuffle_map, swap_images, redirect_image, unknown_image,
             drop_entry, duplicate_key, move_weight, bad_weight]


# -- brute-force verdicts -------------------------------------------------------

def _atom(value):
    return tuple(map(_atom, value)) if isinstance(value, list) else value


def _measure(space) -> dict | None:
    """atom -> positive Fraction weight, or None unless the atoms are
    distinct and the weights are rationals, nonnegative, summing to 1."""
    try:
        weights = [Fraction(w) for w in space["weights"]]
    except (ValueError, ZeroDivisionError):
        return None
    atoms = [_atom(a) for a in space["atoms"]]
    if len(set(atoms)) < len(atoms) or min(weights) < 0 or sum(weights) != 1:
        return None
    return {a: w for a, w in zip(atoms, weights) if w}


def _decoded(m) -> dict | None:
    """The decoded map, or None when two of its keys decode to one atom."""
    mapping = {_atom(json.loads(k)): _atom(v) for k, v in m.items()}
    return mapping if len(mapping) == len(m) else None


def _map(m, domain: dict, target: dict) -> dict | None:
    mapping = _decoded(m)
    if mapping is None or any(a not in mapping for a in domain):
        return None
    return mapping if oracles.reduction_accepts(domain, target, mapping) else None


def _composites(obj) -> dict | None:
    """The composite of every path of a JSON diagram, or None when it is not
    a valid diagram."""
    measures = {o: _measure(s) for o, s in obj["spaces"].items()}
    if None in measures.values():
        return None
    maps = {}
    for key, m in obj["maps"].items():
        i, _, j = key.partition("->")
        maps[(i, j)] = _map(m, measures[i], measures[j])
        if maps[(i, j)] is None:
            return None
    cat = obj["category"]
    covers = [tuple(c) for c in cat["covers"]]
    atoms = {o: list(w) for o, w in measures.items()}
    composites = oracles.path_composites(cat["objects"], covers, atoms, maps)
    return composites if oracles.all_paths_agree(composites) else None


def _fan_valid(obj) -> bool:
    parts = {k: obj[k] for k in ("top", "left", "right")}
    if any(_composites(part) is None for part in parts.values()):
        return False
    covers = [tuple(c) for c in obj["top"]["category"]["covers"]]
    cover_maps = {k: {(i, j): _decoded(part["maps"][f"{i}->{j}"]) for i, j in covers}
                  for k, part in parts.items()}
    top = {o: _measure(s) for o, s in parts["top"]["spaces"].items()}
    for side in ("left", "right"):
        foot = {o: _measure(s) for o, s in parts[side]["spaces"].items()}
        projs = {o: _map(m, top[o], foot[o]) for o, m in obj[f"proj_{side}"].items()}
        if set(projs) != set(top) or None in projs.values():
            return False
        if not oracles.squares_commute(covers, {o: list(w) for o, w in top.items()},
                                       cover_maps["top"], cover_maps[side], projs):
            return False
    return True


def _mutated(objs, data):
    obj = copy.deepcopy(data.draw(st.sampled_from(objs)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(rng, obj)
    return obj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_diagram_loader_accepts_exactly_the_valid_inputs(data):
    obj = _mutated(DIAGRAM_OBJS, data)
    want = _composites(obj)
    try:
        diagram = diagram_from_obj(obj)
    except ProbdiagError:
        assert want is None
        return
    assert want is not None
    for (src, dst), by_path in want.items():
        got = diagram.composite_mapping(src, dst)
        assert list(got) == list(diagram.spaces[src].atoms)
        assert all(got == m for m in by_path.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fan_loader_accepts_exactly_the_valid_inputs(data):
    obj = _mutated(FAN_OBJS, data)
    valid = _fan_valid(obj)
    try:
        fan_from_obj(obj)
    except ProbdiagError:
        assert not valid
        return
    assert valid


def _reordered(space: ProbSpace, rng) -> ProbSpace:
    """An equal space, its atoms listed in another order."""
    pairs = list(zip(space.atoms, space.masses))
    rng.shuffle(pairs)
    return ProbSpace([a for a, _ in pairs], [m for _, m in pairs], denom=space.denom)


def _with_squares(count: int) -> list:
    """Random diagrams in which some object has two parents."""
    found = []
    for seed in range(100):
        d = random_diagram(random.Random(seed))
        if len({j for _, j in d.category.covers}) < len(d.category.covers):
            found.append(d)
        if len(found) == count:
            return found


SQUARES = [coord_lambda3()[0], *_with_squares(4)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, len(SQUARES) - 1), salt=st.integers(0, 2 ** 16),
       swap=st.booleans())
def test_checked_diagram_takes_positions_in_its_own_spaces(which, salt, swap):
    # every prime map's domain and target are equal copies of the diagram's
    # spaces, listing their atoms in other orders, as Reduction.from_map's
    # pushforward targets may; swapping two images of equal mass keeps each
    # map measure-preserving and may break a square
    d, rng = SQUARES[which], random.Random(salt)
    maps = {c: dict(r.mapping) for c, r in d.prime_maps.items()}
    if swap and maps:
        cover = rng.choice(sorted(maps))
        mass = d.spaces[cover[0]].mass
        pairs = [(a, b) for a in maps[cover] for b in maps[cover]
                 if mass(a) == mass(b) and maps[cover][a] != maps[cover][b]]
        if pairs:
            a, b = rng.choice(sorted(pairs, key=repr))
            maps[cover][a], maps[cover][b] = maps[cover][b], maps[cover][a]
    reductions = {(i, j): Reduction(_reordered(d.spaces[i], rng), _reordered(d.spaces[j], rng),
                                    m) for (i, j), m in maps.items()}
    atoms = {o: s.atoms for o, s in d.spaces.items()}
    composites = oracles.path_composites(d.category.objects, d.category.covers, atoms, maps)
    try:
        built = Diagram(d.category, d.spaces, reductions)
    except ProbdiagError:
        assert not oracles.all_paths_agree(composites)
        return
    assert oracles.all_paths_agree(composites)
    for (src, dst), by_path in composites.items():
        got = built.composite_mapping(src, dst)
        assert list(got) == list(atoms[src])
        assert all(got == m for m in by_path.values())
