"""Commutative diagrams of finite probability spaces over indexing categories.

A diagram assigns a ProbSpace to every object and a measure-preserving
surjection to every cover of its indexing category; all paths commute.
Maps are target positions only (see `Reduction`); atom dicts are views
for public readers, with the target's own atoms as images.  Every space is
a quotient of the initial one, so a diagram's maps compose through its
lifts, the composites out of the initial object, held as read-only int64
arrays of positions aligned with the initial atoms: the lift of an object
is its first parent's cover array indexed by that parent's lift, and any
other composite is read off two lifts.  All paths agree exactly when every
cover carries its source's lift onto its target's, because lifts are onto;
the check compares int64 arrays and hashes no atoms, and so do the
naturality checks of fans and explicit isomorphisms.  The checked
`Diagram(...)` and `FanOfDiagrams(...)` take a map on an equal space
listed in another order into their own spaces (`Reduction._in_spaces`).
A measure on the initial atoms pushed through a skeleton (a restriction,
a coupling, a joint space) is built by `_from_initial_measure` from one int
key per initial atom at each object; a pair (p, q) is keyed p |Y| + q.

Checks sit where data enters: the public `Reduction(...)`, `make_diagram`,
`Diagram(...)`, `FanOfDiagrams(...)` (and so JSON loading) and
`SetDiagram(...)` check every map and square, `coupling_fan` the marginals
of its coupling.  What the package derives from valid objects (pushforwards
of one initial measure, restrictions, products, couplings, arrow collapse,
expansion and the W marginal that strips it, once each map is checked well
defined) holds by construction and is built once, unchecked, through the
`_trusted` constructors; `tests/test_trusted_path.py` rechecks it.
Recovery keeps its final check: its diagram, fan and run come from the
caller and can disagree.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

import numpy as np

from .categories import (
    IndexingCategory,
    SubCategory,
    collapse_object_pair,
    cone_members,
)
from .errors import (
    CommutativityError,
    MapError,
    NotClosedError,
    NotIsoError,
    NotMonotoneError,
    NotSurjectiveError,
    ShapeMismatchError,
    TooLargeError,
    UnknownAtomError,
)
from .spaces import Frame, ProbSpace, Reduction, pushforward, tensor_spaces, _tensor_positions


@dataclass(frozen=True)
class CoordMeta:
    """Coordinate structure of a diagram built from bit projections.

    Atom bit t of the space at obj is the coordinate coords[obj][t]; the
    translation group (XOR by a fixed bit vector) certifies homogeneity and
    yields explicit isomorphisms between conditioned fibers.
    """

    ell: int
    coords: dict  # obj -> sorted tuple of coordinate labels in 1..ell

    def embed(self, obj: str, atom: int) -> dict:
        """Spread an atom of obj into a full coordinate->bit table."""
        table = {c: 0 for c in range(1, self.ell + 1)}
        for t, c in enumerate(self.coords[obj]):
            table[c] = (atom >> t) & 1
        return table

    def extract(self, obj: str, table: Mapping) -> int:
        out = 0
        for t, c in enumerate(self.coords[obj]):
            out |= (table.get(c, 0) & 1) << t
        return out


class Diagram:
    """A commutative functor from an indexing category to probability spaces."""

    __slots__ = ("category", "spaces", "prime_maps", "coord_meta",
                 "certified_homogeneous", "_composites", "_lifts")

    def __init__(self, category: IndexingCategory, spaces: Mapping[str, ProbSpace],
                 prime_maps: Mapping[tuple[str, str], Reduction]):
        if set(spaces) != set(category.objects):
            raise MapError("need exactly one space per object")
        if set(prime_maps) != set(category.covers):
            raise MapError("need exactly one map per cover of the category")
        maps = {}
        for (i, j), red in prime_maps.items():
            if red.domain != spaces[i] or red.target != spaces[j]:
                raise MapError(f"map on cover {(i, j)!r} does not match the declared spaces")
            # an equal space may list its atoms in another order, and
            # positions are taken in the diagram's own spaces
            maps[(i, j)] = red._in_spaces(spaces[i], spaces[j])
        self._store(category, dict(spaces), maps)
        self._check_commutativity()

    @classmethod
    def _trusted(cls, category: IndexingCategory, spaces: dict, prime_maps: dict, *,
                 coord_meta: CoordMeta | None = None,
                 certified_homogeneous: bool = False) -> "Diagram":
        """A diagram that is commutative by construction, stored unchecked
        and uncopied.  For use inside the package only."""
        diagram = cls.__new__(cls)
        diagram._store(category, spaces, prime_maps, coord_meta, certified_homogeneous)
        return diagram

    def _store(self, category, spaces, prime_maps, coord_meta=None,
               certified_homogeneous=False) -> None:
        self.category = category
        self.spaces = spaces
        self.prime_maps = prime_maps
        self.coord_meta = coord_meta
        self.certified_homogeneous = certified_homogeneous
        self._composites: dict = {}
        self._lifts: dict = {}

    # -- composites -----------------------------------------------------

    def composite_mapping(self, src: str, dst: str) -> dict:
        """The composed atom map src -> dst, keyed in src's atom order, with
        dst's own atoms as images, for public readers: on a cover the prime
        map's own `mapping` view, and otherwise built from the lifts
        (`_composite_positions`).  The package itself reads positions.
        Cached and shared; callers must not mutate it."""
        key = (src, dst)
        cached = self._composites.get(key)
        if cached is not None:
            return cached
        mapping = self._cover_mapping(key)
        if mapping is None:
            positions = self._composite_positions(src, dst).tolist()
            images = map(self._atoms(dst).__getitem__, positions)
            mapping = dict(zip(self._atoms(src), images))
        self._composites[key] = mapping
        return mapping

    def _lift(self, obj: str) -> np.ndarray:
        """The lift of obj: the position in obj's atoms of the image of each
        initial atom, in initial order, as a read-only int64 array.  The
        initial object's is `np.arange`; any other's is its first parent's
        cover array indexed by the parent's lift (the cover array itself
        when the parent is initial).  Cached and shared."""
        lift = self._lifts.get(obj)
        if lift is None:
            init = self.category.initial
            if obj == init:
                lift = np.arange(self._size(obj), dtype=np.int64)
            else:
                parent = self.category.first_parent[obj]
                lift = self._cover_array((parent, obj))
                if parent != init:
                    lift = lift[self._lift(parent)]
            lift.setflags(write=False)
            self._lifts[obj] = lift
        return lift

    def _composite_positions(self, src: str, dst: str) -> np.ndarray:
        """The composite src -> dst as an int64 array of positions in dst's
        atoms, in src's atom order: lift_src[z] goes to lift_dst[z] for
        every initial atom z, which is well defined when src reaches dst."""
        if not self.category.reaches(src, dst):
            raise MapError(f"no morphism {src!r} -> {dst!r}")
        lift_dst = self._lift(dst)
        if src == self.category.initial:
            return lift_dst
        return _induced_positions(self._lift(src), lift_dst, self._size(src))

    # The four lookups that composite_mapping, _lift, _composite_positions
    # and _check_commutativity read; SetDiagram shares those four methods
    # and supplies its own lookups.  Only an atom map or a failure message
    # reads atoms; lifts and the commutativity check read sizes and cover
    # arrays.
    def _cover_mapping(self, cover: tuple[str, str]) -> dict | None:
        """The atom map on a cover; None when the pair is not a cover."""
        prime = self.prime_maps.get(cover)
        return None if prime is None else prime.mapping

    def _cover_array(self, cover: tuple[str, str]) -> np.ndarray:
        return self.prime_maps[cover]._array()

    def _atoms(self, obj: str) -> tuple:
        return self.spaces[obj].atoms

    def _size(self, obj: str) -> int:
        return len(self.spaces[obj])

    def composite_reduction(self, src: str, dst: str) -> Reduction:
        """The composite src -> dst as a Reduction; on a cover it is the
        prime map itself.  A composite of measure-preserving maps preserves
        measure, so it is not checked again."""
        prime = self.prime_maps.get((src, dst))
        if prime is not None:
            return prime
        return Reduction._trusted(self.spaces[src], self.spaces[dst],
                                  positions=self._composite_positions(src, dst))

    def _check_commutativity(self) -> None:
        # Every cover (i, j) other than the one from j's first parent must
        # carry i's lift onto j's.  Then every path from the initial object
        # composes to the lift at its end, by induction on its length, and
        # two paths from any src agree after src's lift, which is onto, so
        # they agree.  A failure names the other path by its first step and
        # the first initial atom where the two disagree.
        init = self.category.initial
        for (i, j) in self.category.covers:
            if self.category.first_parent[j] == i:
                continue
            carried = self._cover_array((i, j))[self._lift(i)]
            lift_j = self._lift(j)
            if not np.array_equal(carried, lift_j):
                k = int(np.flatnonzero(carried != lift_j)[0])
                step = j
                while i != init:
                    step, i = i, self.category.first_parent[i]
                raise CommutativityError(f"paths {init!r}->{j!r} via {step!r} "
                                         f"disagree at atom {self._atoms(init)[k]!r}")

    # -- basic queries ----------------------------------------------------

    @property
    def initial(self) -> str:
        return self.category.initial

    @property
    def initial_space(self) -> ProbSpace:
        return self.spaces[self.category.initial]

    def space(self, obj: str) -> ProbSpace:
        try:
            return self.spaces[obj]
        except KeyError:
            raise MapError(f"unknown object {obj!r}") from None

    def total_support(self) -> int:
        return sum(len(s) for s in self.spaces.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.category == other.category and _first_change(self, other) is None

    def __hash__(self):
        return hash((self.category, frozenset(self.spaces.items())))

    def __repr__(self) -> str:
        sizes = {o: len(s) for o, s in self.spaces.items()}
        return f"Diagram({sizes})"


# -- constructors ---------------------------------------------------------

def make_diagram(category: IndexingCategory, spaces: Mapping[str, ProbSpace],
                 maps: Mapping[tuple[str, str], Mapping | Reduction]) -> Diagram:
    """Assemble and validate a diagram; plain dict maps are accepted."""
    prime_maps = {}
    for cover, m in maps.items():
        if isinstance(m, Reduction):
            prime_maps[cover] = m
        else:
            i, j = cover
            if i not in spaces or j not in spaces:
                raise MapError(f"cover {cover!r} refers to unknown objects")
            try:
                prime_maps[cover] = Reduction(spaces[i], spaces[j], m)
            except UnknownAtomError as exc:
                raise MapError(f"map on cover {cover!r}: {exc}") from exc
    return Diagram(category, spaces, prime_maps)


def constant_diagram(category: IndexingCategory, space: ProbSpace) -> Diagram:
    """The same space at every object with identity maps."""
    ident = Reduction.identity(space)
    return Diagram._trusted(category, {o: space for o in category.objects},
                            {c: ident for c in category.covers})


# each bit doubles the top space.  At the cap, on a 2 vCPU Xeon, building
# coord_two_fan(20, range(1, 20), range(19, 21)) in a fresh interpreter takes
# 0.3 s and peaks at 123 MB RSS, import included (`time.perf_counter` around
# the call, `resource.getrusage(RUSAGE_SELF).ru_maxrss` after it)
MAX_COORDINATE_BITS = 20
# atoms projected per block of array work: bounds the block's temporaries
_PROJECT_BLOCK = 2 ** 14


def coordinate_diagram(category: IndexingCategory, coord_sets: Mapping[str, Iterable[int]],
                       ell: int) -> Diagram:
    """Uniform bit-vector diagram: each object carries the uniform measure on
    {0,1}^S for its coordinate set S, and maps are coordinate projections.

    Coordinate sets must shrink along morphisms and the initial object must
    carry all of 1..ell.  The result is homogeneous (the XOR translation
    group acts transitively) and carries a certificate to that effect.

    An atom of {0,1}^S is its own position.  On a cover (i, j), with p_t
    the index in S_i of the t-th coordinate of S_j, atom a goes to
    sum_t ((a >> p_t) & 1) << t, computed with numpy shifts and masks on a
    block of consecutive atoms at a time into the cover's int64 array, which
    is all the cover holds until its positions or atom map are read.
    """
    if ell > MAX_COORDINATE_BITS:
        raise TooLargeError(f"ell = {ell} exceeds the cap of {MAX_COORDINATE_BITS} coordinates")
    coords = {}
    for obj in category.objects:
        if obj not in coord_sets:
            raise NotMonotoneError(f"no coordinate set for object {obj!r}")
        cs = tuple(sorted(set(coord_sets[obj])))
        if any(not (1 <= c <= ell) for c in cs):
            raise NotMonotoneError(f"coordinates of {obj!r} outside 1..{ell}")
        coords[obj] = cs
    if coords[category.initial] != tuple(range(1, ell + 1)):
        raise NotMonotoneError("initial object must carry the full coordinate set")
    for (i, j) in category.covers:
        if not set(coords[j]) <= set(coords[i]):
            raise NotMonotoneError(f"coordinates grow along cover {(i, j)!r}")

    spaces = {}
    for obj, cs in coords.items():
        n = 1 << len(cs)
        spaces[obj] = ProbSpace(Frame(tuple(range(n))), [1] * n, denom=n)
    maps = {}
    for (i, j) in category.covers:
        bits = tuple(coords[i].index(c) for c in coords[j])
        size = len(spaces[i])
        positions = np.zeros(size, dtype=np.int64)
        for start in range(0, size, _PROJECT_BLOCK):
            src = np.arange(start, min(start + _PROJECT_BLOCK, size), dtype=np.int64)
            proj = positions[start:start + src.size]
            for t, p in enumerate(bits):
                proj |= ((src >> p) & 1) << t
        # a coordinate projection pushes the uniform measure on {0,1}^S to
        # the uniform measure on {0,1}^T
        maps[(i, j)] = Reduction._trusted(spaces[i], spaces[j], positions=positions)
    return Diagram._trusted(category, spaces, maps, coord_meta=CoordMeta(ell, coords),
                            certified_homogeneous=True)


def _from_initial_measure(category: IndexingCategory, masses: list, denom: int,
                          keys: Mapping[str, list], labels: Mapping[str, Callable]):
    """The diagram of one measure on an initial set pushed through a skeleton:
    `masses`, one positive int per initial atom, over `denom`; keys[obj], one
    int per initial atom, equal keys at i staying equal below i; labels[obj],
    key -> atom.  Each space lists its atoms, built on first read, in the
    order their keys first appear, and maps are positions, so nothing needs
    checking.  Returns the diagram and each object's atom keys."""
    spaces, lifts, atom_keys = {}, {}, {}
    for o in category.objects:
        index: dict = {}
        lift = lifts[o] = [index.setdefault(k, len(index)) for k in keys[o]]
        sums = [0] * len(index)
        for p, m in zip(lift, masses):
            sums[p] += m
        atom_keys[o] = list(index)
        spaces[o] = ProbSpace(Frame(build=partial(map, labels[o], atom_keys[o])), sums,
                              denom=denom)
    maps = {(i, j): Reduction._trusted(spaces[i], spaces[j], positions=_induced_positions(
                lifts[i], lifts[j], len(spaces[i])))
            for (i, j) in category.covers}
    return Diagram._trusted(category, spaces, maps), atom_keys


def _induced_positions(lift_src, lift_dst, size: int) -> np.ndarray:
    """As an int64 array of positions, the map of a `size`-atom source
    sending lift_src[z] to lift_dst[z] for every initial atom z: the
    composite, when there is one.  lift_src is onto, so every position is
    written."""
    positions = np.zeros(size, dtype=np.int64)
    positions[lift_src] = lift_dst
    return positions


def _joint_size(diagram: Diagram, objs) -> int:
    """How many distinct tuples of atoms at objs the initial atoms lift to:
    the joint's support.  A space over all of objs embeds in their joint
    exactly when this is its size, since its lift is onto.  Each tuple of
    positions is one mixed-radix int64 key, below the product of the sizes
    at objs; the callers pass one object or two, such as x and u, so a key
    is below |x|·|u|, at most the square of the initial size, far below
    2^63.  The keys are computed straight from the lifts, on a copy of the
    first, as lifts are shared, and the distinct keys are counted by
    sorting: on the 14,624 keys of a roundtrip's recovered diagram the whole
    count takes 0.12 ms, against 1.1 ms hashing the keys as Python ints into
    a set and 1.7 ms through `np.unique` (2 vCPU Xeon, numpy 2.4.6)."""
    first, *rest = objs
    keys = diagram._lift(first).copy()
    for o in rest:
        keys *= len(diagram.spaces[o])
        keys += diagram._lift(o)
    keys.sort()
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def _unnatural_at(source: Diagram, target: Diagram, maps: Mapping) -> str | None:
    """The first object o where maps[o] after source's lift to o differs from
    target's lift after maps[initial], for two diagrams of one shape, where
    maps[o] is positions in target's space at o in the order of source's;
    else None, and then every cover square commutes, since source's lifts
    are onto (and conversely, as squares compose along paths)."""
    init = source.initial
    base = np.asarray(maps[init])
    for o in source.category.objects:
        if o != init and not np.array_equal(np.asarray(maps[o])[source._lift(o)],
                                            target._lift(o)[base]):
            return o
    return None


def _first_change(old: Diagram, new: Diagram) -> str | None:
    """The first object whose space differs in two diagrams of one shape, else
    the source of the first cover whose map does, else None.  Maps compare as
    positions in old's spaces."""
    for o, space in old.spaces.items():
        if new.spaces[o] != space:
            return o
    for (i, j), red in old.prime_maps.items():
        if not red._same_map(new.prime_maps[(i, j)]):
            return i
    return None


def _restricted(source, positions, masses, category=None) -> Diagram:
    """source, a diagram or a set diagram, under `masses` over their sum on
    the initial atoms at `positions` (zero masses dropped), pushed through
    its lifts to every object of `category`, by default its own shape."""
    category = category or source.category
    if not all(masses):
        positions = list(itertools.compress(positions, masses))
        masses = [m for m in masses if m]
    keys = {o: source._lift(o).take(positions).tolist() for o in category.objects}
    labels = {o: source._atoms(o).__getitem__ for o in category.objects}
    return _from_initial_measure(category, masses, sum(masses), keys, labels)[0]


# -- entropy and algebra ---------------------------------------------------

def entropy_vector(diagram: Diagram) -> dict[str, float]:
    """Entropy (nats) of every space, keyed by object."""
    return {obj: sp.entropy for obj, sp in diagram.spaces.items()}


def tensor_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Object-wise independent product of two diagrams of the same shape."""
    if d1.category != d2.category:
        raise ShapeMismatchError("tensor needs diagrams over the same category")
    # Each space is the product of the two, in tensor_spaces' atom order,
    # and each map the product of two measure-preserving maps.
    spaces = {o: tensor_spaces(d1.spaces[o], d2.spaces[o]) for o in d1.category.objects}
    maps = {}
    for (i, j) in d1.category.covers:
        positions = _tensor_positions(d1.prime_maps[(i, j)].positions,
                                      d2.prime_maps[(i, j)].positions, len(d2.spaces[j]))
        maps[(i, j)] = Reduction._trusted(spaces[i], spaces[j], positions=positions)
    certified = d1.certified_homogeneous and d2.certified_homogeneous
    return Diagram._trusted(d1.category, spaces, maps, certified_homogeneous=certified)


def condition_diagram(diagram: Diagram, obj: str, atom) -> Diagram:
    """Condition on an atom of the space at obj.

    The initial measure is restricted to the fiber of the composite map to
    obj and renormalized exactly; every other space is the pushforward of
    the conditioned initial measure.
    """
    space = diagram.space(obj)
    if atom not in space:
        raise UnknownAtomError(f"atom {atom!r} not in the space at {obj!r}")
    p = space.frame.index[atom]
    fiber = np.flatnonzero(diagram._lift(obj) == p)
    masses = diagram.initial_space.masses
    return _restricted(diagram, fiber, list(map(masses.__getitem__, fiber.tolist())))


def conditioned_slices(diagram: Diagram, obj: str, members):
    """Each atom a of the space at obj, in order, with its slice
    sub_diagram(condition_diagram(diagram, obj, a), members).  The initial
    atoms are grouped by their image at obj in one pass, and each slice
    pushes only its own fiber through the lifts to the members.
    `verify_expansion` decides its slice clause without slices, by a
    grouped pass on the lifts, and builds them here only when that pass
    fails, to name the first u-atom and object that changed."""
    cat = sub_diagram(diagram, members).category
    fibers = [([], []) for _ in range(diagram._size(obj))]
    lift = diagram._lift(obj).tolist()
    for z, mass, p in zip(itertools.count(), diagram.initial_space.masses, lift):
        fibers[p][0].append(z)
        fibers[p][1].append(mass)
    for a, (positions, masses) in zip(diagram.spaces[obj].atoms, fibers):
        yield a, _restricted(diagram, positions, masses, cat)


def sub_diagram(diagram: Diagram, members) -> Diagram:
    """Restrict to a subset of objects (typically an ideal or co-ideal)."""
    if isinstance(members, SubCategory):
        member_list = members.members
        sub = members
    else:
        member_list = tuple(members)
        sub = SubCategory(diagram.category, member_list)
    try:
        cat = sub.as_category()
    except Exception as exc:
        raise NotClosedError(f"members {member_list!r} do not induce a category: {exc}") from exc
    spaces = {o: diagram.spaces[o] for o in cat.objects}
    maps = {c: diagram.composite_reduction(*c) for c in cat.covers}
    meta = diagram.coord_meta
    if meta is not None:
        meta = CoordMeta(meta.ell, {o: meta.coords[o] for o in cat.objects})
    return Diagram._trusted(cat, spaces, maps, coord_meta=meta,
                            certified_homogeneous=diagram.certified_homogeneous)


def cone_diagram(diagram: Diagram, obj: str, direction: str) -> Diagram:
    """Sub-diagram over the co-ideal (ancestors) or ideal (descendants) at obj."""
    return sub_diagram(diagram, cone_members(diagram.category, obj, direction))


def joint_space(diagram: Diagram, i: str, j: str) -> tuple[ProbSpace, Reduction, Reduction]:
    """Joint distribution of the spaces at i and j, with its two projections.

    The joint is the pushforward of the initial measure under the pair of
    lifts, so the fan (i <- joint -> j) is minimal by construction.  It is
    built by `_from_initial_measure` on one object, each pair of positions
    (p, q) keyed p |j| + q and projected back by // and %.
    """
    width = diagram._size(j)
    init = diagram.initial_space
    top, atom_keys = _from_initial_measure(
        IndexingCategory(["joint"], []), init.masses, init.denom,
        {"joint": (diagram._lift(i) * width + diagram._lift(j)).tolist()},
        {"joint": partial(_pair_atom, diagram._atoms(i), diagram._atoms(j), width)})
    joint, keys = top.spaces["joint"], atom_keys["joint"]
    to_i = Reduction._trusted(joint, diagram.spaces[i], positions=[k // width for k in keys])
    to_j = Reduction._trusted(joint, diagram.spaces[j], positions=[k % width for k in keys])
    return joint, to_i, to_j


# -- fans -------------------------------------------------------------------

@dataclass(frozen=True)
class FanIndices:
    """Objects designating a fan x <- z -> u inside one diagram."""

    x_obj: str
    z_obj: str
    u_obj: str


@dataclass(frozen=True)
class FanClassification:
    minimal: bool
    admissible: bool
    reduced: bool
    witness: tuple[str, ...]  # objects outside descendants(x) | ancestors(u)


def classify_fan(diagram: Diagram, fi: FanIndices) -> FanClassification:
    """Decide minimality, admissibility and reducedness of a designated fan.

    Minimality is joint-map injectivity; admissibility additionally needs
    z to be the initial object and every object to lie in the ideal of x
    or the co-ideal of u.
    """
    cat = diagram.category
    for obj in (fi.x_obj, fi.z_obj, fi.u_obj):
        cat.check_object(obj)
    if not (cat.reaches(fi.z_obj, fi.x_obj) and cat.reaches(fi.z_obj, fi.u_obj)):
        raise MapError("z must be an ancestor of both fan feet")

    z_card = len(diagram.spaces[fi.z_obj])
    minimal = _joint_size(diagram, (fi.x_obj, fi.u_obj)) == z_card

    inside = set(cat.descendants(fi.x_obj)) | set(cat.ancestors(fi.u_obj))
    witness = tuple(o for o in cat.objects if o not in inside)
    admissible = minimal and fi.z_obj == cat.initial and not witness
    reduced = admissible and len(diagram.spaces[fi.x_obj]) == z_card
    return FanClassification(minimal, admissible, reduced, witness)


class FanOfDiagrams:
    """A coupling witness: a diagram with reductions onto two diagrams of the
    same shape, natural in every prime map."""

    __slots__ = ("shape", "top", "left", "right", "proj_left", "proj_right")

    def __init__(self, top: Diagram, left: Diagram, right: Diagram,
                 proj_left: Mapping[str, Reduction], proj_right: Mapping[str, Reduction]):
        shape = top.category
        if left.category != shape or right.category != shape:
            raise ShapeMismatchError("fan requires three diagrams of the same shape")
        projections = []
        for name, projs, foot in (("left", proj_left, left), ("right", proj_right, right)):
            if set(projs) != set(shape.objects):
                raise MapError(f"{name} projections must cover every object")
            for obj, red in projs.items():
                if red.domain != top.spaces[obj] or red.target != foot.spaces[obj]:
                    raise MapError(f"{name} projection at {obj!r} mismatches the spaces")
            # positions are taken in the fan's own spaces, as in Diagram(...)
            projections.append({o: r._in_spaces(top.spaces[o], foot.spaces[o])
                                for o, r in projs.items()})
        self._store(top, left, right, *projections)
        self._check_natural()

    @classmethod
    def _trusted(cls, top: Diagram, left: Diagram, right: Diagram, proj_left: dict,
                 proj_right: dict) -> "FanOfDiagrams":
        """A fan that is natural by construction, stored unchecked and
        uncopied.  For use inside the package only."""
        fan = cls.__new__(cls)
        fan._store(top, left, right, proj_left, proj_right)
        return fan

    def _store(self, top, left, right, proj_left, proj_right) -> None:
        self.shape = top.category
        self.top = top
        self.left = left
        self.right = right
        self.proj_left = proj_left
        self.proj_right = proj_right

    def _check_natural(self) -> None:
        for projs, foot, name in ((self.proj_left, self.left, "left"),
                                  (self.proj_right, self.right, "right")):
            obj = _unnatural_at(self.top, foot, {o: r._array() for o, r in projs.items()})
            if obj is not None:
                raise CommutativityError(f"{name} projections not natural at {obj!r}")

    def __repr__(self) -> str:
        return f"FanOfDiagrams(shape={list(self.shape.objects)})"


def diagonal_fan(diagram: Diagram) -> FanOfDiagrams:
    ident = {o: Reduction.identity(diagram.spaces[o]) for o in diagram.category.objects}
    return FanOfDiagrams._trusted(diagram, diagram, diagram, ident, ident)


def _pair_fan(coupling: ProbSpace, first: Diagram, second: Diagram, *,
              first_on_left: bool = True) -> FanOfDiagrams:
    """The fan of `coupling`, a measure on pairs (a, b) of initial atoms of
    `first` and `second` whose marginals are their initial measures, pushed
    through the pairs of lifts, each pair of positions (p, q) keyed
    p * |second's space| + q, and projected back by // and %.  The left foot
    is `first` unless first_on_left is False."""
    index1, index2 = first.initial_space.frame.index, second.initial_space.frame.index
    pairs = [(index1[a], index2[b]) for a, b in coupling.atoms]
    keys, labels = {}, {}
    for o in first.category.objects:
        lift1, lift2, width = first._lift(o).tolist(), second._lift(o).tolist(), second._size(o)
        keys[o] = [lift1[p] * width + lift2[q] for p, q in pairs]
        labels[o] = partial(_pair_atom, first._atoms(o), second._atoms(o), width)
    top, atom_keys = _from_initial_measure(first.category, coupling.masses, coupling.denom,
                                           keys, labels)
    proj1, proj2 = {}, {}
    for o, s in top.spaces.items():
        width = second._size(o)
        proj1[o] = Reduction._trusted(s, first.spaces[o],
                                      positions=[k // width for k in atom_keys[o]])
        proj2[o] = Reduction._trusted(s, second.spaces[o],
                                      positions=[k % width for k in atom_keys[o]])
    if first_on_left:
        return FanOfDiagrams._trusted(top, first, second, proj1, proj2)
    return FanOfDiagrams._trusted(top, second, first, proj2, proj1)


def _pair_atom(atoms1: tuple, atoms2: tuple, width: int, key: int) -> tuple:
    return atoms1[key // width], atoms2[key % width]


def coupling_fan(left: Diagram, right: Diagram, initial_coupling: ProbSpace) -> FanOfDiagrams:
    """Fan built from a coupling of the two initial measures.

    initial_coupling lives on pairs (a, b) of initial atoms; its marginals
    must equal the two initial measures exactly, which is checked.  Every
    top space is the pushforward under the pair of composite maps, so the
    rest of the fan is natural by construction.
    """
    if left.category != right.category:
        raise ShapeMismatchError("coupling requires diagrams over the same category")
    for k, foot in enumerate((left, right)):
        marginal = pushforward(initial_coupling, {p: p[k] for p in initial_coupling.atoms})
        if marginal != foot.initial_space:
            raise NotSurjectiveError(
                f"marginal {k} of the coupling is not the initial measure of its foot")
    return _pair_fan(initial_coupling, left, right)


def tensor_fan(left: Diagram, right: Diagram) -> FanOfDiagrams:
    """The independent coupling of two diagrams of the same shape."""
    if left.category != right.category:
        raise ShapeMismatchError("coupling requires diagrams over the same category")
    return _pair_fan(tensor_spaces(left.initial_space, right.initial_space), left, right)


# -- arrow collapse ----------------------------------------------------------

def arrow_collapse(diagram: Diagram, cover: tuple[str, str]) -> Diagram:
    """Identify the two ends of a prime isomorphism arrow.

    The merged object keeps the descendant's id and space, and so its lift,
    which is the isomorphism applied after the lift of the ancestor.  Every
    map of the quotient is read off the lifts, as a composite is, and
    composes old maps with the isomorphism or its inverse, so the result
    holds by construction.
    """
    i, j = cover
    if cover not in diagram.category.covers:
        # delegate for precise error (unknown object / not prime)
        collapse_object_pair(diagram.category, i, j)
    if not diagram.prime_maps[cover].is_isomorphism():
        raise NotIsoError(f"prime map on {cover!r} is not an isomorphism")
    new_cat, _ = collapse_object_pair(diagram.category, i, j)
    spaces = {o: diagram.spaces[o] for o in new_cat.objects}
    # not _composite_positions, which refuses a new cover (j, q) where i -> q
    maps = {(p, q): Reduction._trusted(spaces[p], spaces[q], positions=_induced_positions(
                diagram._lift(p), diagram._lift(q), len(spaces[p])))
            for (p, q) in new_cat.covers}
    return Diagram._trusted(new_cat, spaces, maps)
