"""Commutative diagrams of finite probability spaces over indexing categories.

A diagram assigns a ProbSpace to every object and a measure-preserving
surjection to every cover of its indexing category; commutativity of all
composite paths is verified on construction.  Operations built from
pushforwards of the initial measure (conditioning, tensor, restriction,
joints) are commutative by construction and skip re-validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
    ShapeMismatchError,
    UnknownAtomError,
)
from .spaces import ProbSpace, Reduction, pushforward, tensor_spaces


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
                 "certified_homogeneous", "_composites")

    def __init__(self, category: IndexingCategory, spaces: Mapping[str, ProbSpace],
                 prime_maps: Mapping[tuple[str, str], Reduction], *,
                 validate: bool = True, coord_meta: CoordMeta | None = None,
                 certified_homogeneous: bool = False):
        if set(spaces) != set(category.objects):
            raise MapError("need exactly one space per object")
        if set(prime_maps) != set(category.covers):
            raise MapError("need exactly one map per cover of the category")
        for (i, j), red in prime_maps.items():
            if red.domain != spaces[i] or red.target != spaces[j]:
                raise MapError(f"map on cover {(i, j)!r} does not match the declared spaces")
        self.category = category
        self.spaces = dict(spaces)
        self.prime_maps = dict(prime_maps)
        self.coord_meta = coord_meta
        self.certified_homogeneous = certified_homogeneous
        self._composites: dict = {}
        if validate:
            self._check_commutativity()

    # -- composites -----------------------------------------------------

    def composite_mapping(self, src: str, dst: str) -> dict:
        """The composed atom map src -> dst (path independence is validated).

        The result is cached and shared; on a cover it is the prime map's
        own mapping.  Callers must not mutate it."""
        key = (src, dst)
        cached = self._composites.get(key)
        if cached is not None:
            return cached
        prime = self.prime_maps.get(key)
        if prime is not None:
            mapping = prime.mapping
        elif not self.category.reaches(src, dst):
            raise MapError(f"no morphism {src!r} -> {dst!r}")
        elif src == dst:
            mapping = {a: a for a in self.spaces[src].atoms}
        else:
            step = self._first_step(src, dst)
            rest = self.composite_mapping(step, dst)
            mapping = {a: rest[b] for a, b in self.prime_maps[(src, step)].mapping.items()}
        self._composites[key] = mapping
        return mapping

    def _first_step(self, src: str, dst: str) -> str:
        """Where the canonical path src -> dst (src != dst) goes first: the
        target of the first cover out of src, in cover order, that reaches
        dst.  A cover (src, dst) is its own canonical path."""
        for (i, j) in self.category.covers:
            if i == src and self.category.reaches(j, dst):
                return j
        raise MapError(f"no morphism {src!r} -> {dst!r}")

    def composite_reduction(self, src: str, dst: str) -> Reduction:
        """The composite src -> dst as a Reduction; on a cover it is the
        prime map itself."""
        prime = self.prime_maps.get((src, dst))
        if prime is not None:
            return prime
        return Reduction(self.spaces[src], self.spaces[dst], self.composite_mapping(src, dst))

    def _check_commutativity(self) -> None:
        # Canonical composites follow the first cover on some path; every
        # other cover must induce the same composite.  This local condition
        # implies agreement of all cover paths by induction on path length.
        # Where the canonical composite i -> dst itself steps through j it
        # is rest after via, so that comparison is skipped.
        for (i, j) in self.category.covers:
            via = self.prime_maps[(i, j)].mapping
            for dst in self.category.descendants(j):
                if self._first_step(i, dst) == j:
                    continue
                canonical = self.composite_mapping(i, dst)
                rest = self.composite_mapping(j, dst)
                for atom, b in via.items():
                    if rest[b] != canonical[atom]:
                        raise CommutativityError(
                            f"paths {i!r}->{dst!r} via {j!r} disagree at atom {atom!r}"
                        )

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
        return (self.category == other.category and self.spaces == other.spaces
                and {k: v.mapping for k, v in self.prime_maps.items()}
                == {k: v.mapping for k, v in other.prime_maps.items()})

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
    return Diagram(category, spaces, prime_maps, validate=True)


def constant_diagram(category: IndexingCategory, space: ProbSpace) -> Diagram:
    """The same space at every object with identity maps."""
    ident = {a: a for a in space.atoms}
    spaces = {o: space for o in category.objects}
    maps = {c: Reduction(space, space, ident) for c in category.covers}
    return Diagram(category, spaces, maps, validate=False)


def _project_bits(atom: int, positions: tuple[int, ...]) -> int:
    out = 0
    for t, p in enumerate(positions):
        out |= ((atom >> p) & 1) << t
    return out


def coordinate_diagram(category: IndexingCategory, coord_sets: Mapping[str, Iterable[int]],
                       ell: int) -> Diagram:
    """Uniform bit-vector diagram: each object carries the uniform measure on
    {0,1}^S for its coordinate set S, and maps are coordinate projections.

    Coordinate sets must shrink along morphisms and the initial object must
    carry all of 1..ell.  The result is homogeneous (the XOR translation
    group acts transitively) and carries a certificate to that effect.
    """
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
        spaces[obj] = ProbSpace(range(n), [1] * n, denom=n)
    maps = {}
    for (i, j) in category.covers:
        positions = tuple(coords[i].index(c) for c in coords[j])
        # images are the target's own atom objects, not one fresh int per
        # atom: a composite on a cover is this very mapping, and the joint
        # spaces and fibers built from it are then keyed by the same objects
        # as the spaces they are looked up in
        target = spaces[j].atoms
        mapping = {a: target[_project_bits(a, positions)] for a in spaces[i].atoms}
        maps[(i, j)] = Reduction(spaces[i], spaces[j], mapping)
    return Diagram(category, spaces, maps, validate=False,
                   coord_meta=CoordMeta(ell, coords), certified_homogeneous=True)


def _from_initial_measure(base: Diagram, measure: ProbSpace) -> Diagram:
    """Rebuild the diagram carrying a new measure on (a subset of) the
    initial support; every other space is the pushforward.  Commutative by
    construction."""
    spaces = {}
    for obj in base.category.objects:
        spaces[obj] = pushforward(measure, base.composite_mapping(base.initial, obj))
    maps = {}
    for (i, j) in base.category.covers:
        restricted = {a: base.prime_maps[(i, j)].mapping[a] for a in spaces[i].atoms}
        maps[(i, j)] = Reduction(spaces[i], spaces[j], restricted)
    return Diagram(base.category, spaces, maps, validate=False)


# -- entropy and algebra ---------------------------------------------------

def entropy_vector(diagram: Diagram) -> dict[str, float]:
    """Entropy (nats) of every space, keyed by object."""
    return {obj: sp.entropy for obj, sp in diagram.spaces.items()}


def tensor_diagrams(d1: Diagram, d2: Diagram) -> Diagram:
    """Object-wise independent product of two diagrams of the same shape."""
    if d1.category != d2.category:
        raise ShapeMismatchError("tensor needs diagrams over the same category")
    spaces = {o: tensor_spaces(d1.spaces[o], d2.spaces[o]) for o in d1.category.objects}
    maps = {}
    for cover in d1.category.covers:
        m1 = d1.prime_maps[cover].mapping
        m2 = d2.prime_maps[cover].mapping
        i, _ = cover
        mapping = {(a, b): (m1[a], m2[b]) for (a, b) in spaces[i].atoms}
        maps[cover] = Reduction(spaces[cover[0]], spaces[cover[1]], mapping)
    certified = d1.certified_homogeneous and d2.certified_homogeneous
    return Diagram(d1.category, spaces, maps, validate=False,
                   certified_homogeneous=certified)


def condition_diagram(diagram: Diagram, obj: str, atom) -> Diagram:
    """Condition on an atom of the space at obj.

    The initial measure is restricted to the fiber of the composite map to
    obj and renormalized exactly; every other space is the pushforward of
    the conditioned initial measure.
    """
    space = diagram.space(obj)
    if atom not in space:
        raise UnknownAtomError(f"atom {atom!r} not in the space at {obj!r}")
    comp = diagram.composite_mapping(diagram.initial, obj)
    init = diagram.initial_space
    fiber = [z for z in init.atoms if comp[z] == atom]
    masses = [init.mass(z) for z in fiber]
    measure = ProbSpace(fiber, masses, denom=sum(masses))
    return _from_initial_measure(diagram, measure)


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
    return Diagram(cat, spaces, maps, validate=False, coord_meta=meta,
                   certified_homogeneous=diagram.certified_homogeneous)


def cone_diagram(diagram: Diagram, obj: str, direction: str) -> Diagram:
    """Sub-diagram over the co-ideal (ancestors) or ideal (descendants) at obj."""
    return sub_diagram(diagram, cone_members(diagram.category, obj, direction))


def joint_space(diagram: Diagram, i: str, j: str) -> tuple[ProbSpace, Reduction, Reduction]:
    """Joint distribution of the spaces at i and j, with its two projections.

    The joint is the pushforward of the initial measure under the pair of
    composite maps, so the fan (i <- joint -> j) is minimal by construction.
    """
    ci = diagram.composite_mapping(diagram.initial, i)
    cj = diagram.composite_mapping(diagram.initial, j)
    pair = {z: (ci[z], cj[z]) for z in diagram.initial_space.atoms}
    joint = pushforward(diagram.initial_space, pair)
    to_i = Reduction(joint, diagram.spaces[i], {(a, b): a for (a, b) in joint.atoms})
    to_j = Reduction(joint, diagram.spaces[j], {(a, b): b for (a, b) in joint.atoms})
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

    cx = diagram.composite_mapping(fi.z_obj, fi.x_obj)
    cu = diagram.composite_mapping(fi.z_obj, fi.u_obj)
    z_atoms = diagram.spaces[fi.z_obj].atoms
    minimal = len({(cx[z], cu[z]) for z in z_atoms}) == len(z_atoms)

    inside = set(cat.descendants(fi.x_obj)) | set(cat.ancestors(fi.u_obj))
    witness = tuple(o for o in cat.objects if o not in inside)
    admissible = minimal and fi.z_obj == cat.initial and not witness
    reduced = admissible and len(diagram.spaces[fi.x_obj]) == len(z_atoms)
    return FanClassification(minimal, admissible, reduced, witness)


class FanOfDiagrams:
    """A coupling witness: a diagram with reductions onto two diagrams of the
    same shape, natural in every prime map."""

    __slots__ = ("shape", "top", "left", "right", "proj_left", "proj_right")

    def __init__(self, top: Diagram, left: Diagram, right: Diagram,
                 proj_left: Mapping[str, Reduction], proj_right: Mapping[str, Reduction],
                 *, validate: bool = True):
        shape = top.category
        if left.category != shape or right.category != shape:
            raise ShapeMismatchError("fan requires three diagrams of the same shape")
        for name, projs, foot in (("left", proj_left, left), ("right", proj_right, right)):
            if set(projs) != set(shape.objects):
                raise MapError(f"{name} projections must cover every object")
            for obj, red in projs.items():
                if red.domain != top.spaces[obj] or red.target != foot.spaces[obj]:
                    raise MapError(f"{name} projection at {obj!r} mismatches the spaces")
        self.shape = shape
        self.top = top
        self.left = left
        self.right = right
        self.proj_left = dict(proj_left)
        self.proj_right = dict(proj_right)
        if validate:
            self._check_natural()

    def _check_natural(self) -> None:
        for (i, j) in self.shape.covers:
            top_map = self.top.prime_maps[(i, j)].mapping
            for projs, foot, name in ((self.proj_left, self.left, "left"),
                                      (self.proj_right, self.right, "right")):
                foot_map = foot.prime_maps[(i, j)].mapping
                pi, pj = projs[i].mapping, projs[j].mapping
                for atom in self.top.spaces[i].atoms:
                    if pj[top_map[atom]] != foot_map[pi[atom]]:
                        raise CommutativityError(
                            f"{name} projections not natural on cover {(i, j)!r}"
                        )

    def __repr__(self) -> str:
        return f"FanOfDiagrams(shape={list(self.shape.objects)})"


def diagonal_fan(diagram: Diagram) -> FanOfDiagrams:
    ident = {o: Reduction.identity(diagram.spaces[o]) for o in diagram.category.objects}
    return FanOfDiagrams(diagram, diagram, diagram, ident, ident, validate=False)


def coupling_fan(left: Diagram, right: Diagram, initial_coupling: ProbSpace) -> FanOfDiagrams:
    """Fan built from a coupling of the two initial measures.

    initial_coupling lives on pairs (a, b) of initial atoms; its marginals
    must equal the two initial measures exactly.  Every top space is the
    pushforward under the pair of composite maps, so naturality holds by
    construction.
    """
    if left.category != right.category:
        raise ShapeMismatchError("coupling requires diagrams over the same category")
    cat = left.category
    top_spaces = {}
    pair_maps = {}
    for obj in cat.objects:
        cl = left.composite_mapping(cat.initial, obj)
        cr = right.composite_mapping(cat.initial, obj)
        mapping = {(a, b): (cl[a], cr[b]) for (a, b) in initial_coupling.atoms}
        top_spaces[obj] = pushforward(initial_coupling, mapping)
        pair_maps[obj] = mapping
    top_maps = {}
    for (i, j) in cat.covers:
        mi = pair_maps[i]
        send = {}
        for (a, b) in initial_coupling.atoms:
            send[mi[(a, b)]] = pair_maps[j][(a, b)]
        top_maps[(i, j)] = Reduction(top_spaces[i], top_spaces[j],
                                     {x: send[x] for x in top_spaces[i].atoms})
    top = Diagram(cat, top_spaces, top_maps, validate=False)
    proj_left = {o: Reduction(top_spaces[o], left.spaces[o],
                              {(a, b): a for (a, b) in top_spaces[o].atoms})
                 for o in cat.objects}
    proj_right = {o: Reduction(top_spaces[o], right.spaces[o],
                               {(a, b): b for (a, b) in top_spaces[o].atoms})
                  for o in cat.objects}
    return FanOfDiagrams(top, left, right, proj_left, proj_right, validate=False)


def tensor_fan(left: Diagram, right: Diagram) -> FanOfDiagrams:
    """The independent coupling of two diagrams of the same shape."""
    coupling = tensor_spaces(left.initial_space, right.initial_space)
    return coupling_fan(left, right, coupling)


# -- arrow collapse ----------------------------------------------------------

def arrow_collapse(diagram: Diagram, cover: tuple[str, str]) -> Diagram:
    """Identify the two ends of a prime isomorphism arrow.

    The merged object keeps the descendant's id and space; all inherited
    maps are rebuilt from composites (through the isomorphism where needed)
    and the result is re-validated.
    """
    i, j = cover
    if cover not in diagram.category.covers:
        # delegate for precise error (unknown object / not prime)
        collapse_object_pair(diagram.category, i, j)
    zeta = diagram.prime_maps[cover]
    if not zeta.is_isomorphism():
        raise NotIsoError(f"prime map on {cover!r} is not an isomorphism")
    zeta_inv = {b: a for a, b in zeta.mapping.items()}

    new_cat, mapping = collapse_object_pair(diagram.category, i, j)
    old = diagram.category

    def route(p: str, q: str) -> dict:
        # a quotient cover always has a direct witness pair: a reachability
        # created only through the merged node would put that node strictly
        # between p and q, contradicting coverhood
        pre_p = (j, i) if p == j else (p,)
        pre_q = (j, i) if q == j else (q,)
        for a in pre_p:
            for b in pre_q:
                if old.reaches(a, b):
                    comp = diagram.composite_mapping(a, b)
                    if a == i:  # merged domain carries X_j; enter through the iso
                        comp = {x: comp[zeta_inv[x]] for x in diagram.spaces[j].atoms}
                    if b == i:  # land in X_j through the iso
                        comp = {x: zeta.mapping[y] for x, y in comp.items()}
                    return comp
        raise MapError(f"no route for quotient cover {(p, q)!r}")

    spaces = {o: diagram.spaces[o] for o in new_cat.objects}
    maps = {}
    for (p, q) in new_cat.covers:
        maps[(p, q)] = Reduction(spaces[p], spaces[q], route(p, q))
    return Diagram(new_cat, spaces, maps, validate=True)
