"""Finite poset indexing categories.

An indexing category is a finite poset category (at most one morphism either
way between two objects) in which every pair of objects has a least common
ancestor; consequently there is a unique initial object that reaches every
other object.  Morphisms are stored as cover relations (the transitive
reduction); composites are derived from reachability, never stored.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    BadParamError,
    CycleError,
    LcaViolationError,
    NoInitialObjectError,
    NotPrimeError,
    QuotientError,
    UnknownKindError,
    UnknownObjectError,
)

ANCESTORS = "ancestors"
DESCENDANTS = "descendants"


class IndexingCategory:
    """Validated poset category with the least-common-ancestor property.

    `covers` after construction is the transitive reduction of the declared
    relation; each stored cover is a prime morphism (it cannot be factored
    through a third object).  Object ids are opaque strings with no ordering
    semantics beyond the declared covers.  Instances are immutable.
    """

    __slots__ = ("objects", "covers", "initial", "_desc", "_anc", "_lca", "first_parent")

    def __init__(self, objects: Sequence[str], covers: Iterable[tuple[str, str]]):
        objects = list(objects)
        if not objects:
            raise BadParamError("category needs at least one object")
        if len(set(objects)) != len(objects):
            raise BadParamError("duplicate object ids")
        known = set(objects)
        edges = set()
        for pair in covers:
            a, b = pair
            if a not in known or b not in known:
                raise UnknownObjectError(f"cover {pair!r} uses undeclared objects")
            if a == b:
                raise CycleError(f"self-loop on {a!r}")
            edges.add((a, b))

        desc = _reachability(objects, edges)
        for obj in objects:
            for d in desc[obj]:
                if d != obj and obj in desc[d]:
                    raise CycleError(f"objects {obj!r} and {d!r} reach each other")

        anc = {o: frozenset(a for a in objects if o in desc[a]) for o in objects}
        roots = [o for o in objects if len(desc[o]) == len(objects)]
        if not roots:
            raise NoInitialObjectError("no object reaches every other object")
        initial = roots[0]

        lca = {}
        for i in objects:
            for j in objects:
                common = anc[i] & anc[j]
                # the least common ancestor is the common ancestor that every
                # other common ancestor reaches
                least = [c for c in common if all(c in desc[o] for o in common)]
                if len(least) != 1:
                    raise LcaViolationError(
                        f"objects {i!r}, {j!r} have no least common ancestor"
                    )
                lca[(i, j)] = least[0]

        self.objects = tuple(objects)
        self.covers = _transitive_reduction(objects, desc)
        self.initial = initial
        self._desc = desc
        self._anc = anc
        self._lca = lca
        # object -> the source of its first cover, in cover order
        self.first_parent = {j: i for (i, j) in reversed(self.covers)}

    # -- queries --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of objects; the size factor in distance bounds."""
        return len(self.objects)

    def check_object(self, obj: str) -> None:
        if obj not in self._desc:
            raise UnknownObjectError(f"unknown object {obj!r}")

    def reaches(self, a: str, b: str) -> bool:
        """True when the (possibly composite) morphism a -> b exists."""
        self.check_object(a)
        self.check_object(b)
        return b in self._desc[a]

    def descendants(self, obj: str) -> tuple[str, ...]:
        self.check_object(obj)
        return tuple(o for o in self.objects if o in self._desc[obj])

    def ancestors(self, obj: str) -> tuple[str, ...]:
        self.check_object(obj)
        return tuple(o for o in self.objects if o in self._anc[obj])

    def least_common_ancestor(self, i: str, j: str) -> str:
        self.check_object(i)
        self.check_object(j)
        return self._lca[(i, j)]

    def is_cover(self, i: str, j: str) -> bool:
        return (i, j) in self.covers

    def morphisms(self) -> tuple[tuple[str, str], ...]:
        """All non-identity morphisms (reachability pairs)."""
        return tuple(
            (a, b) for a in self.objects for b in self.objects if a != b and b in self._desc[a]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexingCategory):
            return NotImplemented
        return set(self.objects) == set(other.objects) and set(self.covers) == set(other.covers)

    def __hash__(self) -> int:
        return hash((frozenset(self.objects), frozenset(self.covers)))

    def __repr__(self) -> str:
        return f"IndexingCategory(objects={list(self.objects)}, covers={sorted(self.covers)})"


def _reachability(objects, edges) -> dict[str, frozenset]:
    out: dict[str, set] = {o: set() for o in objects}
    for a, b in edges:
        out[a].add(b)
    closed = {}
    for obj in objects:
        seen = {obj}
        stack = [obj]
        while stack:
            cur = stack.pop()
            for nxt in out[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed[obj] = frozenset(seen)
    return closed


def _transitive_reduction(objects, desc) -> tuple[tuple[str, str], ...]:
    covers = []
    for a in objects:
        for b in objects:
            if a == b or b not in desc[a]:
                continue
            if any(c != a and c != b and c in desc[a] and b in desc[c] for c in objects):
                continue
            covers.append((a, b))
    return tuple(covers)


def build_category(objects: Sequence[str], covers: Iterable[tuple[str, str]]) -> IndexingCategory:
    """Validate objects and covers into an IndexingCategory."""
    return IndexingCategory(objects, covers)


def standard_category(kind: str, n: int | None = None) -> IndexingCategory:
    """Named categories: two_fan, diamond, chain(n), full_lambda(n)."""
    if kind == "two_fan":
        return IndexingCategory(
            ["top", "left", "right"], [("top", "left"), ("top", "right")]
        )
    if kind == "diamond":
        return IndexingCategory(
            ["top", "left", "right", "bottom"],
            [("top", "left"), ("top", "right"), ("left", "bottom"), ("right", "bottom")],
        )
    if kind == "chain":
        if not isinstance(n, int) or n < 1:
            raise BadParamError(f"chain length must be a positive int, got {n!r}")
        objects = [str(i) for i in range(n, 0, -1)]
        covers = [(str(i + 1), str(i)) for i in range(1, n)]
        return IndexingCategory(objects, covers)
    if kind == "full_lambda":
        if not isinstance(n, int) or not 1 <= n <= 9:
            raise BadParamError(f"full_lambda size must be an int in 1..9, got {n!r}")
        subsets = []
        for size in range(n, 0, -1):
            for combo in combinations(range(1, n + 1), size):
                subsets.append(combo)
        label = {s: "".join(str(c) for c in s) for s in subsets}
        covers = []
        for s in subsets:
            if len(s) == 1:
                continue
            for drop in s:
                t = tuple(c for c in s if c != drop)
                covers.append((label[s], label[t]))
        return IndexingCategory([label[s] for s in subsets], covers)
    raise UnknownKindError(f"unknown category kind {kind!r}")


@dataclass(frozen=True)
class SubCategory:
    """A co-ideal (ancestors) or ideal (descendants) inside a parent category."""

    parent: IndexingCategory
    members: tuple[str, ...]

    def as_category(self) -> IndexingCategory:
        """The restriction, re-validated as an indexing category."""
        member_set = set(self.members)
        desc = {
            o: frozenset(d for d in self.parent._desc[o] if d in member_set)
            for o in self.members
        }
        covers = _transitive_reduction(list(self.members), desc)
        return IndexingCategory(self.members, covers)

    def __contains__(self, obj) -> bool:
        return obj in set(self.members)


def cone_members(cat: IndexingCategory, obj: str, direction: str) -> SubCategory:
    """The co-ideal (direction="ancestors") or ideal ("descendants") at obj."""
    cat.check_object(obj)
    if direction == ANCESTORS:
        members = cat.ancestors(obj)
    elif direction == DESCENDANTS:
        members = cat.descendants(obj)
    else:
        raise UnknownKindError(f"direction must be 'ancestors' or 'descendants', got {direction!r}")
    return SubCategory(cat, members)


def least_common_ancestor(cat: IndexingCategory, i: str, j: str) -> str:
    return cat.least_common_ancestor(i, j)


def collapse_object_pair(
    cat: IndexingCategory, i: str, j: str
) -> tuple[IndexingCategory, dict[str, str]]:
    """Merge the endpoints of the prime morphism i -> j into one object.

    The merged object keeps j's id and inherits all morphisms of both
    endpoints; no cycle can arise, since it would need a path from j to i.
    An LCA failure is reported as QuotientError rather than silently accepted.
    """
    if not cat.reaches(i, j) or i == j:
        raise NotPrimeError(f"no morphism {i!r} -> {j!r}")
    if not cat.is_cover(i, j):
        raise NotPrimeError(f"morphism {i!r} -> {j!r} factors through another object")

    mapping = {o: (j if o == i else o) for o in cat.objects}
    new_objects = [o for o in cat.objects if o != i]
    covers = [(mapping[a], mapping[b]) for (a, b) in cat.covers if (a, b) != (i, j)]
    try:
        quotient = IndexingCategory(new_objects, covers)
    except (LcaViolationError, NoInitialObjectError) as exc:
        raise QuotientError(f"collapse of {i!r}->{j!r} is not an indexing category: {exc}") from exc
    return quotient, mapping
