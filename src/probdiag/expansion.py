"""Arrow expansion: inflate the sample side of a reduced admissible fan by an
independent uniform space.

Every space on the u-side (the ancestors of u) is tensored with a uniform
m-point space W; morphisms within that side become map x identity, and
morphisms leaving it first drop the W coordinate.  The arrow entropy of the
fan grows by exactly ln m while all conditioned x-side data is unchanged,
and marginalizing W out recovers the original diagram exactly, so expansion
is a right inverse of contraction."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagrams import (
    Diagram,
    FanIndices,
    classify_fan,
    conditioned_slices,
    _first_change,
    _induced_positions,
)
from .errors import (
    BadParamError,
    NotReducedError,
    ShapeMismatchError,
    TooLargeError,
    VerificationError,
)
from .spaces import Frame, ProbSpace, Reduction, tensor_spaces, _tensor_positions

ENTROPY_TOL = 1e-9
# cap on the atoms of the inflated u-side, m times its support; at the cap,
# reduced_two_fan(4, 3..4) with m = 52428: CLI expand --output 33 s, 1.55 GB
# peak RSS on a 2 vCPU Xeon
MAX_EXPANDED_ATOMS = 2 ** 20


@dataclass(frozen=True)
class ExpansionSpec:
    """A reduced admissible fan in a base diagram plus the W size m >= 1.

    The added arrow entropy is ln m; only integer sizes are realizable with
    finite spaces, so arbitrary lambda targets are approximated by the
    caller picking m, not by this module.  A fan whose x reaches u is
    refused: x would then be inflated with z, and the x-ideal would meet
    the u-side."""

    base: Diagram
    fan: FanIndices
    m: int

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int) or self.m < 1:
            raise BadParamError(f"W size must be a positive int, got {self.m!r}")
        cls = classify_fan(self.base, self.fan)
        if not cls.reduced:
            raise NotReducedError(f"fan {self.fan} is not a reduced admissible fan")
        if self.base.category.reaches(self.fan.x_obj, self.fan.u_obj):
            # then x lies on the u-side, and the x-ideal meets it
            raise BadParamError(f"fan {self.fan}: x reaches u, so W would inflate x as "
                                f"well and add no arrow entropy")
        support = sum(len(self.base.spaces[o]) for o in _u_side(self))
        if support * self.m > MAX_EXPANDED_ATOMS:
            raise TooLargeError(f"m = {self.m} inflates the u-side's {support} atoms to "
                                f"{support * self.m}, over the cap of {MAX_EXPANDED_ATOMS}")

    @property
    def added_entropy(self) -> float:
        return math.log(self.m)

    def w_space(self) -> ProbSpace:
        return ProbSpace([f"w{k}" for k in range(self.m)], [1] * self.m, denom=self.m)


def _u_side(spec: ExpansionSpec) -> set:
    return set(spec.base.category.ancestors(spec.fan.u_obj))


def expand_diagram(spec: ExpansionSpec) -> Diagram:
    """The inflated diagram; m = 1 returns the base unchanged.  W is
    independent and uniform, so the maps hold by construction."""
    if spec.m == 1:
        return spec.base
    base = spec.base
    inflate = _u_side(spec)
    w = spec.w_space()
    spaces = {}
    for obj in base.category.objects:
        spaces[obj] = tensor_spaces(base.spaces[obj], w) if obj in inflate else base.spaces[obj]
    maps = {}
    for (i, j) in base.category.covers:
        old = base.prime_maps[(i, j)]
        if i not in inflate:
            # a morphism cannot enter the u-side from outside it: its source
            # would then be an ancestor of u as well
            maps[(i, j)] = old
            continue
        # map x identity within the u-side; leaving it, W goes to one point
        w_map, width = (range(spec.m), spec.m) if j in inflate else ([0] * spec.m, 1)
        positions = _tensor_positions(old.positions, w_map, width)
        maps[(i, j)] = Reduction._trusted(spaces[i], spaces[j], positions=positions)
    return Diagram._trusted(base.category, spaces, maps)


def _check_shape(diagram: Diagram, spec: ExpansionSpec) -> None:
    if diagram.category != spec.base.category:
        raise ShapeMismatchError("the diagram is not over the shape of the expansion's base")


def strip_expansion(expanded: Diagram, spec: ExpansionSpec) -> Diagram:
    """Marginalize the W coordinate back out of the u-side, on positions.

    At each u-side object the (v, w) atoms are indexed by v in order of
    first appearance, the v's masses summed; each cover's positions are
    read through the indices at both ends, and each v must then have one
    image (the W marginal is well defined).  The input is a valid diagram,
    so a well-defined marginal preserves measure and commutes, and the
    result is built unchecked; `verify_expansion` compares it with the
    original."""
    _check_shape(expanded, spec)
    if spec.m == 1:
        return expanded
    inflate = _u_side(spec)
    spaces, index = {}, {}
    for obj in expanded.category.objects:
        space = spaces[obj] = expanded.spaces[obj]
        if obj not in inflate:
            continue
        bad = next((a for a in space.atoms if not (isinstance(a, tuple) and len(a) == 2)), None)
        if bad is not None:
            raise VerificationError(f"atom {bad!r} at {obj!r} is not a (v, w) pair")
        first: dict = {}
        lift = [first.setdefault(v, len(first)) for v, _ in space.atoms]
        sums = [0] * len(first)
        for p, mass in zip(lift, space.masses):
            sums[p] += mass
        spaces[obj] = ProbSpace(Frame(tuple(first)), sums, denom=space.denom)
        index[obj] = np.array(lift, dtype=np.int64)
    maps = {}
    for (i, j) in expanded.category.covers:
        red = expanded.prime_maps[(i, j)]
        if i in inflate:
            # a morphism cannot enter the u-side from outside it, so only
            # those from inside are stripped
            images = red._array()
            if j in inflate:
                images = index[j][images]
            positions = _induced_positions(index[i], images, len(spaces[i]))
            if not np.array_equal(positions[index[i]], images):
                raise VerificationError(f"W marginal ill-defined on cover {(i, j)!r}")
            red = Reduction._trusted(spaces[i], spaces[j], positions=positions)
        maps[(i, j)] = red
    return Diagram._trusted(expanded.category, spaces, maps)


def _x_table(diagram: Diagram, u: str, lift_x: np.ndarray, size_x: int, masses: np.ndarray):
    """The joint table of u and x under the initial masses, grouped by one
    sort as `_joint_size` counts it: its rows' (u position, x position)
    keys, as u · size_x + x, in sorted order, each row's mass sum, and each
    u position's total (every u position has rows, as lifts are onto)."""
    keys = diagram._lift(u) * size_x + lift_x
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys, sums = keys[starts], np.add.reduceat(masses[order], starts)
    counts = np.bincount(keys // size_x)
    return keys, sums, np.add.reduceat(sums, np.cumsum(counts) - counts)


def _slices_agree(original: Diagram, expanded: Diagram, spec: ExpansionSpec) -> bool:
    """The slice clause in one grouped pass on the lifts: whether, for every
    u-atom (v, w) of the expansion, the x-ideal conditioned on it equals the
    original's conditioned on v (on v itself when m = 1).  The spaces are
    checked before, so the x-ideal's spaces are the original's, maybe in
    another order, and each u-atom's head v is an atom of u.

    First, every cover map inside the x-ideal is compared once, whole, as
    positions in the original's spaces (`Reduction._same_map`).  Every
    atom has positive mass, so it lies in some slice, and the whole maps
    are equal exactly when every slice's restricted maps are, given equal
    supports.  Then only the conditioned laws at x are compared: each other
    object's is x's pushed through those equal maps.  The (u, x) joint
    tables are grouped by one sort each.  The expansion's u positions go to
    the original's through the head index, as `strip_expansion` strips
    them, and its x positions to the original's.  Every row must match its
    head's row at the same x-atom, with equal conditional masses, cross-
    multiplied by the u-atoms' totals; summed over a u-atom's rows, those
    products give its head's whole total, so the supports are equal too.
    Masses are int64 only when every product, at most the product of the
    two initial denominators, fits, and Python ints otherwise."""
    u, x = spec.fan.u_obj, spec.fan.x_obj
    x_ideal = set(original.category.descendants(x))
    for (i, j), red in original.prime_maps.items():
        other = expanded.prime_maps[(i, j)]
        if i not in x_ideal or other is red:
            continue
        if not red._same_map(other):
            return False

    old_x, new_x = original.spaces[x], expanded.spaces[x]
    size_x = len(old_x)
    lift_x = expanded._lift(x)
    if new_x is not old_x:
        # the position in old_x of each of new_x's atoms
        lift_x = Reduction.identity(new_x)._in_spaces(new_x, old_x)._array()[lift_x]
    u_atoms = expanded.spaces[u].atoms
    heads = (a[0] for a in u_atoms) if spec.m > 1 else u_atoms
    head = np.fromiter(map(original.spaces[u].frame.index.__getitem__, heads),
                       np.int64, len(u_atoms))

    old_init, new_init = original.initial_space, expanded.initial_space
    dtype = np.int64 if old_init.denom * new_init.denom < 2 ** 63 else object
    old_keys, old_sums, old_totals = _x_table(original, u, original._lift(x), size_x,
                                              np.array(old_init.masses, dtype=dtype))
    new_keys, new_sums, new_totals = _x_table(expanded, u, lift_x, size_x,
                                              np.array(new_init.masses, dtype=dtype))
    new_u = new_keys // size_x
    targets = head[new_u] * size_x + new_keys % size_x
    rows = np.searchsorted(old_keys, targets)
    if not np.array_equal(old_keys.take(rows, mode="clip"), targets):
        return False
    return bool(np.array_equal(new_sums * old_totals[head[new_u]],
                               old_sums[rows] * new_totals[new_u]))


@dataclass(frozen=True)
class ExpansionReport:
    arrow_entropy_before: float
    arrow_entropy_after: float
    added: float
    shifted_objects: tuple[str, ...]
    conditioned_slices_equal: bool
    admissible_after: bool
    reduced_after: bool
    recovered_exactly: bool


def verify_expansion(original: Diagram, expanded: Diagram,
                     spec: ExpansionSpec) -> ExpansionReport:
    """Check the expansion bookkeeping clause by clause.

    Raises VerificationError naming the first violated clause; returns the
    measured report when everything passes.  The slice clause (the x-ideal
    conditioned on each u-atom (v, w) is the original's conditioned on v)
    is decided by one grouped pass on the lifts, `_slices_agree`; only when
    it fails are the slices built (`conditioned_slices`), in u order, to
    name the first u-atom and object that changed."""
    _check_shape(original, spec)
    _check_shape(expanded, spec)
    fan = spec.fan
    inflate = _u_side(spec)
    added = spec.added_entropy

    h_x = original.spaces[fan.x_obj].entropy
    before = original.spaces[fan.z_obj].entropy - h_x
    after = expanded.spaces[fan.z_obj].entropy - expanded.spaces[fan.x_obj].entropy
    if abs(after - (before + added)) > ENTROPY_TOL:
        raise VerificationError(
            f"arrow entropy: expected {before + added}, got {after}")

    # the shift by exactly ln m, checked as the product it comes from (m = 1
    # leaves every space as it was)
    w = spec.w_space()
    for obj in original.category.objects:
        if obj in inflate:
            old = original.spaces[obj]
            if expanded.spaces[obj] != (tensor_spaces(old, w) if spec.m > 1 else old):
                raise VerificationError(f"entropy shift at {obj!r}: the space is not its "
                                        f"original times the uniform W on {spec.m} points")
        elif expanded.spaces[obj] != original.spaces[obj]:
            raise VerificationError(f"space at {obj!r} changed outside the u-side")

    if not _slices_agree(original, expanded, spec):
        # only a failure builds the slices, to name the first u-atom and object
        x_ideal = original.category.descendants(fan.x_obj)
        old_slices = dict(conditioned_slices(original, fan.u_obj, x_ideal))
        for atom, cond_new in conditioned_slices(expanded, fan.u_obj, x_ideal):
            obj = _first_change(old_slices[atom[0] if spec.m > 1 else atom], cond_new)
            if obj is not None:
                raise VerificationError(f"conditioned x-side changed at u-atom {atom!r}, "
                                        f"first at {obj!r}")

    cls = classify_fan(expanded, fan)
    if not cls.admissible:
        raise VerificationError("expanded fan is not admissible")
    if spec.m >= 2 and cls.reduced:
        raise VerificationError("expanded fan is still reduced")

    recovered = strip_expansion(expanded, spec)
    if recovered != original:
        raise VerificationError("marginalizing W does not recover the original")

    return ExpansionReport(
        arrow_entropy_before=before,
        arrow_entropy_after=after,
        added=added,
        shifted_objects=tuple(sorted(inflate)),
        conditioned_slices_equal=True,
        admissible_after=cls.admissible,
        reduced_after=cls.reduced,
        recovered_exactly=True,
    )
