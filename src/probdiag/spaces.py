"""Finite probability spaces with exact rational weights.

A space is a frame of atoms and one integer mass per atom over a single
denominator: the weight of an atom is its mass divided by `denom`.  A frame
(`Frame`) is checked once, where it is made, and shared with its atom ->
position index by every space on it.  The index is built on first read, and
so are the atoms of a frame made lazily (the conditioned fan's y'), so
`len`, the masses and all work on positions leave atom labels unbuilt.

The denominator is canonical, the lcm of the reduced weight denominators,
so the masses share no common factor with it, and two spaces are equal
exactly when their denominators and atom-to-mass tables are, in any atom
order.  Pushforward, products and conditioning are integer operations, so
mass conservation is exact and assertable with zero tolerance;
`fractions.Fraction` weights are views built on demand.  Floating point
enters only at the entropy/log boundary.  Entropy is measured in nats.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    BadParamError,
    DuplicateAtomError,
    NegativeWeightError,
    NotSurjectiveError,
    TooLargeError,
    UnknownAtomError,
    UnknownKindError,
    WeightSumError,
)

# Atom labels of the two-point space returned by special_space("lambda", a).
# The light atom carries weight 1 - a, the heavy atom weight a.
LAMBDA_LIGHT = "light"
LAMBDA_HEAVY = "heavy"
DIRAC_ATOM = "*"
# cap on the atoms of one `tensor_spaces` product, which the distance bounds'
# tensor coupling builds on any two loaded diagrams; expansion's products stay
# within `expansion.MAX_EXPANDED_ATOMS` = 2^20 and tensor powers' supports
# within `tropical_bounds.POWER_SUPPORT_CAP`, so neither reaches it.  At the
# cap, CLI distance on two one-object 1024-atom diagrams: 1.3 s, 339 MB peak
# RSS on a 2 vCPU Xeon
MAX_TENSOR_ATOMS = 2 ** 20


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "3/4" and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise BadParamError(f"cannot interpret {value!r} as an exact rational")


class Frame:
    """The atoms of a space: distinct, in a fixed order, and read-only.

    Made from a tuple of atoms, or from `build`, a callable returning an
    iterable of them that runs on the first read of `atoms`, and then never
    again.  `index`, atom -> position, is built on first read unless given.
    A frame is not checked: the public `ProbSpace` constructor checks the
    atoms it makes one of, and the package's builders make frames whose
    atoms are distinct by construction."""

    __slots__ = ("_atoms", "_index", "_build")

    def __init__(self, atoms: tuple | None = None, *, index: dict | None = None,
                 build: Callable[[], Iterable] | None = None):
        self._atoms, self._index, self._build = atoms, index, build

    @property
    def atoms(self) -> tuple:
        if self._atoms is None:
            self._atoms, self._build = tuple(self._build()), None
        return self._atoms

    @property
    def index(self) -> dict:
        """Atom -> position in `atoms`."""
        if self._index is None:
            self._index = dict(zip(self.atoms, itertools.count()))
        return self._index


class ProbSpace:
    """A finite probability space: atoms with positive rational weights.

    Built from atoms and rational weights, or integer masses over `denom`:
    the atoms must be distinct and the weights non-negative, summing exactly
    to 1, and atoms of zero weight are dropped.  The package's builders pass
    a `Frame` instead of atoms, with one positive integer mass per frame
    atom over `denom`: the frame holds by construction and only the sum is
    checked.  Either way the masses are reduced to the canonical
    denominator.  Atom labels are opaque hashable values; their order is
    kept and used wherever deterministic iteration matters.

    `atoms` is the frame's, built on the first read if the frame is lazy
    and then a plain attribute; `len`, `masses`, `weights` and `entropy`
    never build it.  `==` and `hash` compare denominators and atom-to-mass
    tables in any atom order; spaces on one frame compare masses only.
    """

    __slots__ = ("atoms", "frame", "masses", "denom", "_fractions", "_entropy", "_hash")

    def __init__(self, atoms: Iterable | Frame, weights: Iterable, denom: int | None = None):
        if isinstance(atoms, Frame):
            masses = list(weights)
            if sum(masses) != denom:
                raise WeightSumError(f"masses sum to {sum(masses)}, not {denom}")
            self._settle(atoms, masses, denom)
            return
        atoms = tuple(atoms)
        if denom is None:
            fractions = [as_fraction(w) for w in weights]
            denom = math.lcm(*[w.denominator for w in fractions])
            masses = [w.numerator * (denom // w.denominator) for w in fractions]
        else:
            masses = list(weights)
            if not isinstance(denom, int) or denom < 1:
                raise BadParamError(f"denominator must be a positive int, got {denom!r}")
        if len(atoms) != len(masses):
            raise BadParamError("atoms and weights must have equal length")
        index = dict(zip(atoms, itertools.count()))
        if len(index) != len(atoms) or (masses and min(masses) < 0):
            _reject_atom(atoms, masses, denom)
        total = sum(masses)
        if not isinstance(total, int):
            raise BadParamError("masses over a denominator must be integers")
        if total != denom:
            raise WeightSumError(f"weights sum to {Fraction(total, denom)}, not 1")
        if not all(masses):
            atoms = tuple(a for a, m in zip(atoms, masses) if m)
            masses = [m for m in masses if m]
            index = None
        self._settle(Frame(atoms, index=index), masses, denom)

    def _settle(self, frame: Frame, masses: list, denom: int) -> None:
        """Store masses summing to denom on a frame, over the canonical
        denominator.  The common factor is taken 64 masses at a time, as it
        is usually 1 after the first few."""
        common = denom
        for start in range(0, len(masses), 64):
            if common == 1:
                break
            common = math.gcd(common, *masses[start:start + 64])
        if common > 1:
            masses = [m // common for m in masses]
            denom //= common
        self.frame = frame
        self.masses = tuple(masses)
        self.denom = denom
        if frame._atoms is not None:
            self.atoms = frame._atoms
        self._fractions = None
        self._entropy = None
        self._hash = None

    def __getattr__(self, name):
        # reached only while the `atoms` slot is unset: a lazy frame's
        # atoms, read once and then kept in the slot
        if name != "atoms":
            raise AttributeError(name)
        atoms = self.atoms = self.frame.atoms
        return atoms

    # -- basic queries ------------------------------------------------------

    def _weight_view(self) -> dict:
        """Atom -> exact Fraction weight, built on first use."""
        if self._fractions is None:
            d = self.denom
            self._fractions = {a: Fraction(m, d) for a, m in zip(self.atoms, self.masses)}
        return self._fractions

    @property
    def weights(self) -> tuple:
        d = self.denom
        return tuple(Fraction(m, d) for m in self.masses)

    def weight(self, atom) -> Fraction:
        try:
            return self._weight_view()[atom]
        except KeyError:
            raise UnknownAtomError(f"atom {atom!r} not in support") from None

    def get(self, atom, default=Fraction(0)) -> Fraction:
        return self._weight_view().get(atom, default)

    def items(self):
        return self._weight_view().items()

    def mass(self, atom) -> int:
        """Integer mass of an atom over `denom`; 0 outside the support."""
        position = self.frame.index.get(atom)
        return 0 if position is None else self.masses[position]

    def __contains__(self, atom) -> bool:
        return atom in self.frame.index

    def __len__(self) -> int:
        return len(self.masses)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ProbSpace):
            return NotImplemented
        if self.denom != other.denom or len(self.masses) != len(other.masses):
            return False
        if self.frame is other.frame or self.atoms == other.atoms:
            return self.masses == other.masses
        index, masses = other.frame.index, other.masses
        return all(a in index and masses[index[a]] == m
                   for a, m in zip(self.atoms, self.masses))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.denom, frozenset(zip(self.atoms, self.masses))))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{a!r}: {w}" for a, w in self.items())
        if len(inside) > 120:
            return f"ProbSpace(<{len(self)} atoms>)"
        return f"ProbSpace({{{inside}}})"

    def is_uniform(self) -> bool:
        return len(set(self.masses)) <= 1

    @property
    def entropy(self) -> float:
        """Shannon entropy in nats, computed from the exact weights."""
        if self._entropy is None:
            self._entropy = entropy_of_masses(self.masses, self.denom)
        return self._entropy


def _reject_atom(atoms: list, masses: list, denom: int) -> None:
    """Raise for the first atom that is negative or declared twice."""
    seen: set = set()
    for atom, mass in zip(atoms, masses):
        if mass < 0:
            raise NegativeWeightError(f"atom {atom!r} has weight {Fraction(mass, denom)}")
        if atom in seen:
            raise DuplicateAtomError(f"atom {atom!r} declared twice")
        seen.add(atom)


def entropy_of_masses(masses: Iterable[int], denom: int) -> float:
    """Shannon entropy in nats of integer masses over denom (summing to it).

    Each term is taken from the reduced weight, as float(w) times
    log(numerator) - log(denominator), which keeps precision for rationals
    whose float conversion would be extreme; terms are summed in order.
    """
    terms: dict[int, float] = {}
    total = 0.0
    for m in masses:
        if m == denom:
            continue
        term = terms.get(m)
        if term is None:
            common = math.gcd(m, denom)
            num, den = m // common, denom // common
            term = (num / den) * (math.log(num) - math.log(den))
            terms[m] = term
        total -= term
    return total


def special_space(kind: str, param=None) -> ProbSpace:
    """Named standard spaces: uniform(n), lambda(alpha), dirac.

    lambda(alpha) is the two-point space weighted (1-alpha, alpha); for
    alpha in {0, 1} it degenerates to a one-atom space.
    """
    if kind == "uniform":
        n = param
        if not isinstance(n, int) or n < 1:
            raise BadParamError(f"uniform size must be a positive int, got {param!r}")
        return ProbSpace([f"u{i}" for i in range(n)], [1] * n, denom=n)
    if kind == "lambda":
        alpha = as_fraction(param)
        if alpha < 0 or alpha > 1:
            raise BadParamError(f"lambda parameter must lie in [0, 1], got {alpha}")
        return ProbSpace([LAMBDA_LIGHT, LAMBDA_HEAVY], [1 - alpha, alpha])
    if kind == "dirac":
        atom = DIRAC_ATOM if param is None else param
        return ProbSpace([atom], [1], denom=1)
    raise UnknownKindError(f"unknown space kind {kind!r}")


def uniform(n: int) -> ProbSpace:
    return special_space("uniform", n)


def lambda_space(alpha) -> ProbSpace:
    return special_space("lambda", alpha)


def dirac(atom=None) -> ProbSpace:
    return special_space("dirac", atom)


def entropy(space: ProbSpace) -> float:
    return space.entropy


def tensor_spaces(x: ProbSpace, y: ProbSpace) -> ProbSpace:
    """Independent product; atoms are (a, b) pairs, entropy is additive.
    A product over MAX_TENSOR_ATOMS atoms is refused before it is built."""
    if len(x) * len(y) > MAX_TENSOR_ATOMS:
        raise TooLargeError(f"the product of {len(x)} and {len(y)} atoms has "
                            f"{len(x) * len(y)}, over the cap of {MAX_TENSOR_ATOMS}")
    frame = Frame(tuple(itertools.product(x.atoms, y.atoms)))
    masses = [ma * mb for ma in x.masses for mb in y.masses]
    return ProbSpace(frame, masses, denom=x.denom * y.denom)


def _tensor_positions(first, second, width: int) -> list:
    """Two maps' product as positions in a `tensor_spaces` product, where
    (v, w) sits at p_v * width + p_w, width being the second factor's size."""
    return [p * width + q for p in first for q in second]


def pushforward(space: ProbSpace, mapping: Mapping) -> ProbSpace:
    """Image measure under a total map on the support.

    Target atoms appear in order of first appearance while scanning the
    domain, which keeps downstream iteration deterministic.
    """
    acc: dict = {}
    for atom, mass in zip(space.atoms, space.masses):
        try:
            image = mapping[atom]
        except KeyError:
            raise UnknownAtomError(f"map undefined on atom {atom!r}") from None
        acc[image] = acc.get(image, 0) + mass
    return ProbSpace(Frame(tuple(acc)), acc.values(), denom=space.denom)


class Reduction:
    """A measure-preserving surjection between finite probability spaces.

    The pushforward of the domain weights must equal the target weights
    exactly.  The map is stored as positions only: the index in
    `target.atoms` of each domain atom's image, in domain order, as the list
    of Python ints (a range for an identity) or the read-only int64 array
    its builder computed; the other form is built on first read
    (`positions`, `_array`).  `mapping`, the atom dict keyed in domain
    order, is a view built only when read, with the target's own atoms as
    images.  All are shared by everything that reads them: treat them as
    read-only.  The constructor checks the map; the package's own builders,
    whose maps hold by construction, use `_trusted` instead.
    """

    __slots__ = ("domain", "target", "_mapping", "_positions", "_positions_array")

    def __init__(self, domain: ProbSpace, target: ProbSpace, mapping: Mapping):
        # The target position of each image (-1 outside the target), then the
        # image masses over the domain's denominator.  The image equals the
        # target exactly when every image is a target atom and every image
        # mass is the target mass scaled by domain.denom / target.denom,
        # which must be an integer: the target's denominator is canonical,
        # so it divides that of any measure equal to it.
        index = target.frame.index
        try:
            positions = [index.get(mapping[a], -1) for a in domain.atoms]
        except KeyError:
            missing = next(a for a in domain.atoms if a not in mapping)
            raise UnknownAtomError(f"map undefined on atom {missing!r}") from None
        sums = [0] * len(target)
        for p, mass in zip(positions, domain.masses):
            sums[p] += mass
        scale, remainder = divmod(domain.denom, target.denom)
        if remainder or -1 in positions or any(s != m * scale
                                               for s, m in zip(sums, target.masses)):
            raise NotSurjectiveError(
                "pushforward of the domain does not equal the declared target"
            )
        self.domain, self.target, self._mapping = domain, target, None
        self._positions, self._positions_array = positions, None

    @classmethod
    def _trusted(cls, domain: ProbSpace, target: ProbSpace, positions) -> "Reduction":
        """A reduction measure-preserving by construction, stored unchecked
        and uncopied: `positions` is a list, a range or an int64 array,
        which is then made read-only."""
        red = cls.__new__(cls)
        red.domain, red.target, red._mapping = domain, target, None
        red._positions = red._positions_array = None
        if isinstance(positions, np.ndarray):
            positions.setflags(write=False)
            red._positions_array = positions
        else:
            red._positions = positions
        return red

    @property
    def mapping(self) -> dict:
        """Domain atom -> image atom, keyed in domain order: a view."""
        if self._mapping is None:
            images = map(self.target.atoms.__getitem__, self.positions)
            self._mapping = dict(zip(self.domain.atoms, images))
        return self._mapping

    @property
    def positions(self):
        """The index in `target.atoms` of each domain atom's image, in domain
        order: a list of Python ints, or a range for an identity."""
        if self._positions is None:
            self._positions = self._positions_array.tolist()
        return self._positions

    def _array(self) -> np.ndarray:
        """`positions` as a read-only int64 array, built on first read."""
        if self._positions_array is None:
            array = np.fromiter(self._positions, dtype=np.int64, count=len(self.domain))
            array.setflags(write=False)
            self._positions_array = array
        return self._positions_array

    @classmethod
    def from_map(cls, domain: ProbSpace, mapping: Mapping, target_atoms=None) -> "Reduction":
        """Build the reduction onto its own pushforward, so it needs no check.

        When target_atoms is given, every listed atom must receive positive
        mass (otherwise the declared target class would be empty).
        """
        target = pushforward(domain, mapping)
        if target_atoms is not None:
            missing = [a for a in target_atoms if a not in target]
            if missing:
                raise NotSurjectiveError(f"target atoms {missing!r} receive no mass")
        index = target.frame.index
        return cls._trusted(domain, target, positions=[index[mapping[a]] for a in domain.atoms])

    @classmethod
    def identity(cls, space: ProbSpace) -> "Reduction":
        return cls._trusted(space, space, positions=range(len(space)))

    def preimage(self, atom) -> tuple:
        """The domain atoms mapped to a target atom, in domain order."""
        position = self.target.frame.index.get(atom)
        if position is None:
            raise UnknownAtomError(f"atom {atom!r} not in target support")
        fiber = np.flatnonzero(self._array() == position).tolist()
        return tuple(map(self.domain.atoms.__getitem__, fiber))

    def fiber(self, atom) -> ProbSpace:
        """The conditioned space over a target atom, renormalized exactly:
        the domain masses of the fiber over their sum."""
        fiber_atoms = self.preimage(atom)
        masses = [self.domain.mass(a) for a in fiber_atoms]
        return ProbSpace(fiber_atoms, masses, denom=sum(masses))

    def is_isomorphism(self) -> bool:
        return len(self.domain) == len(self.target)

    def _in_spaces(self, domain: ProbSpace, target: ProbSpace) -> "Reduction":
        """This map between `domain` and `target`, which list its spaces'
        atoms, maybe in another order: the one place where a map crosses
        between two orders of its atoms, by frame indexes."""
        if domain is self.domain and target is self.target:
            return self
        positions = self.positions
        if domain.frame is not self.domain.frame and domain.atoms != self.domain.atoms:
            index = self.domain.frame.index
            positions = [positions[index[a]] for a in domain.atoms]
        if target.frame is not self.target.frame and target.atoms != self.target.atoms:
            atoms, index = self.target.atoms, target.frame.index
            positions = [index[atoms[p]] for p in positions]
        return Reduction._trusted(domain, target, positions=positions)

    def _same_map(self, other: "Reduction") -> bool:
        """Whether other, on this map's atoms, sends each where this does."""
        return list(self.positions) == list(other._in_spaces(self.domain, self.target).positions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reduction):
            return NotImplemented
        return (self.domain == other.domain and self.target == other.target
                and self._same_map(other))

    def __hash__(self):
        return hash((self.domain, self.target))

    def __repr__(self) -> str:
        return f"Reduction(|{len(self.domain)}| -> |{len(self.target)}|)"


class _Overlap(NamedTuple):
    """Two measures as integer masses over D = lcm of their denominators, on
    `atoms` (the left support, then the rest of the right one): common is
    min(P, Q), the rests P - common and Q - common, each summing to `rest`.
    So the l1 distance is 2 rest / D and alpha is rest / D."""

    atoms: tuple
    denom: int
    common: list
    rest_left: list
    rest_right: list
    rest: int


def _overlap(p, q) -> _Overlap:
    """The overlap of two spaces or atom -> weight mappings."""
    p, q = (d if isinstance(d, ProbSpace) else ProbSpace(d, d.values()) for d in (p, q))
    denom = math.lcm(p.denom, q.denom)
    atoms = p.atoms + tuple(b for b in q.atoms if b not in p)
    left = [p.mass(a) * (denom // p.denom) for a in atoms]
    right = [q.mass(a) * (denom // q.denom) for a in atoms]
    common = [min(a, b) for a, b in zip(left, right)]
    rest_left = [a - c for a, c in zip(left, common)]
    rest_right = [b - c for b, c in zip(right, common)]
    return _Overlap(atoms, denom, common, rest_left, rest_right, sum(rest_left))


def tv_distance(pi, pi_prime) -> Fraction:
    """Total variation distance, the full l1 sum over the union of supports,
    of two spaces or atom -> weight mappings.

    Returned exactly as a Fraction; halve it to get the overlap coefficient
    alpha used by the local estimate.
    """
    overlap = _overlap(pi, pi_prime)
    return Fraction(2 * overlap.rest, overlap.denom)
