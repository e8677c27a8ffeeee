"""Randomized arrow contraction on homogeneous diagrams.

Given an admissible fan (x <- z -> u) in a homogeneous diagram, the x-side
ideal is extended to a two-fan against the joint spaces with u.  Sampling N
atoms of u and conditioning on the sample yields a new fan whose sample
space V is uniform on the N indices; the fiber counts over the x-side
determine everything observable about the conditioned fan, so the
astronomically large sample-power spaces are never materialized, only their
conditioned slices.

Under any sample, the count of an x0 atom depends only on its fiber
pattern, the set of u fibers holding it.  So a contraction works on the P
pattern groups, not on the |x0| atoms: the counts are the multiplicities of
the sampled u atoms times the |u| x P pattern matrix, total variation is an
exact integer sum over the groups, and the conditioned x-side's masses at
each object are a precomputed atoms x P incidence times the counts.  The
patterns and incidences are computed once per extended fan.
"""
from __future__ import annotations

import math
import numbers
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .automorphisms import analyze, diagram_isomorphic
from .categories import DESCENDANTS, IndexingCategory, cone_members
from .diagrams import (
    Diagram,
    FanIndices,
    FanOfDiagrams,
    Reduction,
    classify_fan,
    constant_diagram,
    joint_space,
    sub_diagram,
    _induced_positions,
    _joint_size,
    _pair_fan,
    _restricted,
)
from .distances import local_estimate_bound
from .errors import (
    NotAdmissibleError,
    NotFanGeneratedError,
    NotHomogeneousError,
    OutOfRangeError,
    TooLargeError,
    UnknownKindError,
)
from .sampling import CategoricalSampler, np_rng_for
from .spaces import Frame, ProbSpace

DEFAULT_MATERIALIZE_CAP = 500_000
# cap on the bytes of int64 sample and count rows in one Monte-Carlo batch
MC_BATCH_BYTES = 64 * 2 ** 20
# cap on the draws N of one contraction; at the cap, CLI contract on
# coord_two_fan(17, 1..15, 14..17): 1.5 s, 209 MB on a 2 vCPU Xeon, most of it
# the sample space V
MAX_SAMPLE_SIZE = 2 ** 20


class _FiberPatterns(NamedTuple):
    """The x0 atoms grouped by fiber pattern, with the indices a
    contraction reads them through; x0 atoms are indexed in x0 order and
    u atoms by their row in u order."""

    pattern: np.ndarray        # |u| x P 0/1: which u fibers hold each pattern
    sizes: np.ndarray          # P: atoms per pattern
    atom_pattern: np.ndarray   # |x0|: the pattern of each x0 atom


@dataclass(frozen=True)
class ExtendedFan:
    """The x-side ideal coupled objectwise with u: a two-fan of diagrams over
    the ideal's shape, with natural projections onto the x-side and onto u.

    The fiber isomorphism verdict of each u atom is cached, and so is the
    conditioned x-side diagram of the reference atom when a verdict falls
    back to search; they depend only on the fan, not on any sampled run.
    So are, computed on first use, the coupled diagram, the fibers as x0
    atoms, the fiber patterns that contractions and the Monte-Carlo tails
    group x0 by, and the x-side incidences against those patterns that each
    contraction builds its conditioned x-side from."""

    shape: IndexingCategory
    xdiag: Diagram
    u_space: ProbSpace
    base: Diagram
    fan: FanIndices
    # the |u| x f int64 table of the fibers' x0 positions: a row per u atom
    # in u order, each in its fiber's order
    _fiber_positions: np.ndarray = field(repr=False, compare=False)
    _fiber_iso_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def x0(self) -> str:
        return self.shape.initial

    @property
    def x0_space(self) -> ProbSpace:
        return self.xdiag.spaces[self.x0]

    @property
    def x0_card(self) -> int:
        return len(self.x0_space)

    @property
    def fiber_size(self) -> int:
        return self._fiber_positions.shape[1]

    @cached_property
    def fibers(self) -> dict:
        """u atom -> tuple of the x0 atoms in the fiber over u."""
        x0_atoms = self.x0_space.atoms
        return {u: tuple(map(x0_atoms.__getitem__, row))
                for u, row in zip(self.u_space.atoms, self._fiber_positions.tolist())}

    @property
    def rho(self) -> Fraction:
        """Fiber density |x0 fiber| / |x0|; equals exp(-mutual information)."""
        return Fraction(self.fiber_size, self.x0_card)

    @cached_property
    def ydiag(self) -> Diagram:
        """The base's initial measure pushed to pairs (x_i, u) at each object
        x_i of the ideal: the pair fan of the joint of x0 and u, and u."""
        joint = joint_space(self.base, self.x0, self.fan.u_obj)[0]
        return _pair_fan(joint, self.xdiag, constant_diagram(self.shape, self.u_space)).top

    @cached_property
    def fiber_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """The x0 atoms grouped by which u fibers hold them.

        Returns a |u| x P 0/1 int64 matrix with one column per distinct
        pattern, in order of first appearance over the x0 atoms, and the
        int64 size of each pattern group.  Under any sample of u an atom's
        fiber count depends only on its pattern, so P columns stand for
        all |x0| atoms."""
        return self._patterns.pattern, self._patterns.sizes

    @cached_property
    def _patterns(self) -> _FiberPatterns:
        # The u rows holding an x0 atom are the bits of its row of int64
        # words, 63 rows a word, and equal rows of words are equal patterns.
        fiber_atoms = self._fiber_positions
        u_card = len(fiber_atoms)
        bits = np.zeros((self.x0_card, u_card // 63 + 1), dtype=np.int64)
        for row, atoms in enumerate(fiber_atoms):
            bits[atoms, row // 63] |= 1 << (row % 63)
        keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
        distinct, ids = _first_appearance(keys)
        # the smallest unsigned ids: |x0| of them are kept
        atom_pattern = ids.astype(np.min_scalar_type(distinct.size))
        pattern = np.zeros((u_card, distinct.size), dtype=np.int64)
        pattern[np.arange(u_card)[:, None], atom_pattern[fiber_atoms]] = 1
        sizes = np.bincount(atom_pattern, minlength=distinct.size)
        return _FiberPatterns(pattern, sizes, atom_pattern)

    @cached_property
    def _x_side_tables(self) -> dict:
        """The x-side ideal against the fiber patterns, read off its lifts:
        at each object the frame of its atoms in first-appearance order over
        the x0 atoms, which every covering run's conditioned x-side shares,
        the index among them of each x0 atom's image, and the integer
        incidence (atoms x P) counting each pattern's atoms over each atom."""
        atom_pattern = self._patterns.atom_pattern
        n_patterns = self._patterns.sizes.size
        objects: dict = {}
        for o in self.shape.objects:
            order, image = _first_appearance(self.xdiag._lift(o))
            incidence = np.bincount(image * n_patterns + atom_pattern,
                                    minlength=order.size * n_patterns)
            atoms = self.xdiag.spaces[o].atoms
            objects[o] = (Frame(tuple(map(atoms.__getitem__, order.tolist()))), image,
                          incidence.reshape(order.size, n_patterns))
        return objects

    @property
    def size_h(self) -> int:
        return self.shape.size

    @property
    def size_g(self) -> int:
        return self.base.category.size

    def conditioned_x_side(self, u_atom) -> Diagram:
        """The x-side ideal conditioned on a u atom (uniform on its fiber).

        Only the reference atom's diagram is cached: every verdict that
        falls back to search compares against it, while any other atom's
        diagram is read once, before its verdict is cached."""
        cached = self._fiber_iso_cache.get(("diagram", u_atom))
        if cached is None:
            fiber = self._fiber_positions[self.u_space.frame.index[u_atom]]
            cached = _restricted(self.xdiag, fiber, [1] * len(fiber))
            if u_atom == self.u_space.atoms[0]:
                self._fiber_iso_cache[("diagram", u_atom)] = cached
        return cached

    def fiber_isomorphic_to_reference(self, u_atom) -> bool:
        """Whether the conditioned x-side at u is isomorphic to the one at
        the reference atom (the first u atom); verified explicitly through
        the coordinate translation on the lifts when available, else by
        search over the two conditioned diagrams, which only then are
        built."""
        cached = self._fiber_iso_cache.get(("verdict", u_atom))
        if cached is not None:
            return cached
        u_ref = self.u_space.atoms[0]
        verdict = _fiber_translation_iso(self, u_atom, u_ref)
        if not verdict:
            verdict, _ = diagram_isomorphic(self.conditioned_x_side(u_atom),
                                            self.conditioned_x_side(u_ref))
        self._fiber_iso_cache[("verdict", u_atom)] = verdict
        return verdict


def extend_admissible_fan(diagram: Diagram, fi: FanIndices) -> ExtendedFan:
    """Build the extended two-fan over the ideal of the fan's x object.

    Requires the designated fan to be admissible and the diagram to be
    homogeneous (a constructor certificate is accepted).  Every per-object
    fan (x_i <- joint -> u) is minimal by construction.
    """
    cls = classify_fan(diagram, fi)
    if not cls.admissible:
        raise NotAdmissibleError(
            f"fan {fi} is not admissible (minimal={cls.minimal}, outside={cls.witness})")
    if not diagram.certified_homogeneous:
        report = analyze(diagram, count_automorphisms=False)
        if not report.homogeneous:
            raise NotHomogeneousError("contraction requires a homogeneous diagram")

    xdiag = sub_diagram(diagram, cone_members(diagram.category, fi.x_obj, DESCENDANTS))
    shape = xdiag.category
    u_space = diagram.spaces[fi.u_obj]

    # the x0 positions over each u in first-appearance order, as in ydiag's
    # initial space, read off the two lifts: the first initial atom of each
    # distinct (u, x0) pair, in initial order, stably grouped by u
    x_lift, u_lift = diagram._lift(shape.initial), diagram._lift(fi.u_obj)
    first = np.unique(u_lift * len(xdiag.spaces[shape.initial]) + x_lift, return_index=True)[1]
    first.sort()
    sizes = np.bincount(u_lift[first], minlength=len(u_space))
    if sizes.min() != sizes.max():
        raise NotHomogeneousError("fibers over u have unequal sizes")
    rows = x_lift[first[np.argsort(u_lift[first], kind="stable")]].reshape(len(u_space), -1)
    rows.setflags(write=False)
    return ExtendedFan(shape, xdiag, u_space, diagram, fi, rows)


@dataclass(frozen=True)
class ContractionParams:
    N: int
    t: float
    rho: Fraction
    seed: int


def default_parameters(ext: ExtendedFan, seed: int) -> ContractionParams:
    """N = ceil(ln^3|x0| / rho) and t = 10 / ln|x0|.

    Warns (without failing) when t > 1, i.e. |x0| < e^10, since the
    concentration regime needs t at most 1.
    """
    card = ext.x0_card
    if card < 2:
        raise OutOfRangeError("the x-side initial space must have at least 2 atoms")
    log_card = math.log(card)
    rho = ext.rho
    n = math.ceil(log_card ** 3 * rho.denominator / rho.numerator)
    t = 10.0 / log_card
    if t > 1.0:
        warnings.warn(
            f"t = 10/ln|x0| = {t:.3f} > 1: outside the concentration regime",
            RuntimeWarning, stacklevel=2)
    return ContractionParams(N=n, t=t, rho=rho, seed=seed)


@dataclass
class ContractionRun:
    """One sampled contraction: the conditioned fan and its statistics.

    Exact identities: nu sums to rho * |x0| and the conditioned weights sum
    to 1, both as rationals with zero tolerance.  All statistics are derived
    from the integer fiber counts, which the run keeps per fiber pattern
    (`ExtendedFan.fiber_patterns`); `counts` is the per-atom view of them.
    The conditioned x-side xprime is built on first read, from the pattern
    counts and N f, and so is fan_prime, from the sample the run keeps and
    xprime's lifts, and only when N f is at most DEFAULT_MATERIALIZE_CAP
    (else it reads None); reading fan_prime, or recovering a diagram from
    the run, builds xprime too.  So a run whose conditioned fan is never
    read, as in CLI `contract`, costs O(N + |x0|).  xprime is a function of
    the counts and the fan, and not a field: `==` on runs compares the
    statistics.  The sample is kept as positions into the u atoms, and no
    sampled atom is ever read.
    """

    params: ContractionParams
    pattern_counts: tuple  # count of each pattern's atoms, in pattern order
    alpha: Fraction       # half total variation against the uniform law
    height: float         # mean log fiber count of the conditioned fan
    coverage: bool
    fiber_iso_ok: bool
    ikd_upper: float
    rough_bound_used: bool
    vspace: ProbSpace
    x0_card: int
    fiber_size: int
    size_h: int
    size_g: int
    _ext: ExtendedFan = field(repr=False, compare=False)
    _u_pos: np.ndarray = field(repr=False, compare=False)  # the N sampled u positions

    @cached_property
    def xprime(self) -> Diagram:
        """The x-side ideal conditioned on the sample (`_conditioned_xprime`)."""
        counts = np.array(self.pattern_counts, dtype=np.int64)
        return _conditioned_xprime(self._ext, counts, self.params.N * self.fiber_size)

    @cached_property
    def fan_prime(self) -> FanOfDiagrams | None:
        """The conditioned two-fan (x' <- y' -> V), or None when N f exceeds
        DEFAULT_MATERIALIZE_CAP."""
        if self.params.N * self.fiber_size > DEFAULT_MATERIALIZE_CAP:
            return None
        return _materialize_fan(self._ext, self._u_pos, self.xprime, self.vspace)

    @cached_property
    def counts(self) -> dict:
        """x0 atom -> sample count, positive entries only, in the order the
        atoms are first counted (`_first_counted`)."""
        ext = self._ext
        counted = _first_counted(ext, _first_drawn(self._u_pos, len(ext.u_space)))
        atoms = map(ext.x0_space.atoms.__getitem__, counted.tolist())
        groups = ext._patterns.atom_pattern[counted].tolist()
        return dict(zip(atoms, map(self.pattern_counts.__getitem__, groups)))

    @property
    def nu(self) -> dict:
        """x0 atom -> exact multiplicity count / N."""
        n = self.params.N
        return {x: Fraction(c, n) for x, c in self.counts.items()}

    @property
    def _total_count(self) -> int:
        """The counts summed over all x0 atoms, exactly, group by group."""
        sizes = self._ext.fiber_patterns[1].tolist()
        return sum(c * w for c, w in zip(self.pattern_counts, sizes))

    @property
    def sum_nu(self) -> Fraction:
        return Fraction(self._total_count, self.params.N)

    @property
    def total_mass(self) -> Fraction:
        return Fraction(self._total_count, self.params.N * self.fiber_size)

    def height_thresholds(self) -> tuple[float, float]:
        """ln(N rho) + t, and 4 ln ln |x0|."""
        n_rho = self.params.N * float(self.params.rho)
        return (math.log(n_rho) + self.params.t,
                4.0 * math.log(math.log(self.x0_card)))

    def ikd_caps(self) -> tuple[float, float]:
        """20 times the witness shape size, and 20 times the ambient size."""
        return 20.0 * self.size_h, 20.0 * self.size_g


def _fiber_translation_iso(ext: ExtendedFan, u_atom, u_ref) -> bool:
    """Whether XOR by the coordinate translation taking u_ref to u_atom is
    an isomorphism from the x-side conditioned on u_atom to the x-side
    conditioned on u_ref; False when the fan has no coordinate certificate,
    and the caller then searches.

    The shift at object o, s_o, is the translation's bits at o's
    coordinates.  On a coordinate space an atom is its own position, so
    with F and F_ref the two fibers as x0 positions and lift_o the lift of
    o, this is `verify_explicit_iso` on the two conditioned diagrams, read
    off the lifts without building either:
    - at x0, np.bincount(F ^ s_x0) == np.bincount(F_ref): the shift carries
      one fiber onto the other;
    - at every other o, lift_o[F ^ s_x0] == lift_o[F] ^ s_o: the shifts
      commute with the lifts, and so with every cover map, as the lifts
      are onto.  Then the masses at o, the counts of lift_o over the two
      fibers, agree too.
    All of it is integer arithmetic, so the verdict is exact."""
    meta = ext.base.coord_meta
    if meta is None:
        return False
    table = meta.embed(ext.fan.u_obj, u_atom ^ u_ref)
    rows = ext.u_space.frame.index
    fiber = ext._fiber_positions[rows[u_atom]]
    ref = ext._fiber_positions[rows[u_ref]]
    moved = fiber ^ meta.extract(ext.x0, table)
    card = ext.x0_card
    if not np.array_equal(np.bincount(moved, minlength=card), np.bincount(ref, minlength=card)):
        return False
    lifts = ((o, ext.xdiag._lift(o)) for o in ext.shape.objects if o != ext.x0)
    return all(np.array_equal(lift[moved], lift[fiber] ^ meta.extract(o, table))
               for o, lift in lifts)


def _first_drawn(positions: np.ndarray, size: int) -> np.ndarray:
    """The distinct positions of a sample into `size` atoms, in the order
    first drawn, in O(N + size): the first index of each position is the
    least of its indices, kept by `np.minimum.at`, and those indices, marked
    in sample order, pick the positions out."""
    n = positions.size
    first = np.full(size, n, dtype=np.int64)
    np.minimum.at(first, positions, np.arange(n))
    marked = np.zeros(n, dtype=bool)
    marked[first[first < n]] = True
    return positions[marked]


def _first_counted(ext: ExtendedFan, rows: np.ndarray) -> np.ndarray:
    """The x0 positions counted over the fibers of the distinct sampled u
    atoms (rows, in sampling order), in the order they are first counted,
    row by row in fiber order: the atoms of a row whose pattern no earlier
    row holds.  Only the rows that first hold some pattern, at most P of
    them, have such atoms, so only their fibers are read: O(|x0|)."""
    patterns = ext._patterns
    held = patterns.pattern[rows]
    first_row = held.argmax(axis=0)
    leaders = sorted(set(first_row[held.any(axis=0)].tolist()))
    return np.concatenate([fiber[first_row[patterns.atom_pattern[fiber]] == k]
                           for k, fiber in zip(leaders, ext._fiber_positions[rows[leaders]])])


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in order of first appearance, and the index
    among them of each value."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    return values[np.sort(first)], np.argsort(np.argsort(first))[inverse]


def _deviation_sum(counts, sizes, card: int, nf: int):
    """sum_p w_p |c_p |x0| - N f| over the pattern groups, for counts c
    (one sample, or one sample per row) and group sizes w: 2 N f |x0| times
    the total variation alpha against the uniform law.  An uncovered group
    (c_p = 0) deviates by N f per atom.  Exact over int64 below 2^63 and over
    Python ints in object arrays."""
    return np.abs(counts * card - nf) @ sizes


def _conditioned_xprime(ext: ExtendedFan, counts: np.ndarray, nf: int) -> Diagram:
    """The x-side under the conditioned x0 law count / (N f): at each object
    the masses are its incidence times the pattern counts, over its atoms in
    first-appearance order over the counted x0 atoms (all of them, in x0
    order, when the sample covers x0), as pushing the law forward gives,
    and each map is read off the counted atoms' positions at its two ends.
    When the sample covers x0, each space is on the frame the fan's tables
    hold."""
    covered = None if counts.all() else counts[ext._patterns.atom_pattern] > 0
    spaces: dict = {}
    lifts: dict = {}
    for o, (frame, image, incidence) in ext._x_side_tables.items():
        masses = incidence @ counts
        lifts[o] = image
        if covered is not None:
            order, lifts[o] = _first_appearance(image[covered])
            frame = Frame(tuple(map(frame.atoms.__getitem__, order.tolist())))
            masses = masses[order]
        spaces[o] = ProbSpace(frame, masses.tolist(), denom=nf)
    maps = {(i, j): Reduction._trusted(spaces[i], spaces[j], positions=_induced_positions(
                lifts[i], lifts[j], len(spaces[i])))
            for (i, j) in ext.shape.covers}
    return Diagram._trusted(ext.shape, spaces, maps)


def contract_once(ext: ExtendedFan, params: ContractionParams) -> ContractionRun:
    """Sample u N times and condition the extended fan on the sample.

    The sample is drawn in one call, as positions into u's atoms, and N
    over MAX_SAMPLE_SIZE is refused before any draw.  The sample-power
    spaces are virtual: the multiplicities of the sampled
    u atoms give one count per fiber pattern, which is the exact
    conditioned law of every atom of the pattern.  Total variation is the
    exact integer sum over the groups and the height the per-atom terms
    summed in the order the atoms are first counted.  The conditioned
    x-side is left to the run's first read of xprime.  The fiber
    isomorphism with the unconditioned slices is verified for every
    distinct sampled atom.  So the op is O(N + |x0|).  N must be a positive
    integer.
    """
    _require_positive_int("N", params.N)
    if params.N > MAX_SAMPLE_SIZE:
        raise TooLargeError(f"N = {params.N} draws is over the cap of {MAX_SAMPLE_SIZE}")
    rng = random.Random(params.seed)
    u_pos = CategoricalSampler(ext.u_space).draw_positions(rng, params.N)
    multiplicity = np.bincount(u_pos, minlength=len(ext.u_space))

    patterns = ext._patterns
    n, f, card = params.N, ext.fiber_size, ext.x0_card
    nf = n * f
    counts = multiplicity @ patterns.pattern
    exact_counts = counts.astype(object)
    sizes = patterns.sizes.astype(object)
    assert exact_counts @ sizes == nf, "fiber counting identity failed"
    coverage = bool(counts.all())

    alpha = Fraction(_deviation_sum(exact_counts, sizes, card, nf), 2 * nf * card)

    # each atom's term (c / (N f)) ln c, summed one atom at a time in the
    # order of first count, as the float sum is not associative
    terms = np.array([(c / nf) * math.log(c) if c else 0.0 for c in counts.tolist()])
    counted = _first_counted(ext, _first_drawn(u_pos, len(ext.u_space)))
    height = float(np.add.accumulate(terms[patterns.atom_pattern[counted]])[-1])

    # conditioned-fiber isomorphism against the reference atom of u; the
    # verdicts are run-independent and cached on the fan
    fiber_iso_ok = all(ext.fiber_isomorphic_to_reference(ext.u_space.atoms[p])
                       for p in np.flatnonzero(multiplicity).tolist())

    if coverage:
        ikd_upper = local_estimate_bound(ext.size_h, card, alpha)
        rough = False
    else:
        ikd_upper = 2.0 * ext.size_h * math.log(card)
        rough = True

    return ContractionRun(params=params, pattern_counts=tuple(counts.tolist()),
                          alpha=alpha, height=height,
                          coverage=coverage, fiber_iso_ok=fiber_iso_ok,
                          ikd_upper=ikd_upper, rough_bound_used=rough,
                          vspace=_sample_space(n),
                          x0_card=card, fiber_size=f,
                          size_h=ext.size_h, size_g=ext.size_g,
                          _ext=ext, _u_pos=u_pos)


@lru_cache(maxsize=8)
def _sample_space(n: int) -> ProbSpace:
    """V, uniform on the sample indices 1..N; one space per N, shared by
    every run that samples N times."""
    return ProbSpace(range(1, n + 1), [1] * n, denom=n)


def _materialize_fan(ext: ExtendedFan, u_pos: np.ndarray, xprime: Diagram,
                     vspace: ProbSpace) -> FanOfDiagrams:
    """The conditioned two-fan (x' <- y' -> V) with y' built explicitly.

    y' is the tagged union of the sampled fibers: y'0 is uniform on the
    pairs (x, k) with x in the fiber over the k-th sampled u atom u_k.  At
    each object o it holds the atoms (a, k) of the x-side conditioned on
    u_k, in sample order; its maps send (a, k) to (a's image, k) and its
    projections to a and to k.  All of it is read off x''s lifts on the
    D x f block of the distinct sampled fibers, in order of first draw, as
    x'0 positions (x'0 lists the counted x0 atoms in x0 order):
    `_first_appearance` of the keys block * |x'_o| + lift_o gives each
    block's atoms in the order its fiber reaches them, their positions in
    x' and the index among them of every fiber entry, whose counts are the
    masses over N f and which induce the cover maps.  y' gathers each block
    once per draw, in sample order, through one index array, `np.repeat`
    of each block's offset less its start.  Its atoms (a, k) are built only
    if something reads them (`_tagged_atoms`)."""
    drawn, which = _first_appearance(u_pos)  # which: each sample's block
    fibers = ext._fiber_positions[drawn]
    fibers = np.unique(fibers, return_inverse=True)[1].reshape(fibers.shape)
    f, n = ext.fiber_size, u_pos.size

    spaces: dict = {}
    ids: dict = {}
    gather: dict = {}
    tags: dict = {}
    shift: dict = {}
    proj_left: dict = {}
    proj_right: dict = {}
    for o in ext.shape.objects:
        target = xprime.spaces[o]
        keys = np.arange(drawn.size)[:, None] * len(target) + xprime._lift(o)[fibers]
        distinct, ids[o] = _first_appearance(keys.ravel())
        block_size = np.bincount(distinct // len(target), minlength=drawn.size)
        size = block_size[which]
        offset = np.cumsum(block_size) - block_size
        shift[o] = np.cumsum(size) - size - offset[which]
        gather[o] = np.arange(size.sum()) - np.repeat(shift[o], size)
        left = (distinct % len(target))[gather[o]]
        # the k-th block is the (k-1)-th atom of V, k itself
        tags[o] = np.repeat(np.arange(n), size)
        frame = Frame(build=partial(_tagged_atoms, target, left, tags[o], vspace))
        masses = np.bincount(ids[o])[gather[o]]
        space = spaces[o] = ProbSpace(frame, masses.tolist(), denom=n * f)
        proj_left[o] = Reduction._trusted(space, target, positions=left)
        proj_right[o] = Reduction._trusted(space, vspace, positions=tags[o])
    maps: dict = {}
    for (i, j) in ext.shape.covers:
        local = _induced_positions(ids[i], ids[j], int(ids[i].max()) + 1)
        positions = local[gather[i]] + shift[j][tags[i]]
        maps[(i, j)] = Reduction._trusted(spaces[i], spaces[j], positions=positions)
    top = Diagram._trusted(ext.shape, spaces, maps)
    return FanOfDiagrams._trusted(top, xprime, constant_diagram(ext.shape, vspace),
                                  proj_left, proj_right)


def _tagged_atoms(xprime_space: ProbSpace, left: np.ndarray, tags: np.ndarray,
                  vspace: ProbSpace):
    """The atoms of y' at one object: (a, k) for each of its positions, a
    being x''s atom at its proj_left position and k V's atom at its tag."""
    return zip(map(xprime_space.atoms.__getitem__, left.tolist()),
               map(vspace.atoms.__getitem__, tags.tolist()))


def recover_collapsed_diagram(diagram: Diagram, fi: FanIndices,
                              run: ContractionRun) -> Diagram:
    """Reassemble a diagram of the original combinatorial type from a run.

    x-side objects carry the conditioned spaces; each strict ancestor of u
    carries the joint of its largest x-side descendant with the sample space
    V; u itself carries V.  Requires the input to be fan-generated: every
    such ancestor must embed into that joint (checked at runtime), and u
    must have no descendants of its own.
    """
    cat = diagram.category
    x_side = set(cat.descendants(fi.x_obj))
    u_side = set(cat.ancestors(fi.u_obj))
    if fi.u_obj in x_side:
        raise NotFanGeneratedError("u lies in the ideal of x; nothing to contract")
    if len(cat.descendants(fi.u_obj)) > 1:
        raise NotFanGeneratedError("u with proper descendants is not supported")

    # largest x-side descendant of each sample-side object
    dmax: dict = {}
    for g in u_side:
        if g == fi.u_obj:
            continue
        among = [h for h in cat.descendants(g) if h in x_side]
        top = [m for m in among if all(cat.reaches(m, h) for h in among)]
        if among and not top:
            raise NotFanGeneratedError(f"object {g!r} has no largest x-side descendant")
        dmax[g] = top[0] if among else None

    # fan-generated check: g must embed into the joint of dmax(g) and u
    for g, d in dmax.items():
        feet = (fi.u_obj,) if d is None else (d, fi.u_obj)
        if _joint_size(diagram, feet) != len(diagram.spaces[g]):
            raise NotFanGeneratedError(
                f"space at {g!r} is not the joint of its feet")

    if run.fan_prime is None:
        nf = run.params.N * run.fiber_size
        raise TooLargeError(f"run carries no materialized fan: N f = {nf} exceeds "
                            f"the materialization cap {DEFAULT_MATERIALIZE_CAP}")
    yprime = run.fan_prime.top

    spaces: dict = {}
    for obj in cat.objects:
        if obj in x_side:
            spaces[obj] = run.xprime.spaces[obj]
        elif obj == fi.u_obj:
            spaces[obj] = run.vspace
        else:
            d = dmax[obj]
            spaces[obj] = run.vspace if d is None else yprime.spaces[d]

    # Every map is one the run already built and checked: a composite of the
    # conditioned x-side or of y', or a projection of y' onto V or x'.  On a
    # cover p -> q into the x-side, q is dmax(p) itself, since anything else
    # would lie strictly between p and q.
    def reduction(p: str, q: str) -> Reduction:
        if p in x_side:
            return run.xprime.composite_reduction(p, q)
        dp = dmax.get(p)
        if q == fi.u_obj or (q in u_side and dmax.get(q) is None):
            if dp is None:
                return Reduction.identity(run.vspace)
            return run.fan_prime.proj_right[dp]
        if q in x_side:
            return run.fan_prime.proj_left[dp]
        return yprime.composite_reduction(dp, dmax[q])

    maps = {(p, q): reduction(p, q) for (p, q) in cat.covers}
    return Diagram(cat, spaces, maps)


# -- tail bounds and Monte-Carlo verification --------------------------------


@dataclass(frozen=True)
class TailBound:
    bound: float
    threshold: float | None


def tail_bounds(kind: str, n: int, rho, t: float, *, x0_card: int | None = None,
                size: int | None = None) -> TailBound:
    """Analytic tail bounds for the contraction statistics.

    binomial_i: P{|nu - rho| > rho t} <= 2 exp(-N rho t^2 / 3), t in [0, 1].
    binomial_ii: P{(nu/rho) ln(nu/rho) > t} <= exp(-N rho t^2 / 12), t in [0, 2].
    totalvar: the binomial_i bound times |x0|, event 2 alpha > t.
    ikd: same bound, event bound-value > t * 2 * size * ln|x0|.
    height: |x0| exp(-N rho t^2 / 12), event height > ln(N rho) + t.
    n, x0_card and size are positive integers; ikd needs x0_card >= 2.
    """
    _require_positive_int("n", n)
    for name, value in (("x0_card", x0_card), ("size", size)):
        if value is not None:
            _require_positive_int(name, value)
    rho = float(Fraction(rho) if not isinstance(rho, float) else rho)
    if not 0 < rho <= 1:
        raise OutOfRangeError(f"rho must lie in (0, 1], got {rho}")
    exponent_third = math.exp(-n * rho * t * t / 3.0)
    exponent_twelfth = math.exp(-n * rho * t * t / 12.0)
    if kind == "binomial_i":
        if not 0 <= t <= 1:
            raise OutOfRangeError(f"binomial_i needs t in [0, 1], got {t}")
        return TailBound(2.0 * exponent_third, None)
    if kind == "binomial_ii":
        if not 0 <= t <= 2:
            raise OutOfRangeError(f"binomial_ii needs t in [0, 2], got {t}")
        return TailBound(exponent_twelfth, None)
    if kind == "totalvar":
        if not 0 <= t <= 1:
            raise OutOfRangeError(f"totalvar needs t in [0, 1], got {t}")
        if x0_card is None:
            raise OutOfRangeError("totalvar bound needs x0_card")
        return TailBound(2.0 * x0_card * exponent_third, t)
    if kind == "ikd":
        if not 0 <= t <= 1:
            raise OutOfRangeError(f"ikd needs t in [0, 1], got {t}")
        if x0_card is None or size is None:
            raise OutOfRangeError("ikd bound needs x0_card and size")
        if x0_card < 2:
            raise OutOfRangeError(f"ikd needs x0_card >= 2, got {x0_card}")
        if t < 10.0 / math.log(x0_card):
            warnings.warn("t below 10/ln|x0|: outside the stated regime",
                          RuntimeWarning, stacklevel=2)
        return TailBound(2.0 * x0_card * exponent_third,
                         t * 2.0 * size * math.log(x0_card))
    if kind == "height":
        if not 0 <= t <= 2:
            raise OutOfRangeError(f"height needs t in [0, 2], got {t}")
        if x0_card is None:
            raise OutOfRangeError("height bound needs x0_card")
        return TailBound(x0_card * exponent_twelfth, math.log(n * rho) + t)
    raise UnknownKindError(f"unknown tail kind {kind!r}")


@dataclass(frozen=True)
class TailCheck:
    kind: str
    N: int
    rho: float
    t: float
    trials: int
    empirical: float
    bound: float
    threshold: float | None
    slack: float
    passed: bool


def _finish_check(kind, n, rho, t, trials, hits, tb: TailBound) -> TailCheck:
    empirical = hits / trials
    slack = 3.0 * math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)
    passed = empirical <= min(1.0, tb.bound) + slack
    return TailCheck(kind, n, float(rho), t, trials, empirical,
                     tb.bound, tb.threshold, slack, passed)


def _require_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise OutOfRangeError(f"{name} must be a positive integer, got {value!r}")


def _check_deviation_fits(n: int, f: int, card: int) -> None:
    """One trial's integer deviation sum is at most 2 N f |x0|; refuse sizes
    at which it could wrap int64 instead of miscounting silently."""
    if 2 * n * f * card >= 2 ** 62:
        raise TooLargeError(
            f"N = {n} and |x0| = {card} (fiber size {f}): the deviation sum "
            f"can reach 2 N f |x0| = {2 * n * f * card}, not below 2^62")


def monte_carlo_tails(kind: str, *, t: float, trials: int, seed: int,
                      n: int | None = None, rho=None,
                      ext: ExtendedFan | None = None,
                      params: ContractionParams | None = None) -> TailCheck:
    """Empirical tail frequency against the analytic bound.

    binomial kinds sample the scaled binomial directly; fan kinds simulate
    whole contraction samples of the given extended fan.  Each (kind, N,
    rho, t) cell draws from its own derived stream, so grids are
    reproducible regardless of evaluation order.

    Fan kinds work per fiber pattern (`ExtendedFan.fiber_patterns`): the
    atoms of a group share one count, so total variation and the ikd
    witness come from the exact integer sum of w_p |c_p |x0| - N f| over
    the groups, divided once by N f |x0|, and the height from
    sum_p w_p c_p ln c_p / (N f).  A batch holds as many sample rows as fit
    in MC_BATCH_BYTES, at least one; the rows are drawn in sequence, so the
    batch size does not change the result.  trials and N (n for binomial
    kinds, params.N for fan kinds) must be positive integers.
    """
    _require_positive_int("trials", trials)
    if kind in ("binomial_i", "binomial_ii"):
        if n is None or rho is None:
            raise OutOfRangeError("binomial kinds need n and rho")
        _require_positive_int("n", n)
        rho_f = float(Fraction(rho))
        tb = tail_bounds(kind, n, rho_f, t)
        gen = np_rng_for(seed, f"tails|{kind}|{n}|{rho_f}", 0)
        draws = gen.binomial(n, rho_f, size=trials)
        nu = draws / n
        if kind == "binomial_i":
            hits = int(np.count_nonzero(np.abs(nu - rho_f) > rho_f * t))
        else:
            ratio = nu / rho_f
            value = np.where(draws > 0, ratio * np.log(np.where(draws > 0, ratio, 1.0)), 0.0)
            hits = int(np.count_nonzero(value > t))
        return _finish_check(kind, n, rho_f, t, trials, hits, tb)

    if kind in ("totalvar", "height", "ikd"):
        if ext is None or params is None:
            raise OutOfRangeError("fan kinds need ext and params")
        n = params.N
        _require_positive_int("N", n)
        rho_f = float(params.rho)
        card, f = ext.x0_card, ext.fiber_size
        tb = tail_bounds(kind, n, rho_f, t, x0_card=card, size=ext.size_h)
        _check_deviation_fits(n, f, card)
        pattern, sizes = ext.fiber_patterns
        weights = sizes.astype(np.float64)
        nf = n * f
        rows_cap = max(1, MC_BATCH_BYTES // (8 * (pattern.shape[0] + pattern.shape[1])))
        pvals = np.array([m / ext.u_space.denom for m in ext.u_space.masses])
        pvals = pvals / pvals.sum()
        gen = np_rng_for(seed, f"tails|{kind}|{n}|{rho_f}|{t}", 0)
        hits = 0
        done = 0
        log_card = math.log(card)
        while done < trials:
            batch = min(rows_cap, trials - done)
            mult = gen.multinomial(n, pvals, size=batch)
            counts = mult @ pattern
            if kind == "height":
                safe = np.where(counts > 0, counts, 1)
                stat = ((counts * np.log(safe)) @ weights) / float(nf)
                hits += int(np.count_nonzero(stat > tb.threshold))
            else:
                two_alpha = _deviation_sum(counts, sizes, card, nf) / float(nf * card)
                if kind == "totalvar":
                    hits += int(np.count_nonzero(two_alpha > t))
                else:  # ikd: measured through the witness-bound value
                    a = np.clip(two_alpha / 2.0, 1e-15, 1.0 - 1e-15)
                    ent = -(a * np.log(a) + (1 - a) * np.log(1 - a))
                    ent = np.where(two_alpha <= 0, 0.0, ent)
                    stat = a * log_card + ent
                    hits += int(np.count_nonzero(stat > t * log_card))
            done += batch
        return _finish_check(kind, n, rho_f, t, trials, hits, tb)

    raise UnknownKindError(f"unknown tail kind {kind!r}")
