import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probdiag import (
    DistributionOnSetDiagram,
    SetDiagram,
    build_category,
    constant_diagram,
    coupling_fan,
    diagonal_fan,
    dirac,
    entropy_gap,
    ikd_bounds,
    kd_of_fan,
    lambda_space,
    local_decomposition,
    local_estimate_bound,
    local_estimate_witness,
    min_entropy_coupling,
    ProbSpace,
    pushforward,
    slicing_rhs,
    tv_distance,
    standard_category,
    tensor_fan,
    uniform,
)
from probdiag.distances import (
    _coupling_vertices,
    _greedy_coupling,
    _meet_slog,
    _mixture_witness,
    _vertex_value,
    random_coupling,
    single_space_diagram,
)
from probdiag.errors import CapExceededError, ShapeMismatchError, SliceMismatchError
from probdiag.spaces import LAMBDA_HEAVY, LAMBDA_LIGHT
from conftest import random_distribution, random_set_diagram, random_space

LN2 = math.log(2)


class TestKd:
    def test_identity_fan_zero(self):
        d = single_space_diagram(uniform(3))
        assert kd_of_fan(diagonal_fan(d)) == 0.0

    def test_independent_uniform_bits(self):
        d1 = single_space_diagram(uniform(2))
        d2 = single_space_diagram(uniform(2))
        assert kd_of_fan(tensor_fan(d1, d2)) == pytest.approx(2 * LN2)

    def test_diagonal_of_self_zero(self):
        d = single_space_diagram(lambda_space(Fraction(1, 3)))
        assert kd_of_fan(diagonal_fan(d)) == 0.0


class TestMinEntropyCoupling:
    def test_equal_spaces_give_zero(self):
        x = uniform(3)
        w = min_entropy_coupling(x, x)
        assert w.exact and w.kd_value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_refinement(self):
        w = min_entropy_coupling(uniform(2), uniform(4))
        assert w.kd_value == pytest.approx(LN2, abs=1e-12)

    def test_uniform_vs_quarter_lambda(self):
        w = min_entropy_coupling(uniform(2), lambda_space(Fraction(1, 4)))
        # optimal vertex computed and frozen via the subset-enumeration oracle
        assert w.kd_value == pytest.approx(0.8239592165010822, abs=1e-9)
        expected = oracles.min_coupling_entropy_distance(
            [Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 4), Fraction(1, 4)])
        assert w.kd_value == pytest.approx(expected, abs=1e-12)

    def test_matches_subset_oracle_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(15):
            x = random_space(rng, max_support=3)
            y = random_space(rng, max_support=4, prefix="b")
            got = min_entropy_coupling(x, y).kd_value
            expected = oracles.min_coupling_entropy_distance(list(x.weights),
                                                             list(y.weights))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_dominates_entropy_gap(self):
        rng = random.Random(22)
        for _ in range(20):
            x, y = random_space(rng, 4), random_space(rng, 4, prefix="b")
            w = min_entropy_coupling(x, y)
            assert w.kd_value >= abs(x.entropy - y.entropy) - 1e-9

    def test_below_random_couplings(self):
        rng = random.Random(23)
        x, y = random_space(rng, 4), random_space(rng, 4, prefix="b")
        best = min_entropy_coupling(x, y).kd_value
        left, right = single_space_diagram(x), single_space_diagram(y)
        for _ in range(200):
            fan = coupling_fan(left, right, random_coupling(x, y, rng))
            assert best <= kd_of_fan(fan) + 1e-9

    def test_zero_iff_isomorphic(self):
        rng = random.Random(24)
        for _ in range(20):
            x, y = random_space(rng, 4), random_space(rng, 4, prefix="b")
            value = min_entropy_coupling(x, y).kd_value
            iso = sorted(x.weights) == sorted(y.weights)
            assert (abs(value) < 1e-9) == iso

    def test_cap_behaviour(self):
        x, y = uniform(6), uniform(6)
        with pytest.raises(CapExceededError):
            min_entropy_coupling(x, y, cap=30, require_exact=True)
        w = min_entropy_coupling(x, y, cap=30)
        assert not w.exact and w.method == "greedy"
        assert w.kd_value == pytest.approx(0.0, abs=1e-12)  # greedy matches equals


class TestIkdBounds:
    def test_self_distance_zero(self):
        d = single_space_diagram(uniform(4))
        bounds = ikd_bounds(d, d)
        assert bounds.lower == 0.0 and bounds.upper == 0.0

    def test_single_spaces_exact(self):
        b = ikd_bounds(single_space_diagram(uniform(2)), single_space_diagram(uniform(4)))
        assert b.lower == pytest.approx(LN2) and b.upper == pytest.approx(LN2)
        assert b.witness.exact

    def test_same_skeleton_equal_distributions(self):
        rng = random.Random(25)
        sd = random_set_diagram(rng, max_objects=4, max_initial=6)
        pi = random_distribution(rng, sd.initial_set())
        left = DistributionOnSetDiagram(sd, pi).to_diagram()
        right = DistributionOnSetDiagram(sd, pi).to_diagram()
        bounds = ikd_bounds(left, right)
        assert bounds.upper == pytest.approx(0.0, abs=1e-12)

    def test_ordering_lower_below_upper(self):
        rng = random.Random(26)
        for _ in range(20):
            x, y = random_space(rng, 4), random_space(rng, 4, prefix="b")
            b = ikd_bounds(single_space_diagram(x), single_space_diagram(y))
            assert b.lower <= b.upper + 1e-9

    def test_lower_never_above_upper_where_they_meet(self):
        # the entropy gap and the exact optimum agree here up to rounding;
        # unclamped, the gap came out one ulp above the witness
        x = ProbSpace(["a0", "a1"], [Fraction(2, 3), Fraction(1, 3)])
        y = ProbSpace([f"b{k}" for k in range(7)],
                      [Fraction(4, 21), Fraction(1, 14), Fraction(2, 7), Fraction(1, 7),
                       Fraction(5, 42), Fraction(1, 7), Fraction(1, 21)])
        left, right = single_space_diagram(x), single_space_diagram(y)
        b = ikd_bounds(left, right)
        assert b.lower <= b.upper
        assert b.lower == pytest.approx(entropy_gap(left, right), abs=1e-15)

    def test_triangle_inequality_small_pool(self):
        rng = random.Random(27)
        pool = [random_space(rng, 3, prefix=f"p{k}") for k in range(6)]
        dist = {}
        for i, x in enumerate(pool):
            for j, y in enumerate(pool):
                if i < j:
                    dist[(i, j)] = min_entropy_coupling(x, y).kd_value

        def d(i, j):
            return 0.0 if i == j else dist[(min(i, j), max(i, j))]

        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert d(i, k) <= d(i, j) + d(j, k) + 1e-9

    def test_shape_mismatch(self):
        d1 = single_space_diagram(uniform(2))
        d2 = constant_diagram(standard_category("chain", 2), uniform(2))
        with pytest.raises(ShapeMismatchError):
            ikd_bounds(d1, d2)


class TestLocalDecomposition:
    def test_equal_distributions(self):
        pi = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
        dec = local_decomposition(pi, pi)
        assert dec.alpha == 0 and dec.common == pi

    def test_disjoint_supports(self):
        dec = local_decomposition({"a": 1}, {"b": 1})
        assert dec.alpha == 1 and dec.common is None

    def test_reference_example(self):
        dec = local_decomposition(
            {"a": Fraction(1, 2), "b": Fraction(1, 2)},
            {"a": Fraction(1, 4), "b": Fraction(3, 4)})
        assert dec.alpha == Fraction(1, 4)
        assert dec.common == {"a": Fraction(1, 3), "b": Fraction(2, 3)}
        assert dec.rest_left == {"a": Fraction(1), "b": Fraction(0)}
        assert dec.rest_right == {"a": Fraction(0), "b": Fraction(1)}

    def test_mixture_identities_exact(self):
        rng = random.Random(28)
        atoms = [f"s{i}" for i in range(6)]
        for _ in range(100):
            pi = random_distribution(rng, atoms)
            pi_prime = random_distribution(rng, atoms)
            dec = local_decomposition(pi, pi_prime)
            if dec.alpha == 1:
                continue
            for a in atoms:
                assert pi[a] == (1 - dec.alpha) * dec.common[a] + dec.alpha * dec.rest_left[a]
                assert pi_prime[a] == (1 - dec.alpha) * dec.common[a] + dec.alpha * dec.rest_right[a]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 16), min_size=2, max_size=8),
           st.lists(st.integers(0, 16), min_size=2, max_size=8))
    def test_mixture_identity_hypothesis(self, a, b):
        size = max(len(a), len(b))
        a = a + [0] * (size - len(a))
        b = b + [0] * (size - len(b))
        if not any(a):
            a[0] = 1
        if not any(b):
            b[-1] = 1
        pi = {i: Fraction(v, sum(a)) for i, v in enumerate(a)}
        pi_prime = {i: Fraction(v, sum(b)) for i, v in enumerate(b)}
        dec = local_decomposition(pi, pi_prime)
        assert 0 <= dec.alpha <= 1
        assert 2 * dec.alpha == tv_distance(pi, pi_prime)
        if dec.alpha < 1:
            for atom in pi:
                assert pi[atom] == (1 - dec.alpha) * dec.common[atom] \
                    + dec.alpha * dec.rest_left[atom]
                assert pi_prime[atom] == (1 - dec.alpha) * dec.common[atom] \
                    + dec.alpha * dec.rest_right[atom]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.lists(st.integers(0, 6), min_size=1, max_size=6),
           st.integers(0, 3))
    def test_matches_fraction_oracle(self, a, b, shift):
        # pi_prime names its atoms from `shift` on, so either side may name
        # atoms the other does not, and zero weights stay named
        if not any(a):
            a[-1] = 1
        if not any(b):
            b[0] = 1
        pi = {i: Fraction(v, sum(a)) for i, v in enumerate(a)}
        pi_prime = {i + shift: Fraction(v, sum(b)) for i, v in enumerate(b)}
        dec = local_decomposition(pi, pi_prime)
        expected = oracles.fraction_local_decomposition(pi, pi_prime)
        got = (dec.alpha, dec.common, dec.rest_left, dec.rest_right)
        assert got == expected
        for part, want in zip(got[1:], expected[1:]):
            assert part is None or list(part) == list(want)


# Labels whose str collide (1 and "1", 2 and "2"), so the order among them
# rests on the stable sort of the live atoms.
COLLIDING = [0, 1, "1", 2, "2", "a", ("a", 1), "('a', 1)"]


@st.composite
def colliding_spaces(draw):
    atoms = draw(st.lists(st.sampled_from(COLLIDING), min_size=1, max_size=5, unique=True))
    masses = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    return ProbSpace(atoms, masses, denom=sum(masses))


class TestIntegerCouplings:
    """The one mass-routing loop against Fraction and loop oracles."""

    @settings(max_examples=300, deadline=None)
    @given(colliding_spaces(), colliding_spaces(), st.integers(0, 2 ** 32))
    def test_random_coupling_matches_fraction_oracle(self, x, y, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = random_coupling(x, y, rng)
        expected = oracles.fraction_random_coupling(x, y, oracle_rng)
        assert list(got.atoms) == list(expected)
        assert list(got.weights) == list(expected.values())
        assert got.denom == math.lcm(*(w.denominator for w in expected.values()))
        assert rng.getstate() == oracle_rng.getstate()

    def test_greedy_matches_loop_oracle(self):
        rng = random.Random(44)

        def space():
            atoms = rng.sample(COLLIDING, rng.randint(1, 6))
            masses = [rng.randint(1, 9) for _ in atoms]
            return ProbSpace(atoms, masses, denom=sum(masses))

        for _ in range(400):
            x, y = space(), space()
            denom = math.lcm(x.denom, y.denom)
            got = _greedy_coupling(x, y, denom)
            assert list(got.items()) == list(oracles.greedy_coupling(x, y, denom).items())


class TestLocalEstimateWitness:
    def test_equal_distributions_zero(self):
        rng = random.Random(29)
        sd = random_set_diagram(rng, 4, 8)
        pi = random_distribution(rng, sd.initial_set())
        est = local_estimate_witness(sd, pi, pi)
        assert est.alpha == 0
        assert est.bound == pytest.approx(0.0, abs=1e-12)
        assert est.witness.kd_value == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_rough_bound(self):
        cat = build_category(["w"], [])
        sd = SetDiagram(cat, {"w": ("a", "b")}, {})
        est = local_estimate_witness(sd, {"a": 1}, {"b": 1})
        assert est.alpha == 1
        assert est.bound == pytest.approx(2 * math.log(2))
        assert est.witness.kd_value <= est.bound + 1e-9

    def test_two_fan_skeleton_reference_pair(self):
        # four-point initial set over a two-fan skeleton; the distributions
        # concentrate on two atoms with overlap coefficient 1/4
        cat = standard_category("two_fan")
        sd = SetDiagram(
            cat,
            {"top": ("s0", "s1", "s2", "s3"), "left": ("l0", "l1"), "right": ("r0",)},
            {("top", "left"): {"s0": "l0", "s1": "l0", "s2": "l1", "s3": "l1"},
             ("top", "right"): {s: "r0" for s in ("s0", "s1", "s2", "s3")}},
        )
        pi = {"s0": Fraction(1, 2), "s1": Fraction(1, 2), "s2": 0, "s3": 0}
        pi_prime = {"s0": Fraction(1, 4), "s1": Fraction(3, 4), "s2": 0, "s3": 0}
        est = local_estimate_witness(sd, pi, pi_prime)
        assert est.alpha == Fraction(1, 4)
        cap = 2 * 3 * (0.25 * math.log(4) + lambda_space(Fraction(1, 4)).entropy)
        assert est.bound == pytest.approx(cap, abs=1e-12)
        assert est.witness.kd_value <= cap + 1e-9
        assert est.slice_isos_ok

    def test_witness_inequality_random(self):
        rng = random.Random(30)
        for _ in range(60):
            sd = random_set_diagram(rng, 5, 16)
            pi = random_distribution(rng, sd.initial_set())
            pi_prime = random_distribution(rng, sd.initial_set())
            est = local_estimate_witness(sd, pi, pi_prime)
            assert est.witness.kd_value <= est.bound + 1e-9
            assert est.slice_isos_ok

    def test_witness_dominates_entropy_gap(self):
        rng = random.Random(31)
        for _ in range(30):
            sd = random_set_diagram(rng, 4, 10)
            pi = random_distribution(rng, sd.initial_set())
            pi_prime = random_distribution(rng, sd.initial_set())
            est = local_estimate_witness(sd, pi, pi_prime)
            left = DistributionOnSetDiagram(sd, pi).to_diagram()
            right = DistributionOnSetDiagram(sd, pi_prime).to_diagram()
            assert est.witness.kd_value >= entropy_gap(left, right) - 1e-9

    def test_ikd_mixture_agrees_with_local_estimate(self):
        # full supports give both diagrams one skeleton, where ikd_bounds
        # builds the mixture from the two diagrams themselves
        rng = random.Random(41)

        def full_support(atoms):
            masses = [rng.randint(1, 9) for _ in atoms]
            return {a: Fraction(m, sum(masses)) for a, m in zip(atoms, masses)}

        for _ in range(40):
            sd = random_set_diagram(rng, 5, 12)
            pi, pi_prime = full_support(sd.initial_set()), full_support(sd.initial_set())
            left = DistributionOnSetDiagram(sd, pi).to_diagram()
            right = DistributionOnSetDiagram(sd, pi_prime).to_diagram()
            assert SetDiagram.from_diagram(left) == SetDiagram.from_diagram(right)
            mixture = _mixture_witness(left, right)
            est = local_estimate_witness(sd, pi, pi_prime)
            assert mixture.fan.top.initial_space == est.witness.fan.top.initial_space
            assert mixture.kd_value == pytest.approx(est.witness.kd_value, abs=1e-12)
            assert ikd_bounds(left, right).upper <= mixture.kd_value


class TestSlicing:
    def _fans(self, sd, pi, pi_prime):
        est = local_estimate_witness(sd, pi, pi_prime)
        return est

    def test_dirac_slicing_space(self):
        # conditioning on a one-point space reduces to the conditioned bound
        d = single_space_diagram(uniform(3))
        lam0 = constant_diagram(d.category, dirac("u"))
        top = d
        from probdiag.diagrams import FanOfDiagrams, Reduction

        proj_self = {o: Reduction.identity(d.spaces[o]) for o in d.category.objects}
        proj_u = {o: Reduction(d.spaces[o], dirac("u"), {a: "u" for a in d.spaces[o].atoms})
                  for o in d.category.objects}
        fan_x = FanOfDiagrams(top, d, lam0, proj_self, proj_u)
        fan_y = FanOfDiagrams(top, lam0, d, proj_u, proj_self)
        assert slicing_rhs(fan_x, fan_y, {"u": 1.25}) == pytest.approx(1.25)

    def test_zero_conditioned_bounds(self):
        rng = random.Random(32)
        sd = random_set_diagram(rng, 4, 8)
        pi = random_distribution(rng, sd.initial_set())
        pi_prime = random_distribution(rng, sd.initial_set())
        est = local_estimate_witness(sd, pi, pi_prime)
        if est.lambda_fans is None:
            return
        fan_x, fan_y = est.lambda_fans
        size = sd.category.size
        lam = fan_x.right.spaces[fan_x.shape.initial]
        rhs = slicing_rhs(fan_x, fan_y, {u: 0.0 for u in lam.atoms})
        assert rhs == pytest.approx(2 * size * lam.entropy)

    def test_reproduces_local_estimate_chain(self):
        # per-slice values of the proof: 0 on the common slice, the rough
        # bound on the rest slice
        rng = random.Random(33)
        for _ in range(20):
            sd = random_set_diagram(rng, 5, 12)
            pi = random_distribution(rng, sd.initial_set())
            pi_prime = random_distribution(rng, sd.initial_set())
            est = local_estimate_witness(sd, pi, pi_prime)
            if est.lambda_fans is None or est.alpha == 0:
                continue
            fan_x, fan_y = est.lambda_fans
            size = sd.category.size
            rough = 2.0 * size * math.log(len(sd.initial_set()))
            rhs = slicing_rhs(fan_x, fan_y,
                              {LAMBDA_LIGHT: 0.0, LAMBDA_HEAVY: rough})
            assert rhs == pytest.approx(
                local_estimate_bound(size, len(sd.initial_set()), est.alpha), abs=1e-9)

    def test_mismatched_u(self):
        d = single_space_diagram(uniform(3))
        from probdiag.diagrams import FanOfDiagrams, Reduction

        lam_a = constant_diagram(d.category, dirac("a"))
        lam_b = constant_diagram(d.category, dirac("b"))
        proj_self = {o: Reduction.identity(d.spaces[o]) for o in d.category.objects}
        proj_a = {o: Reduction(d.spaces[o], dirac("a"), {x: "a" for x in d.spaces[o].atoms})
                  for o in d.category.objects}
        proj_b = {o: Reduction(d.spaces[o], dirac("b"), {x: "b" for x in d.spaces[o].atoms})
                  for o in d.category.objects}
        fan_x = FanOfDiagrams(d, d, lam_a, proj_self, proj_a)
        fan_y = FanOfDiagrams(d, lam_b, d, proj_b, proj_self)
        with pytest.raises(SliceMismatchError):
            slicing_rhs(fan_x, fan_y, {"a": 0.0, "b": 0.0})


def test_vertex_enumeration_matches_oracle_counts():
    rng = random.Random(34)
    from probdiag.distances import _coupling_vertices

    for _ in range(10):
        x = random_space(rng, 3)
        y = random_space(rng, 3, prefix="b")
        ours = list(_coupling_vertices(x, y))
        theirs = oracles.transport_vertices(list(x.weights), list(y.weights))
        def signature(cells):
            return frozenset((r, c) for (r, c) in cells)
        got = {signature(v) for v in ours}
        expected = {signature(v) for v in theirs}
        assert got == expected


def _space(masses, prefix):
    total = sum(masses)
    return ProbSpace([f"{prefix}{i}" for i in range(len(masses))],
                     [Fraction(k, total) for k in masses])


def _random_pair(seed, m, n):
    rng = random.Random(seed)
    return (_space([rng.randint(1, 16) for _ in range(m)], "a"),
            _space([rng.randint(1, 16) for _ in range(n)], "b"))


def _support(witness, x, y):
    """The coupling's cells as (row, col) indices into x and y, in the
    coupling's atom order."""
    top = witness.fan.top.spaces[witness.fan.top.category.objects[0]]
    return [(x.atoms.index(a), y.atoms.index(b)) for a, b in top.atoms]


class TestExactSearch:
    """The pruned leaf-elimination search against independent checks."""

    @staticmethod
    def _pairs(rng, max_side, max_cells, count, top):
        """`count` random pairs of at most max_side atoms a side and
        max_cells cells, with integer masses in 1..top."""
        pairs = []
        while len(pairs) < count:
            m, n = rng.randint(1, max_side), rng.randint(1, max_side)
            if m * n <= max_cells:
                pairs.append((_space([rng.randint(1, top) for _ in range(m)], "a"),
                               _space([rng.randint(1, top) for _ in range(n)], "b")))
        return pairs

    def test_pruned_optimum_is_oracle_argmin(self):
        rng = random.Random(36)
        pairs = self._pairs(rng, 3, 9, 10, 16)           # random shapes
        pairs += self._pairs(rng, 3, 9, 10, 2)           # duplicated masses
        pairs += [(_space([3, 1, 2], "a"), _space([2, 5, 1, 2], "b")),
                  (_space([2, 2, 1, 1], "a"), _space([1, 2, 3], "b")),
                  (_space([1, 1, 2], "a"), _space([1, 1, 1, 1], "b")),
                  (_space([4], "a"), _space([1, 2, 1, 3], "b")),          # 1 x n
                  (_space([1, 2, 1, 3, 1], "a"), _space([1], "b")),       # n x 1
                  (_space([1, 3, 1], "a"), _space([2, 1, 2], "b")),
                  (_space([2, 3, 2], "a"), _space([3, 2, 2], "b")),       # equal spaces
                  (uniform(3), uniform(3)), (uniform(2), uniform(4))]
        for x, y in pairs:
            value, support = oracles.min_coupling_argmin(list(x.weights), list(y.weights))
            witness = min_entropy_coupling(x, y)
            assert witness.exact
            assert _support(witness, x, y) == support
            assert witness.kd_value == pytest.approx(value, abs=1e-12)

    def test_meet_bound_matches_oracle(self):
        rng = random.Random(40)
        for _ in range(30):
            a = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            b = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
            b[0] += sum(a) - sum(b)
            if b[0] < 1:
                continue
            meet = oracles.majorization_meet([Fraction(k) for k in a], [Fraction(k) for k in b])
            expected = sum(float(g) * math.log(g) for g in meet)
            assert _meet_slog(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_each_vertex_once(self):
        rng = random.Random(37)
        pairs = self._pairs(rng, 4, 9, 20, 3) + [(_space([2, 3, 3], "a"), _space([2, 3, 3], "b"))]
        for x, y in pairs:
            ours = [frozenset(v) for v in _coupling_vertices(x, y)]
            theirs = oracles.transport_vertices(list(x.weights), list(y.weights))
            assert len(ours) == len(set(ours)) == len(theirs)

    def test_pruned_optimum_is_enumeration_argmin(self):
        # shapes past the subset oracle's reach, with many ties; the full
        # enumeration is checked against the oracle above
        rng = random.Random(38)
        pairs = self._pairs(rng, 5, 16, 40, 3) + [
            (uniform(4), uniform(4)), (uniform(2), uniform(6)), (uniform(5), uniform(2)),
            (_space([2, 1, 1, 1], "a"), _space([2, 1, 2, 2], "b")),
            (_space([2, 2, 1], "a"), _space([3, 3, 3, 1], "b"))]
        for x, y in pairs:
            denom = math.lcm(x.denom, y.denom)
            best = min((_vertex_value(v.values(), denom, x, y), sorted(v))
                       for v in _coupling_vertices(x, y))
            assert _support(min_entropy_coupling(x, y), x, y) == best[1]

    @pytest.mark.parametrize("x, y", [(uniform(5), uniform(6)), _random_pair(39, 5, 5)])
    def test_at_the_cap(self, x, y):
        start = time.perf_counter()
        witness = min_entropy_coupling(x, y)
        elapsed = time.perf_counter() - start
        assert witness.exact and elapsed < 1.0
        top = witness.fan.top.spaces["1"]
        assert pushforward(top, {(a, b): a for a, b in top.atoms}) == x
        assert pushforward(top, {(a, b): b for a, b in top.atoms}) == y
        meet = oracles.majorization_meet(list(x.weights), list(y.weights))
        lower = 2.0 * oracles.fraction_entropy(dict(enumerate(meet))) - x.entropy - y.entropy
        greedy = min_entropy_coupling(x, y, cap=0)
        assert lower <= witness.kd_value + 1e-12
        assert witness.kd_value <= greedy.kd_value + 1e-12


def test_distribution_on_set_diagram_marginal_consistency():
    rng = random.Random(35)
    sd = random_set_diagram(rng, 5, 10)
    pi = random_distribution(rng, sd.initial_set())
    dist = DistributionOnSetDiagram(sd, pi)
    d = dist.to_diagram()
    for obj in sd.category.objects:
        marginal = dist.marginal(obj)
        for atom, weight in marginal.items():
            if weight > 0:
                assert d.spaces[obj].weight(atom) == weight
