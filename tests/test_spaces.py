import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probdiag import (
    ProbSpace,
    Reduction,
    dirac,
    lambda_space,
    pushforward,
    special_space,
    tensor_spaces,
    tv_distance,
    uniform,
)
from probdiag.errors import (
    BadParamError,
    DuplicateAtomError,
    NegativeWeightError,
    NotSurjectiveError,
    TooLargeError,
    UnknownAtomError,
    WeightSumError,
)
from probdiag.diagrams import tensor_fan
from probdiag.distances import single_space_diagram
from probdiag.spaces import MAX_TENSOR_ATOMS
from conftest import random_reduction, random_space


class TestMakeSpace:
    def test_one_atom(self):
        x = ProbSpace(["a"], ["1/1"])
        assert x.atoms == ("a",) and x.weight("a") == 1

    def test_uniform_two(self):
        x = ProbSpace(["a", "b"], ["1/2", "1/2"])
        assert x == uniform(2) or sorted(x.weights) == sorted(uniform(2).weights)

    def test_bad_sum(self):
        with pytest.raises(WeightSumError):
            ProbSpace(["a", "b"], ["1/3", "1/3"])

    def test_negative(self):
        with pytest.raises(NegativeWeightError):
            ProbSpace(["a", "b"], [Fraction(3, 2), Fraction(-1, 2)])

    def test_duplicate(self):
        with pytest.raises(DuplicateAtomError):
            ProbSpace(["a", "a"], ["1/2", "1/2"])

    def test_zero_weight_dropped(self):
        x = ProbSpace(["a", "b"], [1, 0])
        assert x.atoms == ("a",)


class TestSpecialSpaces:
    def test_lambda_half_is_uniform(self):
        assert sorted(lambda_space(Fraction(1, 2)).weights) == sorted(uniform(2).weights)

    def test_uniform_four(self):
        x = uniform(4)
        assert len(x) == 4 and all(w == Fraction(1, 4) for w in x.weights)

    def test_lambda_zero_degenerates(self):
        assert len(lambda_space(0)) == 1
        assert len(lambda_space(1)) == 1

    def test_bad_param(self):
        with pytest.raises(BadParamError):
            special_space("lambda", Fraction(3, 2))
        with pytest.raises(BadParamError):
            special_space("uniform", 0)


class TestEntropy:
    def test_uniform_two(self):
        assert abs(uniform(2).entropy - math.log(2)) < 1e-15

    def test_dirac_zero(self):
        assert dirac().entropy == 0.0

    def test_lambda_quarter_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = float(
            mpmath.mpf(1) / 4 * mpmath.log(4) + mpmath.mpf(3) / 4 * mpmath.log(mpmath.mpf(4) / 3)
        )
        assert abs(lambda_space(Fraction(1, 4)).entropy - expected) < 1e-14
        assert abs(expected - 0.5623351446188083) < 1e-12


class TestTensor:
    def test_dirac_identity(self):
        x = random_space(random.Random(1))
        t = tensor_spaces(x, dirac())
        assert sorted(t.weights) == sorted(x.weights)

    def test_uniform_product(self):
        t = tensor_spaces(uniform(2), uniform(3))
        assert len(t) == 6 and all(w == Fraction(1, 6) for w in t.weights)

    def test_entropy_additive_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(100):
            x, y = random_space(rng), random_space(rng, prefix="b")
            assert abs(tensor_spaces(x, y).entropy - (x.entropy + y.entropy)) < 1e-12

    def test_product_over_the_cap_is_refused_before_any_work(self):
        # 1025 x 1025 atoms is just over 2^20; the distance bounds' tensor
        # coupling of two such diagrams is refused the same way
        x, y = uniform(1025), special_space("uniform", 1025)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="1050625, over the cap of 1048576"):
                tensor_spaces(x, y)
            with pytest.raises(TooLargeError):
                tensor_fan(single_space_diagram(x), single_space_diagram(y))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20 and 1024 * 1024 == MAX_TENSOR_ATOMS


class TestReduction:
    def test_identity_is_iso(self):
        x = uniform(3)
        r = Reduction.from_map(x, {a: a for a in x.atoms})
        assert r.is_isomorphism()

    def test_uniform_pairing(self):
        x = uniform(4)
        r = Reduction.from_map(x, {a: i // 2 for i, a in enumerate(x.atoms)})
        assert sorted(r.target.weights) == [Fraction(1, 2)] * 2

    def test_data_processing_on_random_reductions(self):
        rng = random.Random(3)
        for _ in range(100):
            r = random_reduction(rng)
            assert r.target.entropy <= r.domain.entropy + 1e-12

    def test_exact_mass_conservation(self):
        rng = random.Random(4)
        for _ in range(100):
            r = random_reduction(rng)
            assert sum(r.target.weights, Fraction(0)) == 1

    def test_declared_target_not_hit(self):
        x = uniform(2)
        with pytest.raises(NotSurjectiveError):
            Reduction.from_map(x, {a: "t0" for a in x.atoms}, target_atoms=["t0", "t1"])


class TestConditioning:
    def test_identity_fiber_is_dirac(self):
        x = uniform(3)
        r = Reduction.from_map(x, {a: a for a in x.atoms})
        for atom in x.atoms:
            assert len(r.fiber(atom)) == 1

    def test_pairing_fiber_is_uniform(self):
        x = uniform(4)
        r = Reduction.from_map(x, {a: i // 2 for i, a in enumerate(x.atoms)})
        fiber = r.fiber(0)
        assert sorted(fiber.weights) == [Fraction(1, 2)] * 2

    def test_unknown_atom(self):
        x = uniform(2)
        r = Reduction.from_map(x, {a: "t" for a in x.atoms})
        with pytest.raises(UnknownAtomError):
            r.fiber("missing")

    def test_chain_rule_on_random_reductions(self):
        rng = random.Random(5)
        for _ in range(100):
            r = random_reduction(rng)
            mixture = sum(
                float(r.target.weight(u)) * r.fiber(u).entropy
                for u in r.target.atoms
            )
            assert abs(r.domain.entropy - (r.target.entropy + mixture)) < 1e-9


class TestTotalVariation:
    def test_self_distance_zero(self):
        x = random_space(random.Random(6))
        assert tv_distance(x, x) == 0

    def test_disjoint_diracs(self):
        assert tv_distance(dirac("a"), dirac("b")) == 2

    def test_uniform_vs_lambda_quarter(self):
        base = ProbSpace(["light", "heavy"], ["1/2", "1/2"])
        assert tv_distance(base, lambda_space(Fraction(1, 4))) == Fraction(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=2, max_size=6),
           st.lists(st.integers(0, 12), min_size=2, max_size=6),
           st.lists(st.integers(0, 12), min_size=2, max_size=6))
    def test_metric_properties(self, a, b, c):
        def to_dist(counts):
            total = sum(counts)
            if total == 0:
                counts = [1] * len(counts)
                total = len(counts)
            return {i: Fraction(v, total) for i, v in enumerate(counts)}

        p, q, r = to_dist(a), to_dist(b), to_dist(c)
        assert tv_distance(p, q) == tv_distance(q, p)
        assert tv_distance(p, q) >= 0
        # identity of indiscernibles on the positive parts: zero-weight
        # padding must not separate equal measures
        def support(d):
            return {k: v for k, v in d.items() if v > 0}
        assert (tv_distance(p, q) == 0) == (support(p) == support(q))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r)


def test_pushforward_preserves_mass_exactly():
    rng = random.Random(7)
    for _ in range(50):
        x = random_space(rng)
        mapping = {a: i % 3 for i, a in enumerate(x.atoms)}
        assert sum(pushforward(x, mapping).weights, Fraction(0)) == 1


@st.composite
def measures_with_maps(draw):
    """Random rational weights (some zero), plus a random map of the atoms
    onto up to four classes."""
    size = draw(st.integers(1, 7))
    raw = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size).filter(any))
    scale = draw(st.integers(1, 6))
    total = sum(raw) * scale
    weights = {f"a{i}": Fraction(m * scale, total) for i, m in enumerate(raw)}
    images = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    mapping = {f"a{i}": f"t{k}" for i, k in enumerate(images)}
    return weights, mapping


@settings(max_examples=300, deadline=None)
@given(measures_with_maps(), measures_with_maps())
def test_integer_core_matches_fraction_oracle(first, second):
    weights, mapping = first
    other, _ = second
    positive = {a: w for a, w in weights.items() if w > 0}
    x = ProbSpace(weights, weights.values())
    y = ProbSpace(other, other.values())

    # weights, and the integer form over an unreduced denominator
    assert dict(x.items()) == positive
    assert math.lcm(*[w.denominator for w in positive.values()]) == x.denom
    scale = 6 * x.denom
    x_masses = ProbSpace(weights, [int(w * scale) for w in weights.values()], denom=scale)
    assert x_masses == x and hash(x_masses) == hash(x)
    backwards = dict(reversed(weights.items()))
    x_reversed = ProbSpace(backwards, backwards.values())
    assert x_reversed == x and hash(x_reversed) == hash(x)
    assert x.entropy == oracles.fraction_entropy(positive)

    # pushforward
    image = pushforward(x, mapping)
    expected = oracles.fraction_pushforward(positive, mapping)
    assert dict(image.items()) == expected
    assert list(image.atoms) == list(expected)
    rebuilt = ProbSpace(expected, expected.values())
    assert image == rebuilt and hash(image) == hash(rebuilt)
    assert image.entropy == oracles.fraction_entropy(expected)

    # == agrees with equality of the weight tables
    y_positive = {a: w for a, w in other.items() if w > 0}
    assert (x == y) == (positive == y_positive)
    if x == y:
        assert hash(x) == hash(y)

    # tensor
    product = tensor_spaces(x, y)
    expected = oracles.fraction_tensor(positive, y_positive)
    assert dict(product.items()) == expected
    assert product.entropy == oracles.fraction_entropy(expected)

    # Reduction.fiber
    reduction = Reduction.from_map(x, mapping)
    for target in reduction.target.atoms:
        fiber = reduction.fiber(target)
        expected = oracles.fraction_fiber(positive, mapping, target)
        assert dict(fiber.items()) == expected
        assert fiber.entropy == oracles.fraction_entropy(expected)


# How the declared target of a drawn map relates to its true image.
TARGET_KINDS = ("image", "scaled", "undefined", "missing", "extra",
                "moved", "foreign_denominator")


@st.composite
def reductions_to_check(draw):
    """A domain, a map and a declared target of one of TARGET_KINDS:
    the image itself, the image given by masses scaled by a constant over a
    scaled denominator, the image with the map undefined on a domain atom,
    the image missing one of its atoms or carrying an extra one, unit mass
    moved between image atoms, and the image perturbed by one unit over a
    prime multiple of the domain's denominator, so that the target's
    denominator does not divide the domain's."""
    size = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    domain = ProbSpace([f"a{i}" for i in range(size)], raw, denom=sum(raw))
    images = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    mapping = {f"a{i}": f"t{k}" for i, k in enumerate(images)}
    if draw(st.booleans()):
        mapping["unrelated"] = "t0"  # keys outside the domain are ignored
    image: dict = {}
    for atom, mass in zip(domain.atoms, domain.masses):
        image[mapping[atom]] = image.get(mapping[atom], 0) + mass
    atoms, masses = list(image), list(image.values())
    kind = draw(st.sampled_from(TARGET_KINDS))
    target_denom = domain.denom
    if kind == "image":
        pass
    elif kind == "scaled":
        k = draw(st.integers(2, 5))
        masses, target_denom = [k * m for m in masses], k * domain.denom
    elif kind == "undefined":
        del mapping[draw(st.sampled_from(domain.atoms))]
    elif kind == "missing" and len(atoms) > 1:
        drop = draw(st.integers(0, len(atoms) - 1))
        target_denom -= masses[drop]
        del atoms[drop], masses[drop]
    elif kind == "moved" and len(atoms) > 1 and masses[1] > 1:
        masses[0] += 1
        masses[1] -= 1
    elif kind == "foreign_denominator" and len(atoms) > 1:
        p = draw(st.sampled_from([2, 3, 5, 7]))
        masses = [p * m for m in masses]
        masses[0] += 1
        masses[1] -= 1
        target_denom *= p
    else:  # "extra", and the kinds above that need more image atoms
        kind = "extra"
        atoms.append("t_extra")
        masses.append(draw(st.integers(1, 5)))
        target_denom += masses[-1]
    return kind, domain, ProbSpace(atoms, masses, denom=target_denom), mapping


@settings(max_examples=500, deadline=None)
@given(reductions_to_check())
def test_reduction_check_matches_fraction_oracle(case):
    kind, domain, target, mapping = case
    if kind == "foreign_denominator":
        assert domain.denom % target.denom != 0
    try:
        accepts = oracles.reduction_accepts(dict(domain.items()), dict(target.items()), mapping)
    except KeyError as exc:
        with pytest.raises(UnknownAtomError, match=f"map undefined on atom {exc.args[0]!r}"):
            Reduction(domain, target, mapping)
        return
    if kind in ("image", "scaled"):
        assert accepts
    if not accepts:
        with pytest.raises(NotSurjectiveError, match="does not equal the declared target"):
            Reduction(domain, target, mapping)
        return
    reduction = Reduction(domain, target, mapping)
    assert reduction.domain is domain and reduction.target is target
    assert list(reduction.mapping.items()) == [(a, mapping[a]) for a in domain.atoms]


def test_reduction_names_first_undefined_atom_in_domain_order():
    x = uniform(4)
    mapping = {x.atoms[0]: "t", x.atoms[3]: "t"}
    with pytest.raises(UnknownAtomError, match=repr(x.atoms[1])):
        Reduction(x, dirac("t"), mapping)


def test_reduction_rejects_target_denominator_not_dividing_domain():
    # image (1/2, 1/2) against (2/3, 1/3): same atoms, 3 does not divide 2
    x = uniform(2)
    target = ProbSpace(["t0", "t1"], [Fraction(2, 3), Fraction(1, 3)])
    with pytest.raises(NotSurjectiveError):
        Reduction(x, target, {x.atoms[0]: "t0", x.atoms[1]: "t1"})
