import random
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import oracles
from probdiag import ProbSpace, lambda_space, sampling, uniform
from probdiag.sampling import CategoricalSampler, rng_for, sample_atoms, subseed

# denominators around each width the vectorized draws treat apart: one
# word, two words, the int64 limit and three words
EDGE_DENOMINATORS = sorted({2 ** k + d for k in (31, 32, 33, 61, 62, 63, 64, 65)
                            for d in (-1, 0, 1)} | {1, 2, 3, 1000, 2 ** 200 + 11})


@st.composite
def spaces(draw):
    """A space over one of EDGE_DENOMINATORS (or a small one), cut into
    up to six atoms, the first of mass 1 so that the denominator stays
    unreduced."""
    denom = draw(st.sampled_from(EDGE_DENOMINATORS) | st.integers(1, 40))
    cuts = draw(st.lists(st.integers(2, denom - 1), max_size=4)) if denom > 2 else []
    bounds = [0, 1, *sorted(set(cuts))] + ([denom] if denom > 1 else [])
    masses = [b - a for a, b in zip(bounds, bounds[1:])]
    return ProbSpace([f"a{k}" for k in range(len(masses))], masses, denom=denom)


class TestSubseed:
    def test_deterministic(self):
        assert subseed(42, "run", 0) == subseed(42, "run", 0)

    def test_distinct_counters_and_labels(self):
        seen = {subseed(42, label, k) for label in ("run", "cell") for k in range(100)}
        assert len(seen) == 200

    def test_frozen_reference_values(self):
        # protocol pd1 is versioned: these values must never change
        assert subseed(0, "run", 0) == 6441870853925810675
        assert subseed(42, "cell", 3) == 17539352033089737807
        assert subseed(0, "run", 0) != subseed(1, "run", 0)


class TestCategoricalSampler:
    def test_reproducible_streams(self):
        space = lambda_space(Fraction(1, 3))
        a = sample_atoms(space, rng_for(7, "x", 0), 50)
        b = sample_atoms(space, rng_for(7, "x", 0), 50)
        assert a == b

    def test_exact_frequencies_on_power_of_two(self):
        # denominator 4: drawing consumes exactly 2 random bits per draw, so
        # a full pass over the bit patterns hits each atom proportionally
        space = ProbSpace(["a", "b", "c"], [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
        sampler = CategoricalSampler(space)

        class FixedBits:
            def __init__(self, values):
                self.values = list(values)

            def getrandbits(self, bits):
                assert bits == 2
                return self.values.pop(0)

        draws = [sampler.draw(FixedBits([k])) for k in range(4)]
        counts = Counter(draws)
        assert counts == {"a": 1, "b": 1, "c": 2}

    def test_law_roughly_respected(self):
        space = lambda_space(Fraction(1, 4))
        rng = random.Random(123)
        draws = sample_atoms(space, rng, 20000)
        heavy = sum(1 for d in draws if d == "heavy") / len(draws)
        assert abs(heavy - 0.25) < 0.02

    def test_uniform_rejection_unbiased_shape(self):
        space = uniform(3)
        rng = random.Random(5)
        draws = Counter(sample_atoms(space, rng, 30000))
        for atom in space.atoms:
            assert abs(draws[atom] / 30000 - 1 / 3) < 0.02


class TestDrawPositions:
    """The vectorized draws against one `getrandbits` + scan per draw: the
    same positions, and the rng left in the same state."""

    @settings(max_examples=300, deadline=None)
    @given(space=spaces(), n=st.integers(0, 300), seed=st.integers(0, 2 ** 64),
           batch=st.sampled_from([4, 12, 40, sampling.DRAW_BATCH_BYTES]))
    @example(space=uniform(1), n=5, seed=0, batch=4)
    @example(space=uniform(3), n=0, seed=0, batch=4)
    @example(space=ProbSpace(["a", "b"], [1, 2 ** 64], denom=2 ** 64 + 1), n=1, seed=3,
             batch=4)
    def test_equal_to_one_draw_at_a_time(self, space, n, seed, batch):
        want_rng, rng, many_rng = (random.Random(seed) for _ in range(3))
        want = oracles.categorical_draws(space, want_rng, n)
        sampler = CategoricalSampler(space)
        with mock.patch.object(sampling, "DRAW_BATCH_BYTES", batch):
            got = sampler.draw_positions(rng, n)
            many = sampler.draw_many(many_rng, n)
        assert got.dtype == "int64"
        assert got.tolist() == want
        assert many == [space.atoms[p] for p in want]
        assert rng.getstate() == want_rng.getstate() == many_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(denom=st.sampled_from(EDGE_DENOMINATORS), n=st.integers(0, 40),
           seed=st.integers(0, 2 ** 64), batch=st.sampled_from([4, 12, 40]))
    def test_uniform_integers_equal_one_at_a_time(self, denom, n, seed, batch):
        # the integers themselves, whose low limbs hardly move a position
        want_rng, rng = random.Random(seed), random.Random(seed)
        want = [oracles.uniform_below(want_rng, denom) for _ in range(n)]
        with mock.patch.object(sampling, "DRAW_BATCH_BYTES", batch):
            got = sampling._randbelow_many(rng, denom, n)
        assert got.tolist() == want
        assert rng.getstate() == want_rng.getstate()
