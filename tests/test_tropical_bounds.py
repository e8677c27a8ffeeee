import math
import random

import pytest

from probdiag import (
    TropicalBoundParams,
    aep_rate,
    chain_cone_check,
    constant_diagram,
    contraction_epsilons,
    entropy_vector,
    min_n_for_epsilon,
    normalized_power_entropy,
    phi_defect,
    phi_dominance_threshold,
    phi_dominates_rate_term,
    standard_category,
    uniform,
)
from probdiag.errors import BadParamError, CapExceededError, OutOfRangeError
from conftest import random_diagram


class TestAepRate:
    def test_zero_constant(self):
        assert aep_rate(TropicalBoundParams(c=0.0), 100) == 0.0

    def test_plug_in_e(self):
        params = TropicalBoundParams(c=2.5)
        assert aep_rate(params, math.e) == pytest.approx(2.5 * math.e ** -0.5)

    def test_eventually_decreasing_to_zero(self):
        params = TropicalBoundParams(c=1.0)
        values = [aep_rate(params, n) for n in range(55, 4000)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert aep_rate(params, 10 ** 14) < 1e-4

    def test_range(self):
        with pytest.raises(OutOfRangeError):
            aep_rate(TropicalBoundParams(), 1)


class TestPhiDefect:
    def test_at_one(self):
        assert phi_defect(TropicalBoundParams(c=3.0), 1) == pytest.approx(6.0)

    def test_sixteen(self):
        # 2c * 16^(3/4) / 16 = 2c / 16^(1/4) = c
        params = TropicalBoundParams(c=2.0)
        assert phi_defect(params, 16) / 16 == pytest.approx(params.c)

    def test_strictly_sublinear(self):
        params = TropicalBoundParams()
        ratios = [phi_defect(params, t) / t for t in (1, 2, 4, 8, 16, 256)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_dominance_threshold(self):
        threshold = phi_dominance_threshold()
        assert phi_dominates_rate_term(threshold * 1.001)
        assert not phi_dominates_rate_term(threshold * 0.999)
        # holds right at t = 1 as well, fails in the middle range
        assert phi_dominates_rate_term(1.0)
        assert not phi_dominates_rate_term(100.0)


class TestEpsilonSchedule:
    def test_zero_constants(self):
        params = TropicalBoundParams(c=0.0, d_phi=0.0, size_g=4, log_card=2.0)
        sched = contraction_epsilons(params, 10)
        assert sched.conditional == 0.0
        assert sched.x_side == pytest.approx(80 / 10)
        assert sched.height == pytest.approx(4 * math.log(20) / 10)

    def test_all_positive_and_vanishing(self):
        params = TropicalBoundParams(c=1.0, d_phi=1.0, size_g=3, log_card=1.0)
        sched = contraction_epsilons(params, 10)
        assert sched.conditional > 0 and sched.x_side > 0 and sched.height > 0
        far = contraction_epsilons(params, 10 ** 12)
        assert far.max() < 1e-2

    def test_eventually_monotone(self):
        params = TropicalBoundParams(c=1.0, d_phi=1.0, size_g=3, log_card=1.0)
        values = [contraction_epsilons(params, n).max() for n in range(4, 3000)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_min_n_reference(self):
        params = TropicalBoundParams(c=1.0, d_phi=1.0, size_g=3, log_card=1.0)
        n_min = min_n_for_epsilon(params, 0.1)
        assert contraction_epsilons(params, n_min).max() <= 0.1
        assert contraction_epsilons(params, n_min - 1).max() > 0.1
        # deterministic across calls
        assert n_min == min_n_for_epsilon(params, 0.1)

    def test_bad_params(self):
        with pytest.raises(BadParamError):
            TropicalBoundParams(c=-1.0)
        with pytest.raises(OutOfRangeError):
            contraction_epsilons(TropicalBoundParams(log_card=0.0), 10)

    @pytest.mark.parametrize("field", ["c", "d_phi", "log_card"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(BadParamError):
            TropicalBoundParams(**{field: value})

    def test_min_n_needs_positive_log_card(self):
        with pytest.raises(OutOfRangeError):
            min_n_for_epsilon(TropicalBoundParams(log_card=0.0), 0.1)

    @pytest.mark.parametrize("size_g, n", [(3, 10 ** 400), (10 ** 400, 10)],
                             ids=["n", "size_g"])
    def test_integers_past_float_range_rejected(self, size_g, n):
        with pytest.raises(OutOfRangeError, match="fit a float"):
            contraction_epsilons(TropicalBoundParams(size_g=size_g), n)


class TestChainCone:
    def test_zero_vector(self):
        assert chain_cone_check([0.0, 0.0, 0.0])

    def test_decreasing_rejected(self):
        assert not chain_cone_check([1.0, 0.5])

    def test_negative_rejected(self):
        assert not chain_cone_check([-0.1, 0.5])

    def test_chain_entropy_vectors(self):
        rng = random.Random(50)
        for _ in range(40):
            k = rng.randint(1, 5)
            cat = standard_category("chain", k)
            d = random_diagram(rng, cat)
            vec = entropy_vector(d)
            bottom_up = [vec[str(i)] for i in range(1, k + 1)]
            assert chain_cone_check(bottom_up)


class TestNormalizedPowerEntropy:
    def test_power_one(self):
        d = constant_diagram(standard_category("chain", 2), uniform(3))
        assert normalized_power_entropy(d, 1) == entropy_vector(d)

    def test_uniform_cubes(self):
        d = constant_diagram(standard_category("two_fan"), uniform(2))
        vec = normalized_power_entropy(d, 3)
        for value in vec.values():
            assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_random_square(self):
        rng = random.Random(51)
        for _ in range(10):
            d = random_diagram(rng, max_initial=5)
            vec = normalized_power_entropy(d, 2)
            base = entropy_vector(d)
            for obj, value in vec.items():
                assert value == pytest.approx(base[obj], abs=1e-9)

    def test_cap(self):
        d = constant_diagram(standard_category("two_fan"), uniform(30))
        with pytest.raises(CapExceededError):
            normalized_power_entropy(d, 5, cap=1000)
