"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable."""
import math
import random
import time
from fractions import Fraction

import pytest

from probdiag import (
    ContractionParams,
    TropicalBoundParams,
    contract_once,
    contraction_epsilons,
    default_parameters,
    expand_diagram,
    extend_admissible_fan,
    kd_of_fan,
    local_estimate_witness,
    min_entropy_coupling,
    min_n_for_epsilon,
    monte_carlo_tails,
    tensor_spaces,
    uniform,
    verify_expansion,
)
from probdiag.cli import run_config
from probdiag.distances import random_coupling, single_space_diagram
from probdiag.diagrams import coupling_fan
from probdiag.expansion import ExpansionSpec
from probdiag.fixtures import coord_two_fan, reduced_lambda3, reduced_two_fan
from probdiag.sampling import subseed
from conftest import (
    random_distribution,
    random_reduction,
    random_set_diagram,
    random_space,
)

LN2 = math.log(2)


def report(number: int, passed: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s): {detail}")


def test_criterion_1_core_identities():
    start = time.perf_counter()
    rng = random.Random(1001)
    checked = 0
    for _ in range(1000):
        reduction = random_reduction(rng)
        assert sum(reduction.target.weights, Fraction(0)) == 1  # exact, zero tolerance
        mixture = sum(
            float(reduction.target.weight(u)) * reduction.fiber(u).entropy
            for u in reduction.target.atoms
        )
        assert abs(reduction.domain.entropy
                   - (reduction.target.entropy + mixture)) <= 1e-9
        assert reduction.target.entropy <= reduction.domain.entropy + 1e-9
        x, y = random_space(rng, 8), random_space(rng, 8, prefix="b")
        assert abs(tensor_spaces(x, y).entropy - (x.entropy + y.entropy)) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, True, f"{checked} randomized spaces/reductions, all identities hold", elapsed)
    assert checked >= 1000 and elapsed < 10.0


def test_criterion_2_minimum_entropy_coupling():
    start = time.perf_counter()
    rng = random.Random(1002)
    pool = [random_space(rng, 4, prefix=f"p{k}_") for k in range(20)]
    values: dict = {}
    dominance_checks = 0
    for i in range(20):
        for j in range(i + 1, 20):
            x, y = pool[i], pool[j]
            witness = min_entropy_coupling(x, y)
            assert witness.exact
            value = witness.kd_value
            values[(i, j)] = value
            assert value >= abs(x.entropy - y.entropy) - 1e-9
            iso = sorted(x.weights) == sorted(y.weights)
            assert (abs(value) < 1e-9) == iso
            left, right = single_space_diagram(x), single_space_diagram(y)
            for _ in range(1000):
                fan = coupling_fan(left, right, random_coupling(x, y, rng))
                assert value <= kd_of_fan(fan) + 1e-9
                dominance_checks += 1

    def dist(i, j):
        return 0.0 if i == j else values[(min(i, j), max(i, j))]

    for i in range(20):
        for j in range(20):
            for k in range(20):
                assert dist(i, k) <= dist(i, j) + dist(j, k) + 1e-9

    reference = min_entropy_coupling(uniform(2), uniform(4)).kd_value
    assert abs(reference - LN2) <= 1e-12
    elapsed = time.perf_counter() - start
    report(2, True,
           f"190 exact optima, {dominance_checks} dominance checks, "
           f"triangle on all triples, u2/u4 = ln 2", elapsed)
    assert elapsed < 60.0


def test_criterion_3_local_estimate():
    start = time.perf_counter()
    rng = random.Random(1003)
    worst_margin = float("inf")
    for _ in range(500):
        sd = random_set_diagram(rng, max_objects=5, max_initial=16)
        pi = random_distribution(rng, sd.initial_set())
        pi_prime = random_distribution(rng, sd.initial_set())
        est = local_estimate_witness(sd, pi, pi_prime)
        assert est.witness.kd_value <= est.bound + 1e-9
        assert est.slice_isos_ok
        worst_margin = min(worst_margin, est.bound - est.witness.kd_value)
    elapsed = time.perf_counter() - start
    report(3, True,
           f"500 random instances, witness below bound (worst margin "
           f"{worst_margin:.3e}), slice isomorphisms exact", elapsed)
    assert elapsed < 60.0


def test_criterion_4_chernoff_grid():
    start = time.perf_counter()
    cells = []
    for kind, ts in (("binomial_i", (0.3, 0.5, 0.8)), ("binomial_ii", (0.5, 1.0, 1.5))):
        for n in (50, 200, 1000):
            for rho in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                for t in ts:
                    check = monte_carlo_tails(kind, t=t, trials=100_000, seed=1004,
                                              n=n, rho=rho)
                    cells.append(check)
    failed = [c for c in cells if not c.passed]
    elapsed = time.perf_counter() - start
    report(4, not failed,
           f"{len(cells)} cells x 1e5 trials, all empirical tails within "
           f"bound + 3 sigma", elapsed)
    assert not failed
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def regime_fan():
    diagram, fan = coord_two_fan(17, range(1, 16), range(14, 18))
    return extend_admissible_fan(diagram, fan)


def test_criterion_5_contraction_at_regime_scale(regime_fan):
    start = time.perf_counter()
    ext = regime_fan
    assert ext.x0_card == 2 ** 15 and ext.rho == Fraction(1, 4)
    params0 = default_parameters(ext, seed=0)
    assert params0.N == 4496
    assert params0.t <= 1.0

    exact_ok = 0
    fiber_ok = 0
    height_ok = 0
    ikd_ok = 0
    covered = 0
    for index in range(50):
        params = ContractionParams(N=params0.N, t=params0.t, rho=ext.rho,
                                   seed=subseed(1005, "run", index))
        run = contract_once(ext, params)
        if run.sum_nu == ext.rho * ext.x0_card and run.total_mass == 1:
            exact_ok += 1
        if run.fiber_iso_ok:
            fiber_ok += 1
        cap_run, cap_size = run.height_thresholds()
        if run.height <= cap_run and run.height <= cap_size:
            height_ok += 1
        if run.ikd_upper <= 20.0 * ext.size_h and run.ikd_upper <= 20.0 * ext.size_g:
            ikd_ok += 1
        if run.coverage:
            covered += 1
    elapsed = time.perf_counter() - start
    passed = (exact_ok == 50 and fiber_ok == 50 and height_ok >= 48
              and ikd_ok >= 48 and covered >= 48)
    report(5, passed,
           f"N={params0.N}, t={params0.t:.4f}: exact {exact_ok}/50, fiber-iso "
           f"{fiber_ok}/50, height {height_ok}/50, ikd {ikd_ok}/50, "
           f"coverage {covered}/50", elapsed)
    assert exact_ok == 50
    assert fiber_ok == 50
    assert height_ok >= 48
    assert ikd_ok >= 48
    assert covered >= 48
    assert elapsed < 300.0


def test_criterion_6_small_scale_tails():
    start = time.perf_counter()
    diagram, fan = coord_two_fan(7, range(1, 7), range(6, 8))
    ext = extend_admissible_fan(diagram, fan)
    assert ext.x0_card == 64 and ext.rho == Fraction(1, 2)
    params = ContractionParams(N=200, t=0.5, rho=ext.rho, seed=0)
    totalvar = monte_carlo_tails("totalvar", t=0.5, trials=10_000, seed=1006,
                                 ext=ext, params=params)
    height = monte_carlo_tails("height", t=0.5, trials=10_000, seed=1006,
                               ext=ext, params=params)
    assert totalvar.bound == pytest.approx(128 * math.exp(-200 * 0.5 * 0.25 / 3))
    elapsed = time.perf_counter() - start
    passed = totalvar.passed and height.passed
    report(6, passed,
           f"totalvar: {totalvar.empirical:.4f} <= {totalvar.bound:.4f}; "
           f"height-excess: {height.empirical:.4f} <= min(1, {height.bound:.1f})",
           elapsed)
    assert passed
    assert elapsed < 120.0


def test_criterion_7_expansion():
    start = time.perf_counter()
    fixtures = [reduced_two_fan(4, (3, 4)), reduced_lambda3(2, 4, (2, 3))]
    checked = 0
    for diagram, fan in fixtures:
        for m in (1, 2, 4):
            spec = ExpansionSpec(diagram, fan, m)
            expanded = expand_diagram(spec)
            rep = verify_expansion(diagram, expanded, spec)
            assert abs(rep.arrow_entropy_after - math.log(m)) <= 1e-12
            assert rep.conditioned_slices_equal
            assert rep.recovered_exactly
            checked += 1
    elapsed = time.perf_counter() - start
    report(7, True, f"{checked} fixture/m combinations: arrow entropy ln m, "
                    "shifts exact, slices equal, recovery exact", elapsed)
    assert elapsed < 10.0


def test_criterion_8_epsilon_schedule():
    start = time.perf_counter()
    params = TropicalBoundParams(c=1.0, d_phi=1.0, size_g=3, log_card=1.0)
    for n in (4, 10, 100, 10_000):
        sched = contraction_epsilons(params, n)
        assert sched.conditional > 0 and sched.x_side > 0 and sched.height > 0
    values = [contraction_epsilons(params, n).max() for n in range(4, 2000)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert contraction_epsilons(params, 10 ** 12).max() < 1e-2
    n_first = min_n_for_epsilon(params, 0.1)
    n_second = min_n_for_epsilon(params, 0.1)
    assert n_first == n_second
    assert contraction_epsilons(params, n_first).max() <= 0.1
    assert contraction_epsilons(params, n_first - 1).max() > 0.1
    elapsed = time.perf_counter() - start
    report(8, True, f"all terms positive, eventually decreasing, vanish; "
                    f"min n for 0.1 = {n_first} (stable)", elapsed)
    assert elapsed < 1.0


def test_criterion_9_reproducibility(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        path = tmp_path / name
        code = run_config({
            "command": "contract", "fixture": "coord", "l": 9, "I": "1..7",
            "J": "6..9", "seeds": 5, "seed": 77, "N": 120, "t": 0.8,
            "workers": workers, "output": str(path),
        })
        assert code == 0
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    passed = outputs[0] == outputs[1] == outputs[2]
    report(9, passed, "byte-identical CSV across two runs and worker counts", elapsed)
    assert passed
