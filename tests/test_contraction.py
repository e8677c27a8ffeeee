import dataclasses
import functools
import json
import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import reversed_reload
from probdiag import (
    ContractionParams,
    Diagram,
    FanIndices,
    ProbSpace,
    build_category,
    contract_once,
    coordinate_diagram,
    default_parameters,
    extend_admissible_fan,
    make_diagram,
    monte_carlo_tails,
    recover_collapsed_diagram,
    tail_bounds,
)
from probdiag import contraction, diagrams
from probdiag.automorphisms import diagram_isomorphic
from probdiag.cli import main
from probdiag.errors import (
    CommutativityError,
    NotAdmissibleError,
    NotFanGeneratedError,
    OutOfRangeError,
    TooLargeError,
    UnknownKindError,
)
from probdiag.fixtures import coord_lambda3, coord_two_fan, reduced_lambda3
from probdiag.jsonio import diagram_from_obj, diagram_to_obj, load_diagram, save_diagram
from probdiag.spaces import Reduction
from probdiag.sampling import np_rng_for

LN2 = math.log(2)


def quiet_default_parameters(ext, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return default_parameters(ext, seed)


class TestExtendAdmissibleFan:
    def test_two_fan_point_shape(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        ext = extend_admissible_fan(d, fi)
        assert ext.shape.objects == ("left",)
        # the joint with u reconstructs the whole top space
        assert len(ext.ydiag.spaces["left"]) == len(d.spaces["top"])
        assert ext.rho == Fraction(1, 4)
        assert ext.x0_card == 16

    def test_lambda3_three_objects(self):
        d, fi = coord_lambda3()
        ext = extend_admissible_fan(d, fi)
        assert set(ext.shape.objects) == {"x", "x1", "x2"}
        for obj in ext.shape.objects:
            assert len(ext.ydiag.spaces[obj]) >= len(ext.xdiag.spaces[obj])

    def test_fibers_are_built_from_the_position_table_on_read(self):
        # the set-up keeps the fibers as x0 positions only, and a
        # contraction's counts read them there
        d, fi = reduced_lambda3(3, 7, range(6, 8))
        ext = extend_admissible_fan(d, fi)
        run = contract_once(ext, quiet_default_parameters(ext, 1))
        assert run.counts and "fibers" not in vars(ext)
        # the x0 atoms over each u, in order of first appearance over the
        # initial atoms, read off the atom maps
        to_x0 = d.composite_mapping(d.initial, ext.x0)
        to_u = d.composite_mapping(d.initial, fi.u_obj)
        want = {u: {} for u in ext.u_space.atoms}
        for z in d.initial_space.atoms:
            want[to_u[z]][to_x0[z]] = None
        assert ext.fibers == {u: tuple(xs) for u, xs in want.items()}
        assert {len(xs) for xs in ext.fibers.values()} == {ext.fiber_size}
        u_atoms = ext.u_space.atoms
        drawn = {x for p in run._u_pos.tolist() for x in ext.fibers[u_atoms[p]]}
        assert set(run.counts) == drawn

    def test_not_admissible(self):
        cat = build_category(["z", "x", "u", "w"],
                             [("z", "x"), ("z", "u"), ("z", "w")])
        d = coordinate_diagram(cat, {"z": range(1, 4), "x": [1], "u": [2, 3],
                                     "w": [3]}, 3)
        with pytest.raises(NotAdmissibleError):
            extend_admissible_fan(d, FanIndices("x", "z", "u"))


class TestDefaultParameters:
    def test_regime_scale(self):
        d, fi = coord_two_fan(17, range(1, 16), range(14, 18))
        ext = extend_admissible_fan(d, fi)
        assert ext.x0_card == 2 ** 15 and ext.rho == Fraction(1, 4)
        params = default_parameters(ext, seed=1)
        # against high-precision arithmetic
        import mpmath

        mpmath.mp.dps = 40
        expected_n = int(mpmath.ceil(mpmath.log(2 ** 15) ** 3 * 4))
        assert params.N == expected_n == 4496
        assert params.t == pytest.approx(10.0 / (15 * LN2))
        assert params.t <= 1.0

    def test_small_scale_warns(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        ext = extend_admissible_fan(d, fi)
        with pytest.warns(RuntimeWarning):
            params = default_parameters(ext, seed=1)
        assert params.N == 86
        assert params.t == pytest.approx(10.0 / (4 * LN2))

    def test_trivial_u(self):
        d, fi = coord_two_fan(4, range(1, 5), [])
        # right foot carries no coordinates: a one-point space, rho = 1
        ext = extend_admissible_fan(d, fi)
        assert ext.rho == 1
        params = quiet_default_parameters(ext, seed=0)
        assert params.N == math.ceil(math.log(16) ** 3)


class TestContractOnce:
    def test_dirac_u_is_identity_on_x_side(self):
        d, fi = coord_two_fan(4, range(1, 5), [])
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=20, t=0.5, rho=ext.rho, seed=3)
        run = contract_once(ext, params)
        assert run.alpha == 0
        assert run.coverage
        assert run.height == pytest.approx(math.log(20))
        assert run.xprime.spaces["left"] == d.spaces["left"]

    @staticmethod
    def _cached_keys(d, fi):
        ext = extend_admissible_fan(d, fi)
        run = contract_once(ext, quiet_default_parameters(ext, seed=0))
        assert run.fiber_iso_ok
        diagrams = [key for key in ext._fiber_iso_cache if key[0] == "diagram"]
        verdicts = [key for key in ext._fiber_iso_cache if key[0] == "verdict"]
        assert len(verdicts) == len(ext.u_space)
        return ext, diagrams

    def test_certified_fan_builds_no_conditioned_diagram(self):
        # the coordinate translation is checked on the lifts
        _, diagrams = self._cached_keys(*coord_two_fan(13, range(1, 12), range(10, 14)))
        assert diagrams == []

    def test_fiber_cache_keeps_only_reference_diagram(self):
        # reloaded from JSON, the fan has no certificate and every verdict
        # searches against the reference atom's diagram; the fan is smaller
        # than the one above, whose homogeneity search is over the cap
        d, fi = coord_two_fan(8, range(1, 7), range(5, 9))
        loaded = diagram_from_obj(json.loads(json.dumps(diagram_to_obj(d))))
        assert loaded.coord_meta is None
        ext, diagrams = self._cached_keys(loaded, fi)
        assert diagrams == [("diagram", ext.u_space.atoms[0])]

    @pytest.mark.parametrize("n", [contraction.MAX_SAMPLE_SIZE + 1, 10 ** 9])
    def test_sample_cap_is_checked_before_any_draw(self, n):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=n, t=0.5, rho=ext.rho, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match="over the cap of 1048576"):
                contract_once(ext, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "4"])
    def test_bad_n_is_refused_before_any_draw(self, n):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=n, t=0.5, rho=ext.rho, seed=0)
        with pytest.raises(OutOfRangeError, match="N must be a positive integer"):
            contract_once(ext, params)

    def test_exact_identities_over_seeds(self):
        d, fi = coord_two_fan(7, range(1, 6), range(5, 8))
        ext = extend_admissible_fan(d, fi)
        for seed in range(10):
            params = ContractionParams(N=150, t=0.5, rho=ext.rho, seed=seed)
            run = contract_once(ext, params)
            assert run.sum_nu == ext.rho * ext.x0_card
            assert run.total_mass == 1
            assert run.fiber_iso_ok
            via_fibers, via_difference = oracles.height_two_ways(run)
            assert via_fibers == pytest.approx(via_difference, abs=1e-9)

    def test_lambda3_run(self):
        d, fi = coord_lambda3()
        ext = extend_admissible_fan(d, fi)
        params = quiet_default_parameters(ext, seed=9)
        run = contract_once(ext, params)
        assert run.sum_nu == ext.rho * ext.x0_card
        assert run.fiber_iso_ok
        assert run.fan_prime is not None
        # the materialized fan is a valid fan of diagrams
        run.fan_prime._check_natural()

    def test_ikd_upper_backed_by_real_witness(self):
        # at small scale the reported bound is cross-checked against a
        # materialized witness coupling between the run and the x-side
        from probdiag import SetDiagram, local_estimate_witness

        d, fi = coord_lambda3()
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=25, t=0.5, rho=ext.rho, seed=11)
        run = contract_once(ext, params)
        assert run.coverage
        sd = SetDiagram.from_diagram(ext.xdiag)
        uniform_pi = {x: Fraction(1, ext.x0_card) for x in ext.x0_space.atoms}
        est = local_estimate_witness(sd, oracles.p_b0(run), uniform_pi)
        assert est.alpha == run.alpha
        assert est.bound == pytest.approx(run.ikd_upper, abs=1e-12)
        assert est.witness.kd_value <= run.ikd_upper + 1e-9

    def test_coverage_flag_and_rough_bound(self):
        d, fi = coord_two_fan(8, range(1, 7), range(5, 9))
        ext = extend_admissible_fan(d, fi)
        # N = 1 cannot cover 64 atoms through 16-atom fibers
        params = ContractionParams(N=1, t=0.5, rho=ext.rho, seed=0)
        run = contract_once(ext, params)
        assert not run.coverage
        assert run.rough_bound_used
        assert run.ikd_upper == pytest.approx(2 * ext.size_h * math.log(ext.x0_card))


COORD_FANS = {
    "empty_foot": lambda: coord_two_fan(4, range(1, 5), []),
    "two_fan6": lambda: coord_two_fan(6, range(1, 5), range(3, 7)),
    "two_fan9": lambda: coord_two_fan(9, [1, 3, 5, 7, 9], [2, 3, 4, 6, 8, 9]),
    "lambda3": coord_lambda3,
    "lambda3_6": lambda: coord_lambda3((1, 4), (2, 5), (3, 5, 6)),
    "reduced_lambda3_5": lambda: reduced_lambda3(2, 5, range(4, 6)),
    "reduced_lambda3_7": lambda: reduced_lambda3(3, 7, range(6, 8)),
}


def _with_coords(diagram, obj, coords):
    """The diagram with a certificate that lists other coordinates at obj."""
    meta = dataclasses.replace(diagram.coord_meta,
                               coords={**diagram.coord_meta.coords, obj: coords})
    return Diagram._trusted(diagram.category, diagram.spaces, diagram.prime_maps,
                            coord_meta=meta, certified_homogeneous=True)


class TestFiberTranslation:
    """The translation check on lifts against the dict check it replaced."""

    @pytest.mark.parametrize("build", COORD_FANS.values(), ids=COORD_FANS)
    def test_lift_check_is_the_dict_check(self, build):
        ext = extend_admissible_fan(*build())
        u_ref = ext.u_space.atoms[0]
        for u in ext.u_space.atoms:
            assert contraction._fiber_translation_iso(ext, u, u_ref)
            assert oracles.translation_iso_by_dicts(ext, u, u_ref)

    @pytest.mark.parametrize("build, obj, coords", [
        # bits 2 and 3 of the shift at x0 swapped
        (COORD_FANS["two_fan6"], "left", (1, 2, 4, 3)),
        # a shift at x0 past its 4 bits
        (COORD_FANS["two_fan6"], "left", (1, 2, 3, 4, 5)),
        # x1 reads a coordinate of u: its masses still agree, as conditioning
        # on u leaves x1 uniform, but the shift there does not commute
        (COORD_FANS["lambda3"], "x1", (1, 3)),
    ], ids=["x0_bits_swapped", "x0_out_of_range", "x1_unnatural"])
    def test_a_wrong_shift_fails_and_search_decides(self, build, obj, coords):
        d, fi = build()
        ext = extend_admissible_fan(_with_coords(d, obj, coords), fi)
        u_ref = ext.u_space.atoms[0]
        verdicts = [contraction._fiber_translation_iso(ext, u, u_ref) for u in ext.u_space.atoms]
        assert verdicts == [oracles.translation_iso_by_dicts(ext, u, u_ref)
                            for u in ext.u_space.atoms]
        assert not all(verdicts)
        for u in ext.u_space.atoms:
            searched, _ = diagram_isomorphic(ext.conditioned_x_side(u),
                                             ext.conditioned_x_side(u_ref))
            assert searched
            assert ext.fiber_isomorphic_to_reference(u) == searched


class TestRecover:
    def test_two_fan_roundtrip_shape(self):
        d, fi = coord_two_fan(7, range(1, 6), range(5, 8))
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=40, t=0.5, rho=ext.rho, seed=5)
        run = contract_once(ext, params)
        out = recover_collapsed_diagram(d, fi, run)
        assert out.category == d.category
        assert out.spaces[fi.u_obj] == run.vspace
        assert out.spaces[fi.x_obj] == run.xprime.spaces[fi.x_obj]
        # initial space is the conditioned joint: N * fiber atoms
        assert len(out.initial_space) == 40 * ext.fiber_size

    def test_lambda3_shape(self):
        d, fi = coord_lambda3()
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=18, t=0.5, rho=ext.rho, seed=6)
        run = contract_once(ext, params)
        out = recover_collapsed_diagram(d, fi, run)
        assert out.category == d.category
        assert len(out.spaces["u"]) == 18
        vec_x1 = out.spaces["x1"]
        assert len(vec_x1) == len(d.spaces["x1"])

    def test_recovery_reuses_the_runs_maps(self):
        d, fi = coord_lambda3()
        ext = extend_admissible_fan(d, fi)
        run = contract_once(ext, ContractionParams(N=18, t=0.5, rho=ext.rho, seed=6))
        out = recover_collapsed_diagram(d, fi, run)
        fan, xprime = run.fan_prime, run.xprime
        # z, z1 and z2 carry the conditioned joints over x, x1 and x2
        expected = {("z", "x"): fan.proj_left["x"],
                    ("z", "z1"): fan.top.prime_maps[("x", "x1")],
                    ("z", "z2"): fan.top.prime_maps[("x", "x2")],
                    ("z1", "x1"): fan.proj_left["x1"],
                    ("z1", "u"): fan.proj_right["x1"],
                    ("z2", "x2"): fan.proj_left["x2"],
                    ("z2", "u"): fan.proj_right["x2"],
                    ("x", "x1"): xprime.prime_maps[("x", "x1")],
                    ("x", "x2"): xprime.prime_maps[("x", "x2")]}
        assert set(out.prime_maps) == set(expected)
        for cover, reduction in expected.items():
            assert out.prime_maps[cover] is reduction
        plain = {cover: dict(r.mapping) for cover, r in out.prime_maps.items()}
        assert make_diagram(out.category, out.spaces, plain) == out

    @pytest.mark.parametrize("build, n, seed", [
        (lambda: _loaded(lambda: reduced_lambda3(3, 7, range(6, 8))), None, 0),
        (lambda: _loaded(coord_lambda3), 3, 6),
        (coord_lambda3, 18, 6),
    ], ids=["loaded_reduced_lambda3", "loaded_coord_lambda3_partial", "coord_lambda3"])
    def test_recovered_diagram_passes_the_public_checks(self, build, n, seed):
        d, fi = build()
        ext = extend_admissible_fan(d, fi)
        n = quiet_default_parameters(ext, seed=0).N if n is None else n
        run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
        out = recover_collapsed_diagram(d, fi, run)
        assert oracles.recheck(out) == out
        if n < 100:
            # every path of covers composes, atom by atom, to the composite
            # read off the lifts
            cat = out.category
            atoms = {o: s.atoms for o, s in out.spaces.items()}
            maps = {c: r.mapping for c, r in out.prime_maps.items()}
            composites = oracles.path_composites(cat.objects, cat.covers, atoms, maps)
            for (src, dst), by_path in composites.items():
                assert all(out.composite_mapping(src, dst) == m for m in by_path.values())

    def test_not_fan_generated(self):
        cat = build_category(["z", "x", "w", "u"],
                             [("z", "x"), ("z", "w"), ("w", "u")])
        d = coordinate_diagram(cat, {"z": range(1, 5), "x": [1, 2],
                                     "w": [2, 3, 4], "u": [3, 4]}, 4)
        fi = FanIndices("x", "z", "u")
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=10, t=0.5, rho=ext.rho, seed=7)
        run = contract_once(ext, params)
        with pytest.raises(NotFanGeneratedError):
            recover_collapsed_diagram(d, fi, run)

    def test_regime_scale_run_exceeds_the_materialization_cap(self):
        # |x0| = 2^15 and fiber size 2^13 at the default N = 4496: the
        # conditioned joints would hold N f = 36.8M atoms
        d, fi = coord_two_fan(17, range(1, 16), range(14, 18))
        ext = extend_admissible_fan(d, fi)
        run = contract_once(ext, quiet_default_parameters(ext, seed=0))
        assert run.params.N * run.fiber_size == 36_831_232
        assert run.fan_prime is None
        with pytest.raises(TooLargeError, match="materialization cap 500000"):
            recover_collapsed_diagram(d, fi, run)


class TestTailBounds:
    def test_binomial_i_reference_value(self):
        tb = tail_bounds("binomial_i", 200, Fraction(1, 4), 0.5)
        assert tb.bound == pytest.approx(2 * math.exp(-25 / 6), rel=1e-12)
        assert tb.bound == pytest.approx(0.0310078, abs=1e-6)

    def test_t_zero_vacuous(self):
        assert tail_bounds("binomial_i", 100, 0.5, 0.0).bound == 2.0

    def test_range_errors(self):
        with pytest.raises(OutOfRangeError):
            tail_bounds("binomial_i", 100, 0.5, 1.5)
        with pytest.raises(OutOfRangeError):
            tail_bounds("binomial_ii", 100, 0.5, 2.5)
        with pytest.raises(UnknownKindError):
            tail_bounds("sideways", 100, 0.5, 0.5)

    @pytest.mark.parametrize("kind, n, sizes, message", [
        ("height", 0, {"x0_card": 16}, "n must be a positive integer"),
        ("binomial_i", -10 ** 6, {}, "n must be a positive integer"),
        ("binomial_ii", 2.5, {}, "n must be a positive integer"),
        ("totalvar", True, {"x0_card": 16}, "n must be a positive integer"),
        ("totalvar", 100, {"x0_card": 0}, "x0_card must be a positive integer"),
        ("height", 100, {"x0_card": 1.5}, "x0_card must be a positive integer"),
        ("ikd", 100, {"x0_card": 1, "size": 3}, "ikd needs x0_card >= 2"),
        ("ikd", 100, {"x0_card": 16, "size": 0}, "size must be a positive integer"),
    ])
    def test_bad_sizes_are_refused(self, kind, n, sizes, message):
        with pytest.raises(OutOfRangeError, match=f"^{message}, got"):
            tail_bounds(kind, n, 0.25, 0.5, **sizes)

    def test_height_threshold_matches_size_cap(self):
        # with N rho = ln^3|x0| the run threshold ln(N rho) + t stays below
        # 4 ln ln|x0| exactly when t <= ln ln|x0|
        for card in (2 ** 10, 2 ** 15, 2 ** 20):
            log_card = math.log(card)
            n_rho = log_card ** 3
            n = int(round(n_rho / 0.25))
            tb = tail_bounds("height", n, 0.25, 0.5, x0_card=card)
            lnln = math.log(log_card)
            assert tb.threshold == pytest.approx(math.log(n * 0.25) + 0.5, abs=1e-9)
            assert (tb.threshold <= 4 * lnln + 1e-9) == (0.5 <= lnln + 1e-9)


class TestMonteCarloTails:
    def test_binomial_reference_cell(self):
        check = monte_carlo_tails("binomial_i", t=0.5, trials=100_000, seed=0,
                                  n=200, rho=Fraction(1, 4))
        # roughly a four-sigma event: far below the analytic bound
        assert check.empirical < 0.001
        assert check.passed

    def test_binomial_part_two(self):
        check = monte_carlo_tails("binomial_ii", t=1.0, trials=20_000, seed=0,
                                  n=200, rho=Fraction(1, 4))
        assert check.passed

    def test_edge_t_one(self):
        check = monte_carlo_tails("binomial_i", t=1.0, trials=1000, seed=0,
                                  n=50, rho=Fraction(1, 2))
        assert check.passed

    def test_fan_kinds_small(self):
        d, fi = coord_two_fan(7, range(1, 7), range(6, 8))
        ext = extend_admissible_fan(d, fi)
        params = ContractionParams(N=200, t=0.5, rho=ext.rho, seed=0)
        for kind in ("totalvar", "height", "ikd"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                check = monte_carlo_tails(kind, t=0.5, trials=2000, seed=1,
                                          ext=ext, params=params)
            assert check.passed, kind

    def test_reproducible(self):
        a = monte_carlo_tails("binomial_i", t=0.3, trials=5000, seed=7,
                              n=50, rho=Fraction(1, 2))
        b = monte_carlo_tails("binomial_i", t=0.3, trials=5000, seed=7,
                              n=50, rho=Fraction(1, 2))
        assert a.empirical == b.empirical


def _small_fans():
    """One fan per shape: a coordinate two-fan, the three-feet fixture and a
    JSON-reloaded reduced three-feet fan (no coordinate certificate)."""
    reduced, fi = reduced_lambda3(3, 7, range(6, 8))
    reloaded = diagram_from_obj(json.loads(json.dumps(diagram_to_obj(reduced))))
    return {"two_fan": coord_two_fan(7, range(1, 7), range(6, 8)),
            "lambda3": coord_lambda3(),
            "reduced_lambda3": (reloaded, fi)}


@pytest.fixture(scope="module")
def small_exts():
    return {name: extend_admissible_fan(d, fi) for name, (d, fi) in _small_fans().items()}


# t per kind puts the N = 40 cells strictly inside (0, 1) on every small fan;
# off the lattice of total-variation values, where float sums break ties
INTERIOR_T = {"totalvar": 0.2113, "height": 0.0517, "ikd": 0.2071}


def _cell_draws(ext, kind, params, t, seed, trials):
    """The multiplicity rows a fan cell draws: its derived stream, u order."""
    pvals = np.array([m / ext.u_space.denom for m in ext.u_space.masses])
    gen = np_rng_for(seed, f"tails|{kind}|{params.N}|{float(params.rho)}|{t}", 0)
    return gen.multinomial(params.N, pvals / pvals.sum(), size=trials)


def _row_bytes(ext) -> int:
    """The bytes of one row of a fan cell's int64 sample and count arrays."""
    return 8 * sum(ext.fiber_patterns[0].shape)


class TestFanTailsByPattern:
    def test_fiber_patterns_group_atoms_by_fiber_membership(self, small_exts):
        for ext in small_exts.values():
            pattern, sizes = ext.fiber_patterns
            assert pattern.dtype == np.int64 and sizes.dtype == np.int64
            assert int(sizes.sum()) == ext.x0_card
            # an atom's pattern: which u fibers hold it, from ext.fibers alone
            member = {x: tuple(int(x in ext.fibers[u]) for u in ext.u_space.atoms)
                      for x in ext.x0_space.atoms}
            columns = [tuple(col) for col in pattern.T.tolist()]
            assert columns == list(dict.fromkeys(member.values()))  # first appearance
            assert sizes.tolist() == [list(member.values()).count(c) for c in columns]
            # so each atom's fiber count is its column's count
            mult = np.arange(1, len(ext.u_space) + 1, dtype=np.int64)
            by_column = dict(zip(columns, (mult @ pattern).tolist()))
            for x, m in member.items():
                assert by_column[m] == sum(k * held for k, held in zip(mult.tolist(), m))
            assert ext.fiber_patterns is ext.fiber_patterns  # cached

    @pytest.mark.parametrize("name", ["two_fan", "lambda3", "reduced_lambda3"])
    @pytest.mark.parametrize("kind", ["totalvar", "height", "ikd"])
    def test_hits_match_dense_oracle(self, small_exts, name, kind, monkeypatch):
        ext = small_exts[name]
        t, trials, seed = INTERIOR_T[kind], 1500, 11
        params = ContractionParams(N=40, t=0.5, rho=ext.rho, seed=0)
        monkeypatch.setattr(contraction, "MC_BATCH_BYTES", 400 * _row_bytes(ext))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            check = monte_carlo_tails(kind, t=t, trials=trials, seed=seed,
                                      ext=ext, params=params)
        mult = _cell_draws(ext, kind, params, t, seed, trials)
        hits = oracles.dense_fan_tail_hits(ext, kind, t, mult)
        assert 0 < hits < trials
        assert check.empirical == hits / trials

    def test_totalvar_is_exact_at_the_threshold(self, small_exts):
        # t = 1/5 is a total-variation value of this fan at N = 40, where
        # a float sum over atoms lands on either side of t
        ext = small_exts["reduced_lambda3"]
        t, trials, seed = 0.2, 1500, 11
        params = ContractionParams(N=40, t=0.5, rho=ext.rho, seed=0)
        check = monte_carlo_tails("totalvar", t=t, trials=trials, seed=seed,
                                  ext=ext, params=params)
        card, nf = ext.x0_card, params.N * ext.fiber_size
        hits = ties = 0
        for row in _cell_draws(ext, "totalvar", params, t, seed, trials).tolist():
            counts = dict.fromkeys(ext.x0_space.atoms, 0)
            for m, u in zip(row, ext.u_space.atoms):
                for x in ext.fibers[u]:
                    counts[x] += m
            two_alpha = Fraction(sum(abs(c * card - nf) for c in counts.values()), nf * card)
            hits += two_alpha > Fraction(t)
            ties += two_alpha == Fraction(1, 5)
        assert ties > 0
        assert check.empirical == hits / trials

    @pytest.mark.parametrize("kind", ["totalvar", "height", "ikd"])
    def test_batch_size_does_not_change_the_check(self, small_exts, kind, monkeypatch):
        ext = small_exts["reduced_lambda3"]
        params = ContractionParams(N=40, t=0.5, rho=ext.rho, seed=0)
        trials = 3000

        def cell(**kw):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return monte_carlo_tails(kind, t=INTERIOR_T[kind], trials=trials, seed=5,
                                         ext=ext, params=params, **kw)

        default = cell()
        assert 0 < default.empirical < 1
        monkeypatch.setattr(contraction, "MC_BATCH_BYTES", 7 * _row_bytes(ext))
        assert cell() == default
        # a byte budget smaller than one row still draws one row per batch
        monkeypatch.setattr(contraction, "MC_BATCH_BYTES", 1)
        assert cell() == default

    def test_overflow_guard(self):
        d, fi = coord_two_fan(7, range(1, 7), range(6, 8))
        ext = extend_admissible_fan(d, fi)
        huge = ContractionParams(N=2 ** 60, t=0.5, rho=ext.rho, seed=0)
        with pytest.raises(TooLargeError, match=r"N = 1152921504606846976 and \|x0\| = 64"):
            monte_carlo_tails("totalvar", t=0.5, trials=10, seed=0, ext=ext, params=huge)
        # 2 N f |x0| must stay below 2^62
        contraction._check_deviation_fits(2 ** 30, 2 ** 15, 2 ** 16 - 1)
        with pytest.raises(TooLargeError):
            contraction._check_deviation_fits(2 ** 30, 2 ** 15, 2 ** 16)

    def test_regime_scale_totalvar_cell(self):
        d, fi = coord_two_fan(17, range(1, 16), range(14, 18))
        ext = extend_admissible_fan(d, fi)
        params = default_parameters(ext, seed=0)
        pattern, sizes = ext.fiber_patterns
        assert pattern.shape[1] == 4 and list(sizes) == [2 ** 13] * 4
        check = monte_carlo_tails("totalvar", t=params.t, trials=10_000, seed=0,
                                  ext=ext, params=params)
        assert check.trials == 10_000 and check.passed


def _shuffled_chain():
    """A coordinate fan whose x-side is a chain x -> xa -> xb, reloaded
    with every space's atoms in a seeded random order: the first
    appearances of an object's atoms over the x0 atoms then differ between
    a full and a partial sample, also at xa, the source of a cover."""
    cat = build_category(["z", "x", "xa", "xb", "u"],
                         [("z", "x"), ("z", "u"), ("x", "xa"), ("xa", "xb")])
    coords = {"z": range(1, 6), "x": (1, 2, 3, 4), "xa": (1, 2, 3), "xb": (2, 3),
              "u": (4, 5)}
    obj = diagram_to_obj(coordinate_diagram(cat, coords, 5))
    rng = random.Random(4)
    for space in obj["spaces"].values():
        pairs = list(zip(space["atoms"], space["weights"]))
        rng.shuffle(pairs)
        space["atoms"], space["weights"] = map(list, zip(*pairs))
    return diagram_from_obj(obj), FanIndices("x", "z", "u")


def _cyclic_fan(n: int = 5):
    """A two-fan whose fibers overlap without being equal: z uniform on the
    pairs (x, u) of Z_n with x - u in {0, 1}, so the fiber over u is
    {u, u + 1}; homogeneous under the rotations of Z_n."""
    pairs = [(x, (x - d) % n) for x in range(n) for d in (0, 1)]
    top = ProbSpace([f"z{x}_{u}" for x, u in pairs], [1] * len(pairs), denom=len(pairs))
    left = ProbSpace([f"x{x}" for x in range(n)], [1] * n, denom=n)
    right = ProbSpace([f"u{u}" for u in range(n)], [1] * n, denom=n)
    d = make_diagram(build_category(["top", "left", "right"],
                                    [("top", "left"), ("top", "right")]),
                     {"top": top, "left": left, "right": right},
                     {("top", "left"): {f"z{x}_{u}": f"x{x}" for x, u in pairs},
                      ("top", "right"): {f"z{x}_{u}": f"u{u}" for x, u in pairs}})
    return d, FanIndices("left", "top", "right")


class TestPerPatternAgainstPerAtomOracle:
    @pytest.mark.parametrize("name", ["two_fan", "lambda3", "reduced_lambda3",
                                      "shuffled_chain", "cyclic"])
    def test_every_field_in_key_order(self, small_exts, name):
        # N = 1, 2, 3, 5 leave atoms uncovered, so both ways of ordering the
        # conditioned x-side are compared
        extra = {"shuffled_chain": _shuffled_chain, "cyclic": _cyclic_fan}
        ext = (extend_admissible_fan(*extra[name]()) if name in extra
               else small_exts[name])
        f = ext.fiber_size
        partial = 0
        for n in (1, 2, 3, 5, quiet_default_parameters(ext, seed=0).N):
            for seed in range(8):
                params = ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed)
                run = contract_once(ext, params)
                want = oracles.contract_per_atom(ext, params)
                assert list(run.counts.items()) == list(want.counts.items())
                assert list(run.nu.items()) == [(x, Fraction(c, n))
                                                for x, c in want.counts.items()]
                assert list(oracles.p_b0(run).items()) == [(x, Fraction(c, n * f))
                                                           for x, c in want.counts.items()]
                assert run.sum_nu == Fraction(sum(want.counts.values()), n)
                assert run.total_mass == Fraction(sum(want.counts.values()), n * f)
                assert run.alpha == want.alpha
                assert repr(run.height) == repr(want.height)
                assert run.coverage == want.coverage != run.rough_bound_used
                assert repr(run.ikd_upper) == repr(want.ikd_upper)
                assert list(run.xprime.spaces) == list(want.spaces)
                for obj, space in want.spaces.items():
                    got = run.xprime.spaces[obj]
                    assert (got.atoms, got.masses, got.denom) == (
                        space.atoms, space.masses, space.denom)
                assert list(run.xprime.prime_maps) == list(want.maps)
                for cover, mapping in want.maps.items():
                    assert list(run.xprime.prime_maps[cover].mapping.items()) == list(
                        mapping.items())
                partial += not run.coverage
        assert partial >= 8


def _loaded(build):
    diagram, fi = build()
    return diagram_from_obj(json.loads(json.dumps(diagram_to_obj(diagram)))), fi


def _fan_fields(fan) -> tuple:
    """Every atom, mass, denominator and map entry of a fan, in key order."""
    def space(s):
        return s.atoms, s.masses, s.denom

    def reductions(reds):
        return [(key, space(r.domain), space(r.target), list(r.mapping.items()))
                for key, r in reds.items()]

    return tuple((list(map(space, d.spaces.values())), list(d.spaces),
                  reductions(d.prime_maps))
                 for d in (fan.top, fan.left, fan.right)) + (
        reductions(fan.proj_left), reductions(fan.proj_right))


class TestMaterializedFan:
    @pytest.mark.parametrize("build, runs", [
        (lambda: _loaded(lambda: reduced_lambda3(3, 7, range(6, 8))), [(None, 0), (None, 1)]),
        (lambda: _loaded(coord_lambda3), [(1, 0), (1, 5), (3, 6), (3, 0)]),
        # x0 reversed, so not in coordinate order
        (lambda: (reversed_reload(coord_lambda3()[0]), coord_lambda3()[1]),
         [(None, 0), (1, 2), (2, 5), (3, 6)]),
        (lambda: coord_two_fan(7, range(1, 6), range(5, 8)), [(1, 2), (40, 5)]),
        (_shuffled_chain, [(1, 3), (2, 1), (12, 4)]),
    ], ids=["loaded_reduced_lambda3", "loaded_coord_lambda3", "reversed_coord_lambda3",
            "coord_two_fan", "shuffled_chain"])
    def test_tagged_union_equals_the_pair_fan(self, build, runs):
        # the fan read off x''s lifts on the sampled fibers equals the
        # coupling fan of every sampled pair (x, k), field by field and in
        # key order; N = None is the default N, which covers x0
        ext = extend_admissible_fan(*build())
        for n, seed in runs:
            n = quiet_default_parameters(ext, seed=0).N if n is None else n
            run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
            if n == 1 or (n, seed) in ((2, 5), (3, 6)):
                assert not run.coverage
            fan = run.fan_prime
            # y' stores every map as target positions; the atom dicts are
            # views of them, built on first read, with the targets' own atoms
            reductions = [*fan.top.prime_maps.values(), *fan.proj_left.values(),
                          *fan.proj_right.values()]
            assert all(r._mapping is None for r in reductions)
            want = oracles.materialized_fan(ext, run._u_pos, run.xprime, run.vspace)
            assert _fan_fields(fan) == _fan_fields(want)
            for r in reductions:
                assert all(r.mapping[a] is r.target.atoms[p]
                           for a, p in zip(r.domain.atoms, r.positions))
            oracles.recheck(fan)



def _flat(values) -> list:
    """values, with the elements of tuple atoms in place of the tuples."""
    return [x for v in values for x in (v if isinstance(v, tuple) else (v,))]


def test_materialized_fan_holds_python_ints(tmp_path):
    # y' is gathered from int64 tables and lifts are int64 arrays; what the
    # package hands out is Python ints
    diagram, fi = _loaded(lambda: reduced_lambda3(3, 7, range(6, 8)))
    ext = extend_admissible_fan(diagram, fi)
    run = contract_once(ext, ContractionParams(N=50, t=0.5, rho=ext.rho, seed=4))
    fan = run.fan_prime
    reductions = [*fan.top.prime_maps.values(), *fan.proj_left.values(),
                  *fan.proj_right.values()]
    held = [v for sp in fan.top.spaces.values() for v in (*sp.masses, sp.denom)]
    held += [p for r in reductions for p in r.positions]

    recovered = recover_collapsed_diagram(diagram, fi, run)
    cat = recovered.category
    pairs = [(s, d) for s in cat.objects for d in cat.objects if cat.reaches(s, d)]
    held += [p for r in recovered.prime_maps.values() for p in r.positions]
    held += [p for s, d in pairs for p in recovered.composite_reduction(s, d).positions]
    held += _flat(v for s, d in pairs for v in recovered.composite_mapping(s, d).values())
    # a restriction to every third initial atom, at int64 positions
    positions = np.arange(0, len(recovered.initial_space), 3)
    restricted = diagrams._restricted(recovered, positions, [2] * len(positions))
    for space in restricted.spaces.values():
        held += [*space.masses, space.denom]
        held += space.frame._build.args[-1]  # the atom keys, before any atom is built
        held += _flat(space.atoms)
    held += [p for r in restricted.prime_maps.values() for p in r.positions]
    assert {type(v) for v in held} == {int}

    path = tmp_path / "recovered.json"
    save_diagram(recovered, path)
    assert load_diagram(path) == recovered


def test_recovery_rejects_a_fan_that_does_not_commute():
    # recovery's final check is what stands between the caller's run and a
    # diagram: one moved position of y''s cover x -> x1, which carries z's
    # lift to z1's, must be named at the initial atom where the paths part
    diagram, fi = _loaded(lambda: reduced_lambda3(3, 7, range(6, 8)))
    ext = extend_admissible_fan(diagram, fi)
    params = ContractionParams(N=50, t=0.5, rho=ext.rho, seed=4)
    recover_collapsed_diagram(diagram, fi, contract_once(ext, params))  # untampered
    run = contract_once(ext, params)
    top = run.fan_prime.top
    red = top.prime_maps[("x", "x1")]
    positions = list(red.positions)
    k = len(positions) // 2
    positions[k] = (positions[k] + 1) % len(red.target)
    top.prime_maps[("x", "x1")] = Reduction._trusted(red.domain, red.target, positions=positions)
    atom = top.spaces["x"].atoms[k]
    with pytest.raises(CommutativityError, match=re.escape(f"disagree at atom {atom!r}")):
        recover_collapsed_diagram(diagram, fi, run)


class TestLazyFan:
    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        build = contraction._materialize_fan

        def counted(*args):
            made.append(args)
            return build(*args)

        monkeypatch.setattr(contraction, "_materialize_fan", counted)
        return made

    def _run(self, n=18):
        ext = extend_admissible_fan(*coord_lambda3())
        return contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=6))

    def test_unread_fan_is_never_built(self, calls, capsys):
        self._run()
        assert main(["contract", "--fixture", "lambda3", "--N", "18", "--seeds", "3"]) == 0
        assert calls == []

    def test_two_reads_build_once(self, calls):
        run = self._run()
        first = run.fan_prime
        assert first is not None and run.fan_prime is first
        assert len(calls) == 1

    def test_above_the_cap_reads_none_without_building(self, calls, monkeypatch):
        run = self._run()
        monkeypatch.setattr(contraction, "DEFAULT_MATERIALIZE_CAP",
                            run.params.N * run.fiber_size - 1)
        assert run.fan_prime is None
        with pytest.raises(TooLargeError, match="materialization cap"):
            recover_collapsed_diagram(*coord_lambda3(), run)
        assert calls == []

    def test_one_sample_space_per_n(self):
        assert self._run().vspace is self._run().vspace
        assert self._run(19).vspace == ProbSpace(range(1, 20), [1] * 19, denom=19)


@pytest.mark.parametrize("n", [None, 3], ids=["default_n", "n3"])
@pytest.mark.parametrize("build", [
    lambda: _loaded(lambda: reduced_lambda3(3, 7, range(6, 8))), coord_lambda3,
], ids=["loaded_reduced_lambda3", "coord_lambda3"])
def test_fan_prime_builds_no_piece_and_joins_no_atom(monkeypatch, build, n):
    # y' is read off x''s lifts on the sampled fibers: reading fan_prime
    # conditions the x-side on no sampled u, builds no diagram from an
    # initial measure and indexes no atom of x'
    ext = extend_admissible_fan(*build())
    n = quiet_default_parameters(ext, seed=0).N if n is None else n
    run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=1))
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(contraction.ExtendedFan, "conditioned_x_side")
    count(diagrams, "_from_initial_measure")
    assert run.fan_prime is not None
    assert calls == []
    assert all(space.frame._index is None for space in run.xprime.spaces.values())


class TestLazyXprime:
    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        build = contraction._conditioned_xprime

        def counted(*args):
            made.append(args)
            return build(*args)

        monkeypatch.setattr(contraction, "_conditioned_xprime", counted)
        return made

    def _run(self, n=18, seed=6):
        ext = extend_admissible_fan(*coord_lambda3())
        return contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))

    def test_a_contraction_builds_no_xprime(self, calls):
        run = self._run()
        assert run.height > 0 and run.counts
        assert calls == []

    def test_cli_contract_builds_no_xprime(self, calls, capsys):
        assert main(["contract", "--fixture", "lambda3", "--N", "18", "--seeds", "3"]) == 0
        assert calls == []

    def test_two_reads_build_once(self, calls):
        run = self._run()
        first = run.xprime
        assert run.xprime is first
        assert len(calls) == 1

    def test_the_roundtrip_builds_it_once(self, calls):
        run = self._run()
        assert run.fan_prime.left is run.xprime
        recover_collapsed_diagram(*coord_lambda3(), run)
        assert len(calls) == 1

    def test_runs_compare_without_it(self):
        # xprime is a function of the counts and the fan, not a field
        assert "xprime" not in {f.name for f in dataclasses.fields(contraction.ContractionRun)}
        run = self._run()
        run.xprime
        assert run == self._run() != self._run(seed=7)

    @pytest.mark.parametrize("name", ["two_fan", "lambda3", "reduced_lambda3"])
    def test_lazy_equals_eager(self, small_exts, name):
        # the x-side built on read equals the one built from the sample's
        # pattern counts right away, as every contraction once did, field
        # by field and in key order; N = 1 and 2 leave atoms uncovered
        ext = small_exts[name]
        pattern = ext.fiber_patterns[0]
        covered = set()
        for n in (1, 2, quiet_default_parameters(ext, seed=0).N):
            for seed in range(3):
                run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
                counts = np.bincount(run._u_pos, minlength=len(ext.u_space)) @ pattern
                eager = contraction._conditioned_xprime(ext, counts, n * ext.fiber_size)
                lazy = run.xprime
                assert lazy.category is eager.category
                assert list(lazy.spaces) == list(eager.spaces)
                for obj, space in eager.spaces.items():
                    got = lazy.spaces[obj]
                    assert (got.atoms, got.masses, got.denom) == (
                        space.atoms, space.masses, space.denom)
                    assert (got.frame is space.frame) == run.coverage
                assert list(lazy.prime_maps) == list(eager.prime_maps)
                for cover, red in eager.prime_maps.items():
                    assert list(lazy.prime_maps[cover].mapping.items()) == list(
                        red.mapping.items())
                covered.add(run.coverage)
        assert covered == {False, True}


@pytest.fixture(scope="module")
def regime_ext():
    return extend_admissible_fan(*coord_two_fan(17, range(1, 16), range(14, 18)))


@functools.cache
def _sample_exts() -> dict:
    """The small fans, the shuffled chain, the cyclic fan and a fan whose u
    has one atom."""
    exts = {name: extend_admissible_fan(d, fi) for name, (d, fi) in _small_fans().items()}
    exts["shuffled_chain"] = extend_admissible_fan(*_shuffled_chain())
    exts["cyclic"] = extend_admissible_fan(*_cyclic_fan())
    exts["dirac_u"] = extend_admissible_fan(*coord_two_fan(4, range(1, 5), []))
    return exts


def _first_counts_against_oracles(ext, positions: np.ndarray) -> list:
    """Check `_first_drawn` and `_first_counted` on a sample of u positions
    against the oracles; returns the counted x0 atoms in first-count order."""
    u_atoms, x0_atoms = ext.u_space.atoms, ext.x0_space.atoms
    rows = contraction._first_drawn(positions, len(u_atoms))
    assert rows.dtype == np.int64
    assert rows.tolist() == oracles.first_drawn(positions.tolist())
    order = oracles.first_counted(ext, [u_atoms[r] for r in rows.tolist()])
    counted = contraction._first_counted(ext, rows)
    assert [x0_atoms[p] for p in counted.tolist()] == order
    return order


class TestFirstCounts:
    def _check_run(self, ext, run):
        order = _first_counts_against_oracles(ext, run._u_pos)
        counts = Counter()
        for r, m in Counter(run._u_pos.tolist()).items():
            counts.update(dict.fromkeys(ext.fibers[ext.u_space.atoms[r]], m))
        assert list(run.counts.items()) == [(x, counts[x]) for x in order]
        nf = run.params.N * ext.fiber_size
        height = 0.0
        for x in order:
            height += (counts[x] / nf) * math.log(counts[x])
        assert run.height == height

    def test_regime_scale(self, regime_ext):
        ext = regime_ext
        covered = []
        for n in (1, 3, 17, quiet_default_parameters(ext, seed=0).N):
            for seed in range(2):
                run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
                self._check_run(ext, run)
                covered.append(run.coverage)
        assert not covered[0] and covered[-1]

    @pytest.mark.parametrize("name", ["reduced_lambda3", "cyclic"])
    def test_small_fans(self, name):
        # the loaded reduced_lambda3 has no coordinate certificate; the cyclic
        # fan's later rows hold counted patterns beside fresh ones
        ext = _sample_exts()[name]
        covered = set()
        for n in (1, 3, 17, quiet_default_parameters(ext, seed=0).N):
            for seed in range(4):
                run = contract_once(ext, ContractionParams(N=n, t=0.5, rho=ext.rho, seed=seed))
                self._check_run(ext, run)
                covered.add(run.coverage)
        assert covered == {False, True}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_samples(self, data):
        ext = _sample_exts()[data.draw(st.sampled_from(sorted(_sample_exts())))]
        size = len(ext.u_space)
        sample = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=60))
        _first_counts_against_oracles(ext, np.array(sample, dtype=np.int64))


@pytest.mark.parametrize("kw, name", [
    ({"trials": -1}, "trials"),
    ({"trials": 2.5}, "trials"),
    ({"n": 2.5}, "n"),
    ({"n": 0}, "n"),
    ({"n": -3}, "n"),
    ({"trials": 0}, "trials"),
])
def test_monte_carlo_tails_rejects_bad_sizes(kw, name):
    args = {"t": 0.5, "trials": 100, "seed": 0, "n": 50, "rho": Fraction(1, 2)}
    args.update(kw)
    with pytest.raises(OutOfRangeError, match=name):
        monte_carlo_tails("binomial_i", **args)


@pytest.mark.parametrize("N, trials", [(0, 2000), (-3, 2000)])
def test_fan_tails_reject_bad_sizes(small_exts, N, trials):
    ext = small_exts["two_fan"]
    params = ContractionParams(N=N, t=0.5, rho=ext.rho, seed=0)
    with pytest.raises(OutOfRangeError):
        monte_carlo_tails("totalvar", t=0.5, trials=trials, seed=0, ext=ext,
                          params=params)


def test_extend_rejects_inhomogeneous():
    from probdiag import ProbSpace, make_diagram, standard_category
    from probdiag.errors import NotHomogeneousError

    cat = standard_category("two_fan")
    top = ProbSpace(["a", "b", "c"], ["1/2", "1/4", "1/4"])
    left = ProbSpace(["l0", "l1"], ["1/2", "1/2"])
    right = ProbSpace(["r0", "r1"], ["3/4", "1/4"])
    d = make_diagram(cat, {"top": top, "left": left, "right": right},
                     {("top", "left"): {"a": "l0", "b": "l1", "c": "l1"},
                      ("top", "right"): {"a": "r0", "b": "r0", "c": "r1"}})
    with pytest.raises(NotHomogeneousError):
        extend_admissible_fan(d, FanIndices("left", "top", "right"))
