import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from probdiag import (
    DESCENDANTS,
    FanIndices,
    ProbSpace,
    analyze,
    arrow_collapse,
    build_category,
    classify_fan,
    condition_diagram,
    cone_diagram,
    constant_diagram,
    coordinate_diagram,
    diagram_isomorphic,
    entropy_vector,
    joint_space,
    lambda_space,
    make_diagram,
    standard_category,
    sub_diagram,
    tensor_diagrams,
    tensor_fan,
    uniform,
)
from probdiag.errors import (
    CommutativityError,
    MapError,
    NotIsoError,
    NotMonotoneError,
    ShapeMismatchError,
    TooLargeError,
    UnknownAtomError,
)
from probdiag.diagrams import MAX_COORDINATE_BITS, conditioned_slices, _joint_size
from probdiag.fixtures import coord_lambda3, coord_two_fan, reduced_lambda3, reduced_two_fan
from probdiag.automorphisms import find_diagram_morphism, verify_explicit_iso
from probdiag.diagrams import FanOfDiagrams, Reduction
from probdiag.distances import SetDiagram, single_space_diagram
from conftest import random_category, random_diagram, random_set_diagram

LN2 = math.log(2)


def independent_bits_two_fan():
    """Top = two independent fair bits with the two projections."""
    cat = standard_category("two_fan")
    top = ProbSpace([(0, 0), (0, 1), (1, 0), (1, 1)], [Fraction(1, 4)] * 4)
    left = ProbSpace([0, 1], [Fraction(1, 2)] * 2)
    right = ProbSpace([0, 1], [Fraction(1, 2)] * 2)
    return make_diagram(
        cat,
        {"top": top, "left": left, "right": right},
        {("top", "left"): {a: a[0] for a in top.atoms},
         ("top", "right"): {a: a[1] for a in top.atoms}},
    )


class TestMakeDiagram:
    def test_constant_diagram_over_random_categories(self):
        rng = random.Random(11)
        for _ in range(20):
            cat = random_category(rng)
            d = constant_diagram(cat, uniform(3))
            for obj in cat.objects:
                assert d.spaces[obj] == uniform(3)

    def test_independent_bits_valid(self):
        d = independent_bits_two_fan()
        assert d.spaces["top"].entropy == pytest.approx(2 * LN2)

    def test_broken_diamond_commutativity(self):
        cat = standard_category("diamond")
        top = uniform(4)
        a = top.atoms
        left = ProbSpace(["l0", "l1"], ["1/2", "1/2"])
        right = ProbSpace(["r0", "r1"], ["1/2", "1/2"])
        bottom = ProbSpace(["b0", "b1"], ["1/2", "1/2"])
        with pytest.raises(CommutativityError):
            make_diagram(
                cat,
                {"top": top, "left": left, "right": right, "bottom": bottom},
                {
                    ("top", "left"): {a[0]: "l0", a[1]: "l0", a[2]: "l1", a[3]: "l1"},
                    ("top", "right"): {a[0]: "r0", a[1]: "r1", a[2]: "r0", a[3]: "r1"},
                    ("left", "bottom"): {"l0": "b0", "l1": "b1"},
                    # deliberately incompatible with the path through left
                    ("right", "bottom"): {"r0": "b1", "r1": "b0"},
                },
            )

    @pytest.mark.parametrize("objects, covers, via", [
        # the canonical path top -> bottom steps through a, the long side
        # disagrees; then the canonical path is the long side itself
        (["top", "a", "b", "c", "bottom"],
         [("top", "a"), ("a", "bottom"), ("top", "b"), ("b", "c"), ("c", "bottom")], "b"),
        (["top", "b", "c", "a", "bottom"],
         [("top", "b"), ("b", "c"), ("c", "bottom"), ("top", "a"), ("a", "bottom")], "a"),
    ])
    def test_disagreement_off_the_canonical_path(self, objects, covers, via):
        # a diamond with a two-step side chain that swaps the bottom atoms
        cat = build_category(objects, covers)
        top = uniform(4)
        u = top.atoms
        half = ["1/2", "1/2"]
        spaces = {"top": top, "bottom": ProbSpace(["d0", "d1"], half)}
        for obj in ("a", "b", "c"):
            spaces[obj] = ProbSpace([f"{obj}0", f"{obj}1"], half)
        maps = {("top", "a"): {u[0]: "a0", u[1]: "a0", u[2]: "a1", u[3]: "a1"},
                ("a", "bottom"): {"a0": "d0", "a1": "d1"},
                ("top", "b"): {u[0]: "b0", u[1]: "b0", u[2]: "b1", u[3]: "b1"},
                ("b", "c"): {"b0": "c0", "b1": "c1"},
                ("c", "bottom"): {"c0": "d1", "c1": "d0"}}
        message = f"paths 'top'->'bottom' via '{via}' disagree at atom {u[0]!r}"
        with pytest.raises(CommutativityError) as caught:
            make_diagram(cat, spaces, maps)
        assert str(caught.value) == message


    def test_composites_on_covers_are_the_prime_maps(self):
        d = independent_bits_two_fan()
        for cover, prime in d.prime_maps.items():
            assert d.composite_reduction(*cover) is prime
            assert d.composite_mapping(*cover) is prime.mapping
        chain = constant_diagram(standard_category("chain", 3), uniform(2))
        src, dst = chain.initial, chain.category.objects[-1]
        assert not chain.category.is_cover(src, dst)
        assert chain.composite_reduction(src, dst).mapping == {a: a for a in uniform(2).atoms}


class TestArrayLifts:
    @pytest.mark.parametrize("seed", range(25))
    def test_lifts_and_composites_equal_the_list_oracle(self, seed):
        # lifts are read-only int64 arrays; each lift, composite and atom map
        # equals the one composed on Python lists, element by element
        rng = random.Random(seed)
        for source in (random_diagram(rng), random_set_diagram(rng)):
            cat = source.category
            for o in cat.objects:
                lift = source._lift(o)
                assert lift.dtype == np.int64 and not lift.flags.writeable
                assert lift.tolist() == oracles.list_lift(source, o)
                assert source._lift(o) is lift
                with pytest.raises(ValueError):
                    lift[0] = 0
            for src in cat.objects:
                for dst in cat.objects:
                    if not cat.reaches(src, dst):
                        continue
                    want = oracles.list_composite(source, src, dst)
                    got = source._composite_positions(src, dst)
                    assert got.dtype == np.int64 and got.tolist() == want
                    atoms = oracles._atoms_at(source, dst)
                    mapping = source.composite_mapping(src, dst)
                    assert list(mapping) == list(oracles._atoms_at(source, src))
                    assert list(mapping.values()) == [atoms[p] for p in want]


class TestCoordinateDiagrams:
    def test_map_images_are_the_target_atoms(self):
        # 2^9 atoms on the left foot: past the small ints Python shares anyway
        d, _ = coord_two_fan(10, range(1, 10), range(8, 11))
        for (i, j), reduction in d.prime_maps.items():
            target = {id(a) for a in d.spaces[j].atoms}
            assert all(id(b) in target for b in reduction.mapping.values())

    def test_reference_two_fan(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        vec = entropy_vector(d)
        assert vec["top"] == pytest.approx(6 * LN2)
        assert vec["left"] == pytest.approx(4 * LN2)
        assert vec["right"] == pytest.approx(4 * LN2)
        # fiber over a right atom fixes the two shared coordinates
        cond = condition_diagram(d, "right", d.spaces["right"].atoms[0])
        assert len(cond.spaces["left"]) == 2 ** 2

    def test_chain_nested_sets(self):
        cat = standard_category("chain", 3)
        d = coordinate_diagram(cat, {"3": range(1, 5), "2": range(1, 3), "1": [1]}, 4)
        assert entropy_vector(d)["2"] == pytest.approx(2 * LN2)

    def test_not_monotone(self):
        cat = standard_category("two_fan")
        with pytest.raises(NotMonotoneError):
            coordinate_diagram(cat, {"top": range(1, 7), "left": range(1, 5),
                                     "right": range(1, 8)}, 6)

    @pytest.mark.parametrize("ell", [MAX_COORDINATE_BITS + 1, 10 ** 6])
    def test_ell_cap_is_checked_before_any_allocation(self, ell):
        cat = standard_category("two_fan")
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match=f"ell = {ell} exceeds the cap"):
                coordinate_diagram(cat, {"top": range(1, ell + 1), "left": [1],
                                         "right": [2]}, ell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    @pytest.mark.parametrize("build", [
        lambda: coord_two_fan(4, range(1, 5), []),
        lambda: coord_two_fan(6, range(1, 5), range(3, 7)),
        lambda: coord_two_fan(9, [1, 3, 5, 7, 9], [2, 3, 8]),
        # the top spans two blocks of the projection's array work
        lambda: coord_two_fan(15, [1, 2, 4, 5, 7, 8, 10, 11, 13, 14], [3, 6, 9, 12, 14, 15]),
        lambda: coord_lambda3(),
        lambda: coord_lambda3((1, 4), (2, 5), (3, 5, 6)),
        lambda: reduced_lambda3(2, 5, range(4, 6)),
        lambda: reduced_lambda3(3, 7, range(6, 8)),
    ], ids=["empty_foot", "two_fan6", "two_fan9", "two_fan15", "lambda3",
            "lambda3_6", "reduced_lambda3_5", "reduced_lambda3_7"])
    def test_projections_are_the_bit_loop(self, build):
        d, _ = build()
        coords = d.coord_meta.coords
        for (i, j), red in d.prime_maps.items():
            bits = [coords[i].index(c) for c in coords[j]]
            # a cover holds its int64 array and no list until positions are read
            assert red._positions is None and red._mapping is None
            array = red._array()
            assert array.dtype == np.int64 and not array.flags.writeable
            want = [oracles.project_bits(a, bits) for a in d.spaces[i].atoms]
            assert red.positions == want and {type(p) for p in red.positions} == {int}
            assert red._array() is array


class TestEntropyVector:
    def test_constant_chain(self):
        d = constant_diagram(standard_category("chain", 3), uniform(2))
        assert all(v == pytest.approx(LN2) for v in entropy_vector(d).values())

    def test_dirac_all_zero(self):
        d = constant_diagram(standard_category("diamond"), ProbSpace(["p"], [1]))
        assert all(v == 0.0 for v in entropy_vector(d).values())

    def test_monotone_along_morphisms(self):
        rng = random.Random(12)
        for _ in range(40):
            d = random_diagram(rng)
            vec = entropy_vector(d)
            for (i, j) in d.category.morphisms():
                assert vec[i] >= vec[j] - 1e-12


class TestTensor:
    def test_tensor_with_dirac_constant(self):
        rng = random.Random(13)
        d = random_diagram(rng)
        unit = constant_diagram(d.category, ProbSpace(["p"], [1]))
        t = tensor_diagrams(d, unit)
        for obj in d.category.objects:
            assert sorted(t.spaces[obj].weights) == sorted(d.spaces[obj].weights)

    def test_entropy_additivity(self):
        rng = random.Random(14)
        for _ in range(50):
            cat = random_category(rng)
            d1, d2 = random_diagram(rng, cat), random_diagram(rng, cat)
            v1, v2, vt = entropy_vector(d1), entropy_vector(d2), entropy_vector(
                tensor_diagrams(d1, d2))
            for obj in cat.objects:
                assert vt[obj] == pytest.approx(v1[obj] + v2[obj], abs=1e-12)

    def test_shape_mismatch(self):
        d1 = constant_diagram(standard_category("two_fan"), uniform(2))
        d2 = constant_diagram(standard_category("chain", 2), uniform(2))
        with pytest.raises(ShapeMismatchError):
            tensor_diagrams(d1, d2)

    def test_tensor_of_homogeneous_is_homogeneous(self):
        # built by hand so the analyzer really searches
        d = independent_bits_two_fan()
        assert analyze(d).homogeneous
        t = tensor_diagrams(d, d)
        assert analyze(t, count_automorphisms=False).homogeneous


class TestConditioning:
    def test_condition_on_dirac_space(self):
        cat = standard_category("two_fan")
        top = uniform(2)
        point = ProbSpace(["p"], [1])
        d = make_diagram(cat, {"top": top, "left": top, "right": point},
                         {("top", "left"): {a: a for a in top.atoms},
                          ("top", "right"): {a: "p" for a in top.atoms}})
        assert condition_diagram(d, "right", "p") == d

    def test_coordinate_fiber_size(self):
        d, _ = coord_two_fan(6, range(1, 5), range(3, 7))
        u = d.spaces["right"].atoms[3]
        cond = condition_diagram(d, "right", u)
        assert len(cond.spaces["left"]) == 4
        assert cond.spaces["left"].is_uniform()

    def test_chain_rule_on_initial_entropy(self):
        rng = random.Random(15)
        for _ in range(60):
            d = random_diagram(rng)
            obj = rng.choice(d.category.objects)
            u_space = d.spaces[obj]
            mixture = sum(
                float(u_space.weight(u))
                * condition_diagram(d, obj, u).initial_space.entropy
                for u in u_space.atoms
            )
            assert d.initial_space.entropy == pytest.approx(
                u_space.entropy + mixture, abs=1e-9)

    def test_unknown_atom(self):
        d, _ = coord_two_fan(4, [1, 2], [3, 4])
        with pytest.raises(UnknownAtomError):
            condition_diagram(d, "right", 99)

    def test_slices_are_conditioning_atom_by_atom(self):
        rng = random.Random(23)
        for _ in range(60):
            d = random_diagram(rng)
            obj = rng.choice(d.category.objects)
            members = d.category.descendants(rng.choice(d.category.objects))
            slices = list(conditioned_slices(d, obj, members))
            assert [a for a, _ in slices] == list(d.spaces[obj].atoms)
            for a, got in slices:
                want = sub_diagram(condition_diagram(d, obj, a), members)
                assert got == want
                assert all(got.spaces[o].atoms == want.spaces[o].atoms for o in members)

    def test_homogeneous_fibers_isomorphic(self):
        d, _ = coord_two_fan(5, range(1, 4), range(2, 6))
        atoms = d.spaces["right"].atoms
        c0 = condition_diagram(d, "right", atoms[0])
        c1 = condition_diagram(d, "right", atoms[5])
        ok, iso = diagram_isomorphic(c0, c1)
        assert ok and iso is not None

    def test_homogeneous_fibers_isomorphic_three_feet(self):
        d, fi = coord_lambda3()
        atoms = d.spaces[fi.u_obj].atoms
        for other in atoms[1:]:
            c0 = condition_diagram(d, fi.u_obj, atoms[0])
            c1 = condition_diagram(d, fi.u_obj, other)
            ok, _ = diagram_isomorphic(c0, c1)
            assert ok


class TestSubDiagram:
    def test_full_ideal_is_identity(self):
        rng = random.Random(16)
        d = random_diagram(rng)
        assert sub_diagram(d, d.category.objects) == d

    def test_singleton_ideal(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        ideal = cone_diagram(d, fi.x_obj, DESCENDANTS)
        assert ideal.category.objects == ("left",)

    def test_lambda3_x_ideal(self):
        d, fi = coord_lambda3()
        ideal = cone_diagram(d, fi.x_obj, DESCENDANTS)
        assert set(ideal.category.objects) == {"x", "x1", "x2"}


class TestAnalyze:
    def test_coordinate_certificate(self):
        d, _ = coord_two_fan(6, range(1, 5), range(3, 7))
        report = analyze(d)
        assert report.homogeneous and report.minimal and report.aut_order is None

    def test_product_two_fan_minimal(self):
        assert analyze(independent_bits_two_fan()).minimal

    def test_non_minimal_three_atom_counterexample(self):
        # both feet identical to the top through a non-injective joint
        cat = standard_category("two_fan")
        top = uniform(3)
        foot = ProbSpace(["c"], [1])
        d = make_diagram(cat, {"top": top, "left": foot, "right": foot},
                         {("top", "left"): {a: "c" for a in top.atoms},
                          ("top", "right"): {a: "c" for a in top.atoms}})
        assert not analyze(d).minimal
        # brute force over all partitions agrees
        assert not oracles.fan_minimal_by_partitions(
            top.atoms, {a: "c" for a in top.atoms}, {a: "c" for a in top.atoms})

    def test_minimality_matches_partition_oracle(self):
        rng = random.Random(17)
        cat = standard_category("two_fan")
        for _ in range(30):
            d = random_diagram(rng, cat, max_initial=6)
            got = analyze(d, count_automorphisms=False).minimal
            expected = oracles.fan_minimal_by_partitions(
                d.initial_space.atoms,
                d.composite_mapping("top", "left"),
                d.composite_mapping("top", "right"),
            )
            assert got == expected

    def test_aut_order_against_brute_force(self):
        d = independent_bits_two_fan()
        report = analyze(d)
        assert report.aut_order == oracles.brute_automorphism_count(d) == 4

    def test_aut_order_uniform_point(self):
        cat = build_category(["w"], [])
        d = make_diagram(cat, {"w": uniform(4)}, {})
        assert analyze(d).aut_order == 24

    def test_nonuniform_not_homogeneous(self):
        cat = build_category(["w"], [])
        d = make_diagram(cat, {"w": lambda_space(Fraction(1, 4))}, {})
        assert not analyze(d).homogeneous


class TestClassifyFan:
    def test_coordinate_two_fan(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        cls = classify_fan(d, fi)
        assert cls.admissible and not cls.reduced and cls.witness == ()

    def test_reduced_when_left_has_everything(self):
        d, fi = reduced_two_fan(4, (3, 4))
        assert classify_fan(d, fi).reduced

    def test_degenerate_self_fan(self):
        cat = standard_category("chain", 2)
        d = coordinate_diagram(cat, {"2": [1, 2], "1": [1, 2]}, 2)
        cls = classify_fan(d, FanIndices(x_obj="1", z_obj="2", u_obj="2"))
        assert cls.reduced

    def test_lambda3_admissible(self):
        d, fi = coord_lambda3()
        assert classify_fan(d, fi).admissible

    def test_not_admissible_when_outside_object(self):
        # an object neither above u nor below x
        cat = build_category(
            ["z", "x", "u", "w"],
            [("z", "x"), ("z", "u"), ("z", "w")],
        )
        d = coordinate_diagram(
            cat, {"z": range(1, 4), "x": [1], "u": [2, 3], "w": [3]}, 3)
        cls = classify_fan(d, FanIndices("x", "z", "u"))
        assert not cls.admissible and "w" in cls.witness


class TestArrowCollapse:
    def test_identity_arrow_in_constant_diagram(self):
        d = constant_diagram(standard_category("two_fan"), uniform(2))
        out = arrow_collapse(d, ("top", "left"))
        assert set(out.category.objects) == {"left", "right"}
        for obj in out.category.objects:
            assert out.spaces[obj] == uniform(2)

    def test_reduced_fan_collapse_leaves_reduction(self):
        d, fi = reduced_two_fan(4, (3, 4))
        out = arrow_collapse(d, ("top", "left"))
        assert set(out.category.objects) == {"left", "right"}
        assert out.category.covers == (("left", "right"),)
        assert out.spaces["left"].entropy == pytest.approx(4 * LN2)

    def test_non_iso_arrow(self):
        d, _ = coord_two_fan(4, [1, 2], [3, 4])
        with pytest.raises(NotIsoError):
            arrow_collapse(d, ("top", "left"))

    def test_entropy_vector_preserved(self):
        d = constant_diagram(standard_category("chain", 3), uniform(3))
        out = arrow_collapse(d, ("3", "2"))
        before = entropy_vector(d)
        after = entropy_vector(out)
        assert after["2"] == pytest.approx(before["3"]) == pytest.approx(before["2"])
        assert after["1"] == pytest.approx(before["1"])


class TestDiagramIsomorphic:
    def test_self(self):
        d = independent_bits_two_fan()
        ok, _ = diagram_isomorphic(d, d)
        assert ok

    def test_relabeled_uniform(self):
        cat = build_category(["w"], [])
        d1 = make_diagram(cat, {"w": ProbSpace(["a", "b"], ["1/2", "1/2"])}, {})
        d2 = make_diagram(cat, {"w": ProbSpace(["c", "d"], ["1/2", "1/2"])}, {})
        ok, iso = diagram_isomorphic(d1, d2)
        assert ok and set(iso["w"].values()) == {"c", "d"}

    def test_two_thousand_atoms(self):
        # one search level per initial atom, on an explicit stack
        d = single_space_diagram(uniform(2000))
        ok, iso = diagram_isomorphic(d, d)
        assert ok and len(iso[d.initial]) == 2000

    def test_different_weight_multisets(self):
        cat = build_category(["w"], [])
        d1 = make_diagram(cat, {"w": uniform(2)}, {})
        d2 = make_diagram(cat, {"w": lambda_space(Fraction(1, 4))}, {})
        ok, iso = diagram_isomorphic(d1, d2)
        assert not ok and iso is None

    @pytest.mark.parametrize("fixed", [
        {("top", 99): 0}, {("top", 0): 99}, {("left", 99): 0}, {("left", 0): 99},
        {("left", 99): 99}, {("top", 0): 0, ("right", 0): 99},
    ], ids=["initial-d1", "initial-d2", "other-d1", "other-d2", "other-both", "mixed"])
    def test_constraint_on_an_unknown_atom_leaves_no_isomorphism(self, fixed):
        d, _ = coord_two_fan(3, (1, 2), (2, 3))
        assert find_diagram_morphism(d, d, fixed={("top", 0): 0}) is not None
        assert find_diagram_morphism(d, d, fixed=fixed) is None

    def test_constraint_on_an_unknown_object_is_a_map_error(self):
        d, _ = coord_two_fan(3, (1, 2), (2, 3))
        with pytest.raises(MapError, match="unknown object 'nope'"):
            find_diagram_morphism(d, d, fixed={("nope", 0): 0})

    def test_explicit_maps_missing_an_object_are_no_isomorphism(self):
        d, _ = coord_two_fan(3, (1, 2), (2, 3))
        maps = {o: {a: a for a in s.atoms} for o, s in d.spaces.items()}
        assert verify_explicit_iso(d, d, maps)
        del maps["left"]
        assert verify_explicit_iso(d, d, maps) is False

    def test_explicit_maps_that_merge_atoms_are_no_isomorphism(self):
        # two atoms of equal mass sent to one: masses and squares hold
        cat = build_category(["w"], [])
        d = make_diagram(cat, {"w": uniform(2)}, {})
        assert verify_explicit_iso(d, d, {"w": {"u0": "u1", "u1": "u0"}})
        assert not verify_explicit_iso(d, d, {"w": {"u0": "u0", "u1": "u0"}})


class TestJointSpace:
    def test_joint_with_self(self):
        d, _ = coord_two_fan(4, [1, 2], [3, 4])
        joint, _, _ = joint_space(d, "left", "left")
        assert len(joint) == len(d.spaces["left"])

    def test_coordinate_joint_covers_top(self):
        d, _ = coord_two_fan(6, range(1, 5), range(3, 7))
        joint, _, _ = joint_space(d, "left", "right")
        assert len(joint) == 2 ** 6

    def test_independent_joint_is_product(self):
        d = independent_bits_two_fan()
        joint, _, _ = joint_space(d, "left", "right")
        assert len(joint) == 4 and all(w == Fraction(1, 4) for w in joint.weights)



class TestJointSize:
    def test_every_object_pair_of_random_diagrams(self):
        rng = random.Random(23)
        for _ in range(60):
            d = random_diagram(rng)
            objects = d.category.objects
            for objs in [(o,) for o in objects] + [(i, j) for i in objects for j in objects]:
                assert _joint_size(d, objs) == oracles.joint_size(d, objs)

    def test_regime_fan(self):
        d, fan = coord_two_fan(17, range(1, 16), range(14, 18))
        objs = (fan.x_obj, fan.u_obj)
        count = _joint_size(d, objs)
        assert type(count) is int
        assert count == oracles.joint_size(d, objs) == 2 ** 17

def test_tensor_fan_kd_counts_both_sides():
    d1 = constant_diagram(build_category(["w"], []), uniform(2))
    d2 = constant_diagram(build_category(["w"], []), uniform(2))
    fan = tensor_fan(d1, d2)
    assert fan.top.spaces["w"].entropy == pytest.approx(2 * LN2)


# -- composites and checks against every path of covers ----------------------


def _swap_equal_masses(rng, space) -> dict:
    """A permutation of the atoms of a space swapping two of equal mass
    (the identity when there are none): measure-preserving, and after a
    cover map it can break a square."""
    by_mass: dict = {}
    for a, m in zip(space.atoms, space.masses):
        by_mass.setdefault(m, []).append(a)
    perm = {a: a for a in space.atoms}
    classes = [c for c in by_mass.values() if len(c) >= 2]
    if classes:
        a, b = rng.sample(rng.choice(classes), 2)
        perm[a], perm[b] = b, a
    return perm


def _perturbed_diagrams(seed, count):
    """(category, spaces, cover maps) of random diagrams, half of them with
    one cover map followed by a measure-preserving swap of its targets."""
    rng = random.Random(seed)
    for k in range(count):
        d = random_diagram(rng)
        maps = {c: dict(r.mapping) for c, r in d.prime_maps.items()}
        if k % 2 and maps:
            cover = rng.choice(d.category.covers)
            perm = _swap_equal_masses(rng, d.spaces[cover[1]])
            maps[cover] = {a: perm[b] for a, b in maps[cover].items()}
        yield d.category, d.spaces, maps


def _perturbed_set_diagrams(seed, count):
    """(category, sets, cover maps) of random set diagrams whose cover maps
    are keyed out of set order, half of them with the targets of one cover
    map permuted at random."""
    rng = random.Random(seed)
    for k in range(count):
        sd = random_set_diagram(rng)
        maps = {}
        for cover, m in sd.maps.items():
            keys = list(m)
            rng.shuffle(keys)
            maps[cover] = {a: m[a] for a in keys}
        if k % 2 and maps:
            cover = rng.choice(sd.category.covers)
            targets = list(sd.sets[cover[1]])
            perm = dict(zip(targets, rng.sample(targets, len(targets))))
            maps[cover] = {a: perm[b] for a, b in maps[cover].items()}
        yield sd.category, sd.sets, maps


def _build(kind, cat, sets_or_spaces, maps):
    if kind == "diagram":
        return make_diagram(cat, sets_or_spaces, maps)
    return SetDiagram(cat, sets_or_spaces, maps)


class TestPathOracle:
    CASES = [("diagram", _perturbed_diagrams, 7), ("set", _perturbed_set_diagrams, 8)]

    @pytest.mark.parametrize("kind, inputs, seed", CASES, ids=["diagram", "set_diagram"])
    def test_constructors_accept_exactly_when_all_paths_agree(self, kind, inputs, seed):
        verdicts = set()
        for cat, sets, maps in inputs(seed, 160):
            atoms = {o: tuple(s) for o, s in sets.items()}
            composites = oracles.path_composites(cat.objects, cat.covers, atoms, maps)
            agree = oracles.all_paths_agree(composites)
            try:
                built = _build(kind, cat, sets, maps)
            except CommutativityError as exc:
                assert not agree
                self._check_names_disagreeing_path(str(exc), cat, atoms, composites)
                assert str(exc) == self._first_disagreement(cat, atoms, composites)
                verdicts.add(False)
                continue
            assert agree
            verdicts.add(True)
            for (src, dst), by_path in composites.items():
                got = built.composite_mapping(src, dst)
                assert list(got) == list(atoms[src])
                assert all(got == m for m in by_path.values())
        assert verdicts == {True, False}

    @staticmethod
    def _check_names_disagreeing_path(message, cat, atoms, composites):
        # paths <initial>-><j> via <first step> disagree at atom <initial atom>
        match = re.fullmatch(r"paths '(\w+)'->'(\w+)' via '(\w+)' disagree at atom (.+)",
                             message)
        assert match, message
        init, j, step, atom_text = match.groups()
        assert init == cat.initial
        [z] = [z for z in atoms[init] if repr(z) == atom_text]
        by_path = composites[(init, j)]
        named = {by_path[p][z] for p in by_path if p[1] == step}
        assert named and len(named | {m[z] for m in by_path.values()}) > 1

    @staticmethod
    def _first_disagreement(cat, atoms, composites) -> str:
        # The message the check gives, from the path oracle: the canonical
        # path to an object steps back through first parents; the first
        # cover (i, j), in cover order, off j's canonical path whose path
        # (canonical path to i, then j) disagrees with j's canonical path,
        # at the first initial atom in initial order where they differ.
        init = cat.initial

        def canonical(obj):
            path = (obj,)
            while path[0] != init:
                path = (cat.first_parent[path[0]],) + path
            return path

        for (i, j) in cat.covers:
            if cat.first_parent[j] == i:
                continue
            by_path = composites[(init, j)]
            other, lift = canonical(i) + (j,), by_path[canonical(j)]
            for z in atoms[init]:
                if by_path[other][z] != lift[z]:
                    return f"paths {init!r}->{j!r} via {other[1]!r} disagree at atom {z!r}"
        raise AssertionError("every path agrees")

    def test_naturality_verdicts_match_square_oracle(self):
        rng = random.Random(9)
        verdicts = set()
        for _ in range(120):
            d = random_diagram(rng)
            obj = rng.choice(d.category.objects)
            perm = _swap_equal_masses(rng, d.spaces[obj])
            cover_maps = {c: r.mapping for c, r in d.prime_maps.items()}
            atoms = {o: s.atoms for o, s in d.spaces.items()}

            iso = {o: {a: a for a in s} for o, s in atoms.items()}
            iso[obj] = perm
            natural = oracles.squares_commute(d.category.covers, atoms, cover_maps,
                                              cover_maps, iso)
            assert verify_explicit_iso(d, d, iso) == natural
            verdicts.add(natural)

            fan = tensor_fan(d, d)
            projs = {o: r.mapping for o, r in fan.proj_left.items()}
            projs[obj] = {a: perm[b] for a, b in projs[obj].items()}
            natural = oracles.squares_commute(
                d.category.covers, {o: s.atoms for o, s in fan.top.spaces.items()},
                {c: r.mapping for c, r in fan.top.prime_maps.items()}, cover_maps, projs)
            proj_left = {o: Reduction(fan.top.spaces[o], d.spaces[o], m)
                         for o, m in projs.items()}
            try:
                FanOfDiagrams(fan.top, d, d, proj_left, fan.proj_right)
                assert natural
            except CommutativityError:
                assert not natural
        assert verdicts == {True, False}
