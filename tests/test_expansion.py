import math
import re

import pytest

import oracles
from probdiag import (
    Diagram,
    ExpansionSpec,
    ProbSpace,
    Reduction,
    classify_fan,
    entropy_vector,
    expand_diagram,
    strip_expansion,
    verify_expansion,
)
from probdiag import jsonio
from probdiag.errors import (
    BadParamError,
    NotReducedError,
    ShapeMismatchError,
    TooLargeError,
    VerificationError,
)
from probdiag.expansion import MAX_EXPANDED_ATOMS
from probdiag.fixtures import coord_two_fan, reduced_lambda3, reduced_two_fan


class TestExpansionSpec:
    def test_requires_reduced_fan(self):
        d, fi = coord_two_fan(6, range(1, 5), range(3, 7))
        with pytest.raises(NotReducedError):
            ExpansionSpec(d, fi, 2)

    def test_requires_positive_m(self):
        d, fi = reduced_two_fan(4, (3, 4))
        with pytest.raises(BadParamError):
            ExpansionSpec(d, fi, 0)

    def test_caps_the_expanded_support(self):
        # the u-side (top, 16 atoms, and u, 4 atoms) holds 20 atoms, so the
        # largest m under the cap is its 20th part
        d, fi = reduced_two_fan(4, (3, 4))
        largest = MAX_EXPANDED_ATOMS // 20
        assert ExpansionSpec(d, fi, largest).m == largest
        for m in (largest + 1, 10 ** 30):
            with pytest.raises(TooLargeError, match="over the cap"):
                ExpansionSpec(d, fi, m)


class TestExpandDiagram:
    def test_m_one_is_identity(self):
        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, 1)
        assert expand_diagram(spec) is d

    def test_two_fan_arrow_entropy(self):
        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, 2)
        out = expand_diagram(spec)
        gap = out.spaces[fi.z_obj].entropy - out.spaces[fi.x_obj].entropy
        assert gap == pytest.approx(math.log(2), abs=1e-12)

    def test_conditioned_x_side_unchanged(self):
        d, fi = reduced_two_fan(5, (4, 5))
        spec = ExpansionSpec(d, fi, 3)
        out = expand_diagram(spec)
        report = verify_expansion(d, out, spec)
        assert report.conditioned_slices_equal

    def test_entropy_shift_only_on_u_side(self):
        d, fi = reduced_lambda3(2, 4, (2, 3))
        spec = ExpansionSpec(d, fi, 4)
        out = expand_diagram(spec)
        before, after = entropy_vector(d), entropy_vector(out)
        u_side = set(d.category.ancestors(fi.u_obj))
        for obj in d.category.objects:
            if obj in u_side:
                assert after[obj] == pytest.approx(before[obj] + math.log(4), abs=1e-12)
            else:
                assert after[obj] == before[obj]


class TestVerifyExpansion:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_two_fan_fixture(self, m):
        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        report = verify_expansion(d, out, spec)
        assert report.added == pytest.approx(math.log(m))
        assert report.recovered_exactly

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_lambda3_fixture(self, m):
        d, fi = reduced_lambda3(2, 4, (2, 3))
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        report = verify_expansion(d, out, spec)
        assert report.arrow_entropy_after == pytest.approx(math.log(m), abs=1e-12)
        if m >= 2:
            assert not report.reduced_after
        assert report.admissible_after

    def test_strip_is_right_inverse(self):
        d, fi = reduced_two_fan(5, (3, 4, 5))
        spec = ExpansionSpec(d, fi, 3)
        out = expand_diagram(spec)
        assert strip_expansion(out, spec) == d

    def test_expanded_fan_classification(self):
        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, 2)
        out = expand_diagram(spec)
        cls = classify_fan(out, fi)
        assert cls.admissible and not cls.reduced

    @pytest.mark.parametrize("ell, u_coords, m", [
        (4, (3, 4), 1000),
        # at the cap: the u-side holds 1024 + 2 atoms
        (10, (10,), MAX_EXPANDED_ATOMS // 1026),
    ], ids=["m1000", "at_cap"])
    def test_large_m_is_exact(self, ell, u_coords, m):
        # the entropy shift is checked as a product, with no float tolerance
        d, fi = reduced_two_fan(ell, u_coords)
        spec = ExpansionSpec(d, fi, m)
        assert verify_expansion(d, expand_diagram(spec), spec).recovered_exactly

    def test_non_uniform_w_fails(self):
        class Skewed(ExpansionSpec):
            def w_space(self):
                return ProbSpace([f"w{k}" for k in range(self.m)], [1] * (self.m - 1) + [2],
                                 denom=self.m + 1)

        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, 1000)
        with pytest.raises(VerificationError):
            verify_expansion(d, expand_diagram(Skewed(d, fi, 1000)), spec)

    def test_entropy_shift_names_its_object(self):
        # only u's space is skewed, so the arrow entropy still checks
        d, fi = reduced_two_fan(4, (3, 4))
        spec = ExpansionSpec(d, fi, 3)
        out = expand_diagram(spec)
        skewed = ProbSpace(out.spaces["right"].atoms, [2] + [1] * 11, denom=13)
        bad = Diagram._trusted(out.category, {**out.spaces, "right": skewed}, out.prime_maps)
        with pytest.raises(VerificationError, match="^entropy shift at 'right': the space is "
                                                    "not its original times the uniform W "
                                                    "on 3 points$"):
            verify_expansion(d, bad, spec)


def _relabelled(diagram: Diagram, obj: str, swap: dict) -> Diagram:
    """The diagram with the atoms of obj relabelled by an involution that
    keeps masses: every map into obj is followed by it and every map out of
    obj preceded by it, so the result is a valid diagram again."""
    def moved(a):
        return swap.get(a, a)

    maps = {}
    for (i, j), red in diagram.prime_maps.items():
        mapping = red.mapping
        if j == obj:
            mapping = {a: moved(b) for a, b in mapping.items()}
        if i == obj:
            mapping = {a: mapping[moved(a)] for a in mapping}
        maps[(i, j)] = Reduction(diagram.spaces[i], diagram.spaces[j], mapping)
    return Diagram(diagram.category, diagram.spaces, maps)


def _reversed_reload(diagram: Diagram) -> Diagram:
    """The diagram saved as JSON with every space's atoms reversed, and
    loaded again."""
    obj = jsonio.diagram_to_obj(diagram)
    for space in obj["spaces"].values():
        space["atoms"].reverse()
        space["weights"].reverse()
    return jsonio.diagram_from_obj(obj)


class TestVerifyExpansionClauses:
    """One pinned message per failing clause, on reduced_lambda3(2, 4, 2..3)
    expanded with m = 2; each broken expansion passes every earlier clause."""

    @pytest.fixture
    def setup(self):
        d, fi = reduced_lambda3(2, 4, (2, 3))
        spec = ExpansionSpec(d, fi, 2)
        return d, spec, expand_diagram(spec)

    def test_changed_outside_the_u_side(self, setup):
        d, spec, out = setup
        x1 = out.spaces["x1"]
        skewed = ProbSpace(x1.atoms, [2, 1, 1, 1], denom=5)
        bad = Diagram._trusted(out.category, {**out.spaces, "x1": skewed}, out.prime_maps)
        with pytest.raises(VerificationError, match="^space at 'x1' changed outside the "
                                                    "u-side$"):
            verify_expansion(d, bad, spec)

    @pytest.mark.parametrize("swap, first", [({0: 2, 2: 0}, "x1"), ({0: 1, 1: 0}, "x")])
    def test_slice_names_the_u_atom_and_the_object(self, setup, swap, first):
        # x1's atoms relabelled: every space is unchanged.  Atoms 0 and 2
        # differ in coordinate 2, which u fixes, so over u = 0 the x1 slice
        # moves its mass from 0 to 2.  Atoms 0 and 1 differ in coordinate 1
        # only, so every slice's spaces stay equal and the first change is
        # the map out of x.
        d, spec, out = setup
        bad = _relabelled(out, "x1", swap)
        with pytest.raises(VerificationError, match=r"^conditioned x-side changed at u-atom "
                                                    rf"\(0, 'w0'\), first at '{first}'$"):
            verify_expansion(d, bad, spec)

    def test_atoms_listed_in_another_order_pass(self, setup):
        # the expansion reloaded with every space's atoms reversed: its
        # slices list their atoms in another order, and compare as atom maps
        d, spec, out = setup
        reordered = _reversed_reload(out)
        assert reordered.spaces["x"].atoms != out.spaces["x"].atoms
        assert verify_expansion(d, reordered, spec).recovered_exactly

    def test_arrow_entropy(self, setup):
        # the unexpanded diagram, whose arrow entropy has not grown by ln 2
        d, spec, _ = setup
        before = d.spaces["z"].entropy - d.spaces["x"].entropy
        message = f"arrow entropy: expected {before + math.log(2)}, got {before}"
        with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
            verify_expansion(d, d, spec)

    def test_w_marginal_ill_defined(self, setup):
        # z's atoms (0, w0) and (2, w0) swapped: z is only relabelled, so
        # every space, slice and the fan stay as they were, but (0, w0) now
        # stands where (2, w0) stood, and it and (0, w1) reach different
        # atoms of x
        d, spec, out = setup
        bad = _relabelled(out, "z", {(0, "w0"): (2, "w0"), (2, "w0"): (0, "w0")})
        message = "^W marginal ill-defined on cover \\('z', 'x'\\)$"
        with pytest.raises(VerificationError, match=message):
            strip_expansion(bad, spec)
        with pytest.raises(VerificationError, match=message):
            verify_expansion(d, bad, spec)

    def test_does_not_recover_the_original(self, setup):
        # z1's atoms relabelled the same way under both W points: the lifts
        # of x1 and u, and so every slice and the fan, stay as they were,
        # but the W marginal of z -> z1 is no longer the original map
        d, spec, out = setup
        swap = {(0, w): (1, w) for w in ("w0", "w1")}
        swap.update({b: a for a, b in swap.items()})
        bad = _relabelled(out, "z1", swap)
        with pytest.raises(VerificationError, match="^marginalizing W does not recover the "
                                                    "original$"):
            verify_expansion(d, bad, spec)


def _fields(diagram: Diagram) -> tuple:
    """Every space's atoms, masses and denominator, and every map's
    positions, in the diagram's own orders."""
    spaces = {o: (sp.atoms, sp.masses, sp.denom) for o, sp in diagram.spaces.items()}
    maps = {c: list(red.positions) for c, red in diagram.prime_maps.items()}
    return list(spaces.items()), list(maps.items())


class TestStripExpansion:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("fixture", [lambda: reduced_two_fan(4, (3, 4)),
                                         lambda: reduced_lambda3(3, 7, range(6, 8))],
                             ids=["reduced_two_fan", "reduced_lambda3"])
    def test_equals_the_dict_strip(self, fixture, m):
        d, fi = fixture()
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        stripped = strip_expansion(out, spec)
        assert _fields(stripped) == _fields(oracles.dict_strip_expansion(out, spec))
        assert stripped == d

    def test_reversed_reload_equals_the_dict_strip(self):
        d, fi = reduced_lambda3(2, 4, (2, 3))
        spec = ExpansionSpec(d, fi, 2)
        reordered = _reversed_reload(expand_diagram(spec))
        stripped = strip_expansion(reordered, spec)
        assert _fields(stripped) == _fields(oracles.dict_strip_expansion(reordered, spec))
        assert stripped == d

    @pytest.fixture
    def lambda3_and_two_fan(self):
        d, fi = reduced_lambda3(3, 7, range(6, 8))
        return d, ExpansionSpec(d, fi, 2), reduced_two_fan(4, range(3, 5))[0]

    def test_strip_refuses_another_shape(self, lambda3_and_two_fan):
        _, spec, other = lambda3_and_two_fan
        with pytest.raises(ShapeMismatchError):
            strip_expansion(other, spec)

    def test_verify_refuses_another_shape(self, lambda3_and_two_fan):
        d, spec, other = lambda3_and_two_fan
        with pytest.raises(ShapeMismatchError):
            verify_expansion(d, other, spec)
        with pytest.raises(ShapeMismatchError):
            verify_expansion(other, expand_diagram(spec), spec)

    def test_an_atom_that_is_not_a_pair_is_refused(self, lambda3_and_two_fan):
        d, spec, _ = lambda3_and_two_fan
        with pytest.raises(VerificationError, match="^atom 0 at 'z' is not a \\(v, w\\) pair$"):
            strip_expansion(d, spec)
