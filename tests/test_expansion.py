import math
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import reversed_reload
from probdiag import (
    Diagram,
    ExpansionSpec,
    ProbSpace,
    Reduction,
    classify_fan,
    coordinate_diagram,
    entropy_vector,
    expand_diagram,
    make_diagram,
    standard_category,
    strip_expansion,
    verify_expansion,
)
from probdiag import expansion
from probdiag.diagrams import FanClassification, FanIndices
from probdiag.errors import (
    BadParamError,
    NotReducedError,
    ShapeMismatchError,
    TooLargeError,
    VerificationError,
)
from probdiag.expansion import MAX_EXPANDED_ATOMS, _slices_agree
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

    @pytest.mark.parametrize("m", [-2, True, 2.5, "2"])
    def test_refuses_m_that_is_not_a_positive_int(self, m):
        # True is an int to isinstance, but not a W size
        d, fi = reduced_two_fan(4, (3, 4))
        with pytest.raises(BadParamError, match="W size must be a positive int"):
            ExpansionSpec(d, fi, m)

    def test_caps_the_expanded_support(self):
        # the u-side (top, 16 atoms, and u, 4 atoms) holds 20 atoms, so the
        # largest m under the cap is its 20th part
        d, fi = reduced_two_fan(4, (3, 4))
        largest = MAX_EXPANDED_ATOMS // 20
        assert ExpansionSpec(d, fi, largest).m == largest
        for m in (largest + 1, 10 ** 30):
            with pytest.raises(TooLargeError, match="over the cap"):
                ExpansionSpec(d, fi, m)

    def test_refuses_an_x_that_reaches_u(self):
        # on the chain 3 -> 2 -> 1 the fan 2 <- 3 -> 1 is reduced, but its
        # x (2) is an ancestor of u (1): W would inflate x too, and the
        # x-ideal {2, 1} would meet the u-side {3, 2, 1}
        cat = standard_category("chain", 3)
        d = coordinate_diagram(cat, {"3": (1, 2), "2": (1, 2), "1": (1,)}, 2)
        fi = FanIndices(x_obj="2", z_obj="3", u_obj="1")
        assert classify_fan(d, fi).reduced
        with pytest.raises(BadParamError, match="x reaches u"):
            ExpansionSpec(d, fi, 2)


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


class _Unchecked(ExpansionSpec):
    """An expansion spec that skips the reduced-fan checks, to expand a fan
    the clauses behind them judge."""

    def __post_init__(self):
        pass


class TestVerifyExpansionClauses:
    """One pinned message per failing clause, on reduced_lambda3(2, 4, 2..3)
    expanded with m = 2 unless a test says otherwise; each broken expansion
    passes every earlier clause."""

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
        reordered = reversed_reload(out)
        assert reordered.spaces["x"].atoms != out.spaces["x"].atoms
        assert verify_expansion(d, reordered, spec).recovered_exactly

    def test_arrow_entropy(self, setup):
        # the unexpanded diagram, whose arrow entropy has not grown by ln 2
        d, spec, _ = setup
        before = d.spaces["z"].entropy - d.spaces["x"].entropy
        message = f"arrow entropy: expected {before + math.log(2)}, got {before}"
        with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
            verify_expansion(d, d, spec)

    def test_not_admissible(self):
        # a two-fan whose feet carry coordinates 1..2 and 2..3 of top's
        # four is not minimal, and neither is its expansion; the arrow
        # entropy, every space and every slice still check
        d, fi = coord_two_fan(4, (1, 2), (2, 3))
        assert not classify_fan(d, fi).admissible
        spec = _Unchecked(d, fi, 2)
        with pytest.raises(VerificationError, match="^expanded fan is not admissible$"):
            verify_expansion(d, expand_diagram(spec), spec)

    def test_still_reduced(self, setup, monkeypatch):
        """No input reaches this clause once the earlier ones pass.  With
        m >= 2 the space clause makes |z'| = m |z|, and x, off the u-side,
        keeps its space, so |x| <= |z| < |z'| and the expanded fan is not
        reduced.  An x on the u-side (refused by ExpansionSpec) would be
        inflated with z, and the arrow-entropy clause would fail first.  So
        the message is pinned on a classification patched to say reduced."""
        d, spec, out = setup
        monkeypatch.setattr(expansion, "classify_fan",
                            lambda diagram, fan: FanClassification(True, True, True, ()))
        with pytest.raises(VerificationError, match="^expanded fan is still reduced$"):
            verify_expansion(d, out, spec)

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


def _slice_message(atom, obj) -> str:
    return f"^{re.escape(f'conditioned x-side changed at u-atom {atom!r}, first at {obj!r}')}$"


# the expansion fixtures of tools/output_digest.py: the CLI's two_fan and
# lambda3 defaults and the benchmark's roundtrip diagram
DIGEST_FIXTURES = {
    "two_fan": lambda: reduced_two_fan(4, (3, 4)),
    "lambda3": lambda: reduced_lambda3(2, 4, (3, 4)),
    "roundtrip": lambda: reduced_lambda3(3, 7, range(6, 8)),
}


class TestGroupedSliceClause:
    """The grouped pass (`_slices_agree`) against the per-slice loop it
    replaced (`oracles.slice_clause`): one verdict, and on a failure the
    u-atom and object that `verify_expansion` names."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(DIGEST_FIXTURES))
    def test_expansions_pass(self, name, m):
        d, fi = DIGEST_FIXTURES[name]()
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        for original, expanded in ((d, out), (d, reversed_reload(out)),
                                   (reversed_reload(d), out)):
            assert oracles.slice_clause(original, expanded, spec) is None
            assert _slices_agree(original, expanded, spec)
            assert verify_expansion(original, expanded, spec).conditioned_slices_equal

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("obj, swap, v, first", [
        # x2 carries coordinates 4..7 and u 6..7.  Atoms 8 and 12 differ in
        # coordinate 6, and both have coordinate 7 set: the x2 slices over
        # u = 2 and 3 trade them, and no other slice holds either
        ("x2", {8: 12, 12: 8}, 2, "x2"),
        # atoms 12 and 13 differ in coordinate 4 only: the slices over
        # u = 3 keep their spaces, and only the map out of x changes
        ("x2", {12: 13, 13: 12}, 3, "x"),
        # u's atoms 1 and 2 trade their fibers at the last W point
        ("u", {1: 2, 2: 1}, 1, "x"),
    ], ids=["mass", "map_only", "u_atoms"])
    def test_tampered_fails_at_the_chosen_slice(self, m, obj, swap, v, first):
        d, fi = reduced_lambda3(3, 7, range(6, 8))
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        if obj == "u":
            w = f"w{m - 1}"
            swap = {(a, w): (b, w) for a, b in swap.items()} if m > 1 else swap
            atom = (v, w) if m > 1 else v
        else:
            atom = (v, "w0") if m > 1 else v
        bad = _relabelled(out, obj, swap)
        assert oracles.slice_clause(d, bad, spec) == (atom, first)
        assert not _slices_agree(d, bad, spec)
        with pytest.raises(VerificationError, match=_slice_message(atom, first)):
            verify_expansion(d, bad, spec)
        # listed in another order, the first changed slice comes later
        reordered = reversed_reload(bad)
        named = oracles.slice_clause(d, reordered, spec)
        assert named is not None and not _slices_agree(d, reordered, spec)
        with pytest.raises(VerificationError, match=_slice_message(*named)):
            verify_expansion(d, reordered, spec)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_relabellings(self, data):
        name = data.draw(st.sampled_from(["two_fan", "lambda3"]))
        m = data.draw(st.integers(1, 3))
        d, fi = DIGEST_FIXTURES[name]()
        spec = ExpansionSpec(d, fi, m)
        out = expand_diagram(spec)
        obj = data.draw(st.sampled_from(out.category.objects))
        atoms = out.spaces[obj].atoms
        order = data.draw(st.permutations(range(len(atoms))))
        pairs = data.draw(st.integers(1, len(atoms) // 2))
        swap = {}
        for a, b in zip(order[:2 * pairs:2], order[1:2 * pairs:2]):
            swap.update({atoms[a]: atoms[b], atoms[b]: atoms[a]})
        bad = _relabelled(out, obj, swap)
        if data.draw(st.booleans()):
            bad = reversed_reload(bad)
        named = oracles.slice_clause(d, bad, spec)
        assert _slices_agree(d, bad, spec) == (named is None)
        if named is not None:
            with pytest.raises(VerificationError, match=_slice_message(*named)):
                verify_expansion(d, bad, spec)


class TestExactSliceMasses:
    """The slice clause on masses whose cross products pass 2^63: a two-fan
    whose top has masses K, K + 1, K + 1, K over 4K + 2.  Its feet are
    uniform on two atoms and jointly injective, so the fan is minimal but
    not reduced.  At K = 2^60 the masses fit in int64 and their products do
    not; at K = 2^64 neither does."""

    @pytest.fixture(params=[2 ** 60, 2 ** 64], ids=["K=2^60", "K=2^64"])
    def setup(self, request):
        k = request.param
        cat = standard_category("two_fan")
        top = ProbSpace(["t1", "t2", "t3", "t4"], [k, k + 1, k + 1, k], denom=4 * k + 2)
        left, right = ProbSpace(["b1", "b2"], [1, 1], denom=2), ProbSpace(["r1", "r2"], [1, 1],
                                                                           denom=2)
        d = make_diagram(cat, {"top": top, "left": left, "right": right}, {
            ("top", "left"): {"t1": "b1", "t2": "b2", "t3": "b1", "t4": "b2"},
            ("top", "right"): {"t1": "r1", "t2": "r1", "t3": "r2", "t4": "r2"}})
        spec = _Unchecked(d, FanIndices(x_obj="left", z_obj="top", u_obj="right"), 2)
        out = expand_diagram(spec)
        assert d.initial_space.denom * out.initial_space.denom > 2 ** 120
        return d, spec, out

    def test_untampered_passes(self, setup):
        d, spec, out = setup
        assert oracles.slice_clause(d, out, spec) is None
        assert _slices_agree(d, out, spec)
        assert verify_expansion(d, out, spec).recovered_exactly

    def test_one_unit_of_mass_fails(self, setup):
        # at W point w0, t1 and t2 trade their x-atoms, and so do t3 and t4:
        # every space keeps its masses, and every slice its support, but
        # the slice over (r1, w0) weighs b1 K + 1 and b2 K, one unit off,
        # a relative change that a float cannot hold at either K
        d, spec, out = setup
        moved = {("t1", "w0"): "b2", ("t2", "w0"): "b1", ("t3", "w0"): "b2",
                 ("t4", "w0"): "b1"}
        old = out.prime_maps[("top", "left")].mapping
        cover = Reduction(out.spaces["top"], out.spaces["left"],
                          {a: moved.get(a, b) for a, b in old.items()})
        bad = Diagram(out.category, out.spaces, {**out.prime_maps, ("top", "left"): cover})
        assert oracles.slice_clause(d, bad, spec) == (("r1", "w0"), "left")
        assert not _slices_agree(d, bad, spec)
        with pytest.raises(VerificationError, match=_slice_message(("r1", "w0"), "left")):
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
        reordered = reversed_reload(expand_diagram(spec))
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
