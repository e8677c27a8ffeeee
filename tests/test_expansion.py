import math

import pytest

from probdiag import (
    Diagram,
    ExpansionSpec,
    ProbSpace,
    classify_fan,
    entropy_vector,
    expand_diagram,
    strip_expansion,
    verify_expansion,
)
from probdiag.errors import BadParamError, NotReducedError, TooLargeError, VerificationError
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
