import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm.linguistic import (
    DHHFLE,
    DHLT,
    DHLTScale,
    ScaleRangeError,
    elementwise,
    superior_gradus,
    superior_gradus_term,
)
from s3wgdm.reference import (
    HFEValue,
    LengthMismatchError,
    add,
    complement,
    euclid_distance,
    f_inverse,
    f_scalar,
    from_hfe,
    linguistic_expected_value,
    mirror,
    single,
    to_hfe,
)

S33 = DHLTScale(3, 3)

phis = st.floats(min_value=-3, max_value=3, allow_nan=False)
varphis = st.floats(min_value=-3, max_value=3, allow_nan=False)
gammas = st.floats(min_value=0, max_value=1, allow_nan=False)


def elements(max_len=4):
    term = st.tuples(phis, varphis).map(lambda t: DHLT(*t))
    return st.lists(term, min_size=1, max_size=max_len).map(DHHFLE)


class TestScale:
    def test_rejects_nonpositive_ranges(self):
        with pytest.raises(ValueError):
            DHLTScale(0, 3)
        with pytest.raises(ValueError):
            DHLTScale(3, 0)

    def test_check_names_offender(self):
        with pytest.raises(ScaleRangeError, match="4"):
            S33.check(4, 0)
        with pytest.raises(ScaleRangeError, match="-5"):
            S33.check(0, -5)


class TestTransform:
    def test_half_point(self):
        assert f_scalar(1, -3, S33) == pytest.approx(0.5, abs=1e-12)

    def test_anchors(self):
        assert f_scalar(3, 0, S33) == 1.0
        assert f_scalar(-3, 0, S33) == 0.0

    def test_inverse_midpoint_and_anchor(self):
        assert f_inverse(0.5, S33) == DHLT(0.0, 0.0)
        assert f_inverse(1.0, S33) == DHLT(3.0, 0.0)

    def test_inverse_integer_boundary_prefers_zero_secondary(self):
        # 2*tau*gamma - tau integral: the canonical form has varphi = 0
        t = f_inverse(2 / 3, S33)
        assert t == DHLT(1.0, 0.0)

    def test_inverse_out_of_range(self):
        with pytest.raises(ValueError):
            f_inverse(1.0 + 1e-6, S33)
        with pytest.raises(ValueError):
            f_inverse(-1e-6, S33)

    @given(gammas)
    @settings(max_examples=300)
    def test_roundtrip_gamma(self, g):
        t = f_inverse(g, S33)
        assert f_scalar(t.phi, t.varphi, S33) == pytest.approx(g, abs=1e-9)

    def test_roundtrip_gamma_grid(self):
        for k in range(1001):
            g = k / 1000
            t = f_inverse(g, S33)
            assert abs(f_scalar(t.phi, t.varphi, S33) - g) < 1e-9

    @given(phis, varphis)
    def test_term_roundtrip_in_value(self, phi, varphi):
        g = f_scalar(phi, varphi, S33)
        t = f_inverse(g, S33)
        assert f_scalar(t.phi, t.varphi, S33) == pytest.approx(g, abs=1e-9)

    @given(phis, varphis, st.floats(min_value=1e-4, max_value=1.0))
    def test_strictly_increasing_each_subscript(self, phi, varphi, eps):
        def raw(p, v):
            return (v + (3 + p) * 3) / 18.0

        base = f_scalar(phi, varphi, S33)
        # strict where the affine image stays inside the interval
        if phi + eps <= 3:
            if 0 < raw(phi, varphi) and raw(phi + eps, varphi) < 1:
                assert f_scalar(phi + eps, varphi, S33) > base
            else:
                assert f_scalar(phi + eps, varphi, S33) >= base
        if varphi + eps <= 3:
            if 0 < raw(phi, varphi) and raw(phi, varphi + eps) < 1:
                assert f_scalar(phi, varphi + eps, S33) > base
            else:
                assert f_scalar(phi, varphi + eps, S33) >= base


class TestElementTransforms:
    def test_paper_pair(self):
        h = DHHFLE([DHLT(1, -3), DHLT(2, -3)])
        assert to_hfe(h, S33).gammas == pytest.approx((0.5, 2 / 3), abs=1e-9)

    def test_singleton_midpoint(self):
        assert to_hfe(single(0, 0), S33).gammas == (0.5,)

    @given(elements())
    @settings(max_examples=200)
    def test_roundtrip_in_gamma_space(self, h):
        back = from_hfe(to_hfe(h, S33), S33)
        for a, b in zip(to_hfe(back, S33).gammas, to_hfe(h, S33).gammas):
            assert a == pytest.approx(b, abs=1e-9)

    def test_hfe_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HFEValue((1.5,))


class TestOperationalLaws:
    def test_additive_identity(self):
        h = DHHFLE([DHLT(1, 2), DHLT(-1, 0)])
        zero = single(-3, 0)  # degree 0
        out = add(h, zero, S33)
        assert to_hfe(out, S33).gammas == pytest.approx(to_hfe(h, S33).gammas, abs=1e-9)

    def test_complement_involution_example(self):
        h = DHHFLE([DHLT(2, 1), DHLT(-1, 0.5)])
        twice = complement(complement(h, S33), S33)
        assert to_hfe(twice, S33).gammas == pytest.approx(to_hfe(h, S33).gammas, abs=1e-9)

    @given(elements(2), elements(2))
    @settings(max_examples=150)
    def test_add_commutative(self, h1, h2):
        a = sorted(to_hfe(add(h1, h2, S33), S33).gammas)
        b = sorted(to_hfe(add(h2, h1, S33), S33).gammas)
        assert a == pytest.approx(b, abs=1e-9)

    @given(elements(2), elements(2), elements(2))
    @settings(max_examples=100)
    def test_add_associative(self, h1, h2, h3):
        a = sorted(to_hfe(add(add(h1, h2, S33), h3, S33), S33).gammas)
        b = sorted(to_hfe(add(h1, add(h2, h3, S33), S33), S33).gammas)
        assert a == pytest.approx(b, abs=1e-9)

    @given(elements())
    @settings(max_examples=150)
    def test_complement_involution(self, h):
        twice = complement(complement(h, S33), S33)
        assert sorted(to_hfe(twice, S33).gammas) == pytest.approx(
            sorted(to_hfe(h, S33).gammas), abs=1e-9)

    @given(elements())
    def test_mirror_is_value_complement_and_involution(self, h):
        m = mirror(h)
        for g, gm in zip(to_hfe(h, S33).gammas, to_hfe(m, S33).gammas):
            assert gm == pytest.approx(1 - g, abs=1e-12)
        assert mirror(m) == h


class TestExpectedValue:
    def test_two_term_average(self):
        h = DHHFLE([DHLT(1, -1), DHLT(1, -2)])
        out = linguistic_expected_value(h)
        assert out == single(1, -1.5)

    def test_idempotent_on_singleton(self):
        h = single(2, 0.5)
        assert linguistic_expected_value(h) == h

    def test_mean_of_subscripts(self):
        h = DHHFLE([DHLT(2, 3), DHLT(0, -3)])
        assert linguistic_expected_value(h) == single(1, 0)

    @given(elements())
    def test_idempotence(self, h):
        once = linguistic_expected_value(h)
        assert linguistic_expected_value(once) == once


class TestSuperiorGradus:
    def test_anchors(self):
        assert superior_gradus_term(DHLT(-3, 0), S33) == pytest.approx(0.0, abs=1e-12)
        assert superior_gradus_term(DHLT(3, 0), S33) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self):
        expected = (math.exp(0.5) - 1) / (math.e - 1)
        assert superior_gradus_term(DHLT(0, 0), S33) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.3775406688, abs=1e-9)

    def test_raw_value_can_leave_unit_interval(self):
        assert superior_gradus_term(DHLT(3, 3), S33) > 1.0
        assert superior_gradus_term(DHLT(-3, -1), S33) < 0.0

    @given(phis, varphis, st.floats(min_value=1e-4, max_value=1.0))
    def test_strictly_increasing(self, phi, varphi, eps):
        base = superior_gradus_term(DHLT(phi, varphi), S33)
        if phi + eps <= 3:
            assert superior_gradus_term(DHLT(phi + eps, varphi), S33) > base
        if varphi + eps <= 3:
            assert superior_gradus_term(DHLT(phi, varphi + eps), S33) > base

    def test_mean_over_terms(self):
        h = DHHFLE([DHLT(3, 0), DHLT(-3, 0)])
        expected = (superior_gradus_term(DHLT(3, 0), S33)
                    + superior_gradus_term(DHLT(-3, 0), S33)) / 2
        assert superior_gradus(h, S33) == pytest.approx(expected, abs=1e-12)


class TestElementwise:
    def test_array_argument_repeats_along_leading_axes(self):
        values = np.random.default_rng(5).random((3, 4, 2))
        exponents = np.array([0.5, 0.88])
        got = elementwise(math.pow, values, exponents)
        assert got.tolist() == [[[math.pow(v, e) for v, e in zip(row, exponents)]
                                 for row in block] for block in values.tolist()]
        assert elementwise(math.pow, values, 0.88).tolist() == \
            [[[math.pow(v, 0.88) for v in row] for row in block] for block in values.tolist()]

    @pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 3, 4, 2)])
    def test_argument_not_ending_the_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="does not end"):
            elementwise(math.pow, np.ones((3, 4, 2)), np.ones(shape))


class TestDistance:
    def test_collision_pair(self):
        h1 = DHHFLE([DHLT(1, -3), DHLT(2, -3)])
        h2 = DHHFLE([DHLT(-1, 3), DHLT(0, 3)])
        assert euclid_distance(h1, h2, S33) == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        h = DHHFLE([DHLT(1, 1), DHLT(0, -2)])
        assert euclid_distance(h, h, S33) == 0.0

    def test_full_span(self):
        assert euclid_distance(single(3, 0), single(-3, 0), S33) == pytest.approx(1.0)

    def test_length_mismatch_refused(self):
        with pytest.raises(LengthMismatchError):
            euclid_distance(single(0, 0), DHHFLE([DHLT(0, 0), DHLT(1, 0)]), S33)

    def test_collision_with_distinct_scores(self):
        # zero distance does not imply equal exponential scores
        h1 = DHHFLE([DHLT(1, -3), DHLT(2, -3)])
        h2 = DHHFLE([DHLT(-1, 3), DHLT(0, 3)])
        assert euclid_distance(h1, h2, S33) == 0.0
        assert abs(superior_gradus(h1, S33) - superior_gradus(h2, S33)) > 0.1


class TestElementEquality:
    def test_multiset_equality_ignores_order(self):
        a = DHHFLE([DHLT(1, 0), DHLT(2, 0)])
        b = DHHFLE([DHLT(2, 0), DHLT(1, 0)])
        assert a == b

    def test_tolerance(self):
        a = single(1, 0)
        b = single(1 + 1e-10, 0)
        assert a == b
        assert a != single(1 + 1e-6, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DHHFLE([])
