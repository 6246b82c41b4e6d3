import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import regret
from s3wgdm.linguistic import DHLTScale, elementwise, superior_gradus
from s3wgdm.reference import (
    CellValues,
    comprehensive_utility,
    direct_simplified_gains,
    perceived_utility_units,
    regret_rejoice,
    single,
    utility,
)
from s3wgdm.regret import CELLS, comprehensive_utilities

S33 = DHLTScale(3, 3)


class TestDirectGains:
    def test_linear_relations_on_score(self):
        cell = single(1.2, -0.3)
        b = superior_gradus(cell, S33)
        out = direct_simplified_gains(cell, 0.6, S33)
        assert out.pp == pytest.approx(b, abs=1e-12)
        assert out.bp == pytest.approx(0.6 * b, abs=1e-12)
        assert out.nn == pytest.approx(1 - b, abs=1e-12)
        assert out.bn == pytest.approx(0.6 * (1 - b), abs=1e-12)
        assert out.np == 0.0 and out.pn == 0.0

    def test_ordering_invariants(self):
        rng = random.Random(17)
        for _ in range(200):
            cell = single(rng.uniform(-3, 3), rng.uniform(-3, 3))
            eta = rng.random()
            out = direct_simplified_gains(cell, eta, S33)
            assert 0.0 <= out.bp <= out.pp <= 1.0
            assert 0.0 <= out.bn <= out.nn <= 1.0

    def test_raw_score_above_one_clamped(self):
        raw = superior_gradus(single(3, 3), S33)
        assert raw == pytest.approx(1.0969961178, abs=1e-9)
        assert direct_simplified_gains(single(3, 3), 0.6, S33).pp == 1.0

    def test_eta_range(self):
        with pytest.raises(ValueError):
            direct_simplified_gains(single(0, 0), 1.2, S33)


class TestUtility:
    def test_anchors(self):
        assert utility(1.0, 0.88) == 1.0
        assert utility(0.0, 0.88) == 0.0

    def test_half(self):
        assert utility(0.5, 0.88) == pytest.approx(0.5 ** 0.88, abs=1e-12)
        assert utility(0.5, 0.88) == pytest.approx(0.5433674313, abs=1e-9)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            utility(0.5, 1.0)
        with pytest.raises(ValueError):
            utility(1.5, 0.5)

    def test_concave_increasing(self):
        rng = random.Random(21)
        for _ in range(100):
            a, b = sorted((rng.random(), rng.random()))
            theta = rng.uniform(0.05, 0.95)
            assert utility(a, theta) <= utility(b, theta) + 1e-12
            mid = utility((a + b) / 2, theta)
            assert mid >= (utility(a, theta) + utility(b, theta)) / 2 - 1e-12


class TestRegretRejoice:
    def test_zero_gap(self):
        assert regret_rejoice(0.0, 0.3) == 0.0

    def test_regret_value(self):
        assert regret_rejoice(-0.54340, 0.3) == pytest.approx(
            1 - math.exp(0.3 * 0.54340), abs=1e-12)
        assert regret_rejoice(-0.54340, 0.3) == pytest.approx(-0.1770602307, abs=1e-9)

    def test_aversion_off(self):
        for gap in (-0.9, -0.1, 0.0, 0.4):
            assert regret_rejoice(gap, 0.0) == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            regret_rejoice(-0.1, -0.2)

    def test_strictly_increasing(self):
        assert regret_rejoice(-0.2, 0.3) < regret_rejoice(-0.1, 0.3) < regret_rejoice(0.1, 0.3)


def unit_from_pp(b, eta=0.6):
    return CellValues(pp=b, bp=eta * b, np=0.0, pn=0.0, bn=eta * (1 - b), nn=1 - b)


class TestPerceived:
    def test_reference_alternative_keeps_full_utility(self):
        units = [unit_from_pp(1.0), unit_from_pp(0.5)]
        out = perceived_utility_units(units, 0.88, 0.3)
        assert out[0].pp == pytest.approx(utility(1.0, 0.88), abs=1e-12)

    def test_two_alternative_value(self):
        units = [unit_from_pp(1.0), unit_from_pp(0.5)]
        out = perceived_utility_units(units, 0.88, 0.3)
        u2 = 0.5 ** 0.88
        expected = u2 + 1 - math.exp(0.3 * (1 - u2))
        assert out[1].pp == pytest.approx(expected, abs=1e-12)
        assert out[1].pp == pytest.approx(0.3965510140, abs=1e-9)

    def test_no_gain_cells_penalized_by_reference(self):
        units = [unit_from_pp(0.8)]
        out = perceived_utility_units(units, 0.88, 0.3)
        ref = utility(0.8, 0.88)
        assert out[0].pn == pytest.approx(1 - math.exp(0.3 * ref), abs=1e-12)
        assert out[0].pn < 0

    def test_rejoice_when_rejection_beats_reference(self):
        # weak field: the rejection gain exceeds every full gain
        units = [unit_from_pp(0.2), unit_from_pp(0.3)]
        out = perceived_utility_units(units, 0.88, 0.3)
        u_nn = utility(0.8, 0.88)
        u_ref = utility(0.3, 0.88)
        assert out[0].nn == pytest.approx(
            u_nn + 1 - math.exp(-0.3 * (u_nn - u_ref)), abs=1e-12)
        assert out[0].nn > u_nn

    def test_delta_zero_degenerates_to_utility(self):
        rng = random.Random(31)
        units = [unit_from_pp(rng.random()) for _ in range(5)]
        out = perceived_utility_units(units, 0.7, 0.0)
        for unit, got in zip(units, out):
            for name in ("pp", "bp", "np", "pn", "bn", "nn"):
                assert got.cell(name) == pytest.approx(
                    utility(unit.cell(name), 0.7), abs=1e-12)

    def test_monotone_in_score_with_fixed_reference(self):
        units = [unit_from_pp(1.0), unit_from_pp(0.4), unit_from_pp(0.6)]
        out = perceived_utility_units(units, 0.88, 0.3)
        assert out[1].pp < out[2].pp < out[0].pp

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perceived_utility_units([], 0.88, 0.3)


class TestComprehensive:
    def _unit(self, value):
        return CellValues(pp=value, bp=value / 2, np=0.0, pn=0.0,
                          bn=value / 3, nn=1 - value)

    def test_singleton_subset(self):
        unit = self._unit(0.5)
        out = comprehensive_utility({"a": unit}, {"a": 1.0})
        for name in ("pp", "bp", "np", "pn", "bn", "nn"):
            assert out.cell(name) == pytest.approx(unit.cell(name), abs=1e-12)

    def test_equal_units_fixed_point(self):
        unit = self._unit(0.4)
        out = comprehensive_utility({"a": unit, "b": unit}, {"a": 0.3, "b": 0.7})
        assert out.pp == pytest.approx(unit.pp, abs=1e-12)

    def test_weighted_mean(self):
        out = comprehensive_utility(
            {"a": self._unit(0.5), "b": self._unit(1.0)}, {"a": 0.4, "b": 0.6})
        assert out.pp == pytest.approx(0.4 * 0.5 + 0.6 * 1.0, abs=1e-12)

    def test_envelope(self):
        rng = random.Random(37)
        for _ in range(50):
            units = {f"a{k}": self._unit(rng.random()) for k in range(3)}
            raw = [rng.random() + 0.01 for _ in range(3)]
            weights = {f"a{k}": raw[k] / sum(raw) for k in range(3)}
            out = comprehensive_utility(units, weights)
            for name in ("pp", "bp", "nn"):
                values = [u.cell(name) for u in units.values()]
                assert min(values) - 1e-12 <= out.cell(name) <= max(values) + 1e-12

    def test_weight_key_mismatch(self):
        with pytest.raises(ValueError):
            comprehensive_utility({"a": self._unit(0.5)}, {"b": 1.0})


def per_set(scores, weights, triples):
    """:func:`comprehensive_utilities` of one universe, all rows, under each
    of ``triples``: a (sets, rows, 6) array in ``triples`` order."""
    k = len(scores)
    values, first = comprehensive_utilities(scores, weights, triples, np.array([0, k]), (
        np.zeros(len(triples), dtype=np.intp), np.arange(len(triples))))
    return values[first[:, None] + np.arange(k)]


def one_parameter_set(scores, weights, eta, theta, delta):
    """The comprehensive utilities of one (eta, theta, delta), with the
    parameters as scalars: the gains, perceived utilities and weighted
    sum of :func:`comprehensive_utilities`, one parameter set at a time."""
    b = np.clip(scores, 0.0, 1.0)
    zero = np.zeros_like(b)
    gains = np.stack([b, eta * b, zero, zero, eta * (1.0 - b), 1.0 - b], axis=-1)
    u = elementwise(math.pow, gains, theta)
    u_ref = u[:, :, 0].max(axis=0)
    perceived = u + (1.0 - elementwise(math.exp, -delta * (u - u_ref[:, None])))
    return sum(w * perceived[:, j] for j, w in enumerate(weights))


@st.composite
def utility_inputs(draw):
    """Scores of k rows on 1 to 12 attributes, some outside [0, 1], with
    weights summing to about 1; and parameter sets, delta 0 among them
    often, some repeated."""
    k = draw(st.integers(1, 20))
    z = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.uniform(-0.2, 1.2, (k, z))
    scores[rng.random((k, z)) < 0.2] = 1.0
    raw = rng.random(z) + 0.01
    weights = (raw / raw.sum()).tolist()
    triple = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_min=True,
                                                      exclude_max=True),
                       st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    triples = draw(st.lists(triple, min_size=1, max_size=8))
    repeats = draw(st.lists(st.integers(0, len(triples) - 1), max_size=4))
    return scores, weights, triples + [triples[r] for r in repeats]


class TestBatchedUtilities:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(utility_inputs(), st.one_of(st.none(), st.integers(1, 600)))
    def test_each_parameter_set_as_its_own_call(self, inputs, cells):
        """The utilities of many (eta, theta, delta) in one call equal,
        bit for bit, each one's own call and the scalar-parameter pass,
        also where small blocks split the parameter sets."""
        scores, weights, triples = inputs
        with pytest.MonkeyPatch.context() as patch:
            if cells is not None:
                patch.setattr(regret, "BLOCK_CELLS", cells)
            got = per_set(scores, weights, triples)
        assert got.shape == (len(triples), len(scores), len(CELLS))
        for row, (eta, theta, delta) in zip(got, triples):
            alone = per_set(scores, weights, [(eta, theta, delta)])
            assert np.array_equal(row, alone[0])
            assert np.array_equal(row, one_parameter_set(scores, weights, eta, theta, delta))
