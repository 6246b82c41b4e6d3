import math
import random
import sys

import numpy as np
import pytest
from conftest import exit_levels, level_regions, per_id, run_group, scored, universe
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import cli, engine, neighborhood, regret
from s3wgdm.caseio import CaseFile, ParamsFile, report_dict
from s3wgdm.engine import (
    EngineParams,
    LevelConfig,
    baseline_full_fusion,
    check_level_monotonicity,
    rank,
    run_level,
    run_sequential,
)
from s3wgdm.linguistic import DHHFLE, DHLT, DHLTScale
from s3wgdm.neighborhood import membership_degrees
from s3wgdm.reference import (
    CellValues,
    classify,
    expected_perceived_utility,
    kernel_granule_statistics,
    make_table,
    single,
)
from s3wgdm.regret import BND, CELLS, NEG, POS
from s3wgdm.tables import AttributeSpec, FusedDecisionTable, renormalize_weights

S33 = DHLTScale(3, 3)


def attr(aid, w):
    return AttributeSpec(id=aid, weight=w, kind="cost", align_with_concept=True)


def random_case(rng, n=None, m=None, e=None):
    n = n or rng.randint(2, 12)
    m = m or rng.randint(1, 6)
    e = e or rng.randint(1, 4)
    alternatives = [f"x{i}" for i in range(1, n + 1)]
    attr_ids = [f"a{j}" for j in range(1, m + 1)]
    raw_w = [rng.random() + 0.05 for _ in range(m)]
    attrs = [attr(a, w / sum(raw_w)) for a, w in zip(attr_ids, raw_w)]
    raw_e = [rng.random() + 0.05 for _ in range(e)]
    tables = []
    for k in range(e):
        rows = [[DHHFLE([DHLT(rng.uniform(-3, 3), rng.uniform(-3, 3))
                         for _ in range(rng.randint(1, 4))])
                 for _ in attr_ids]
                for _ in alternatives]
        tables.append(make_table(f"E{k+1}", raw_e[k] / sum(raw_e),
                                 alternatives, attr_ids, rows, S33))
    return tables, attrs


def check_regions_and_ranking(report, tables, attrs, levels):
    """After every level the three region lists are sorted, disjoint and
    cover the alternatives; the report's final ranking is the ranking
    after its last level."""
    for upto in range(1, len(report.levels) + 1):
        regions = report.regions_after(upto)
        ids = regions["POS"] + regions["BND"] + regions["NEG"]
        assert all(block == sorted(block) for block in regions.values())
        assert len(ids) == len(set(ids))
        assert set(ids) == set(report.alternatives)
    case = CaseFile(scale=S33, alternatives=tables[0].alternatives,
                    attributes=tuple(attrs), experts=tuple(tables))
    data = report_dict(case, ParamsFile(params=GOLDEN, levels=tuple(levels)), report)
    assert data["final"]["ranking"] == data["levels"][-1]["ranking_after"]
    assert data["final"]["ranking"] == rank(report)


def cu(pp=0.0, bp=0.0, np=0.0, pn=0.0, bn=0.0, nn=0.0):
    return CellValues(pp=pp, bp=bp, np=np, pn=pn, bn=bn, nn=nn)


class TestExpectedUtility:
    def test_degenerate_concept_state(self):
        v = cu(pp=0.8, bp=0.5, np=0.1, pn=-0.2, bn=0.3, nn=0.6)
        assert expected_perceived_utility(v, 1.0) == pytest.approx((0.8, 0.5, 0.1))

    def test_degenerate_complement_state(self):
        v = cu(pp=0.8, bp=0.5, np=0.1, pn=-0.2, bn=0.3, nn=0.6)
        assert expected_perceived_utility(v, 0.0) == pytest.approx((-0.2, 0.3, 0.6))

    def test_mixture(self):
        v = cu(pp=0.8, pn=-0.2)
        acc, _, _ = expected_perceived_utility(v, 0.5)
        assert acc == pytest.approx(0.3)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            expected_perceived_utility(cu(), 1.2)


class TestClassify:
    def test_strict_maxima(self):
        assert classify((1.0, 0.5, 0.0)) == "POS"
        assert classify((0.1, 0.6, 0.2)) == "BND"
        assert classify((0.1, 0.2, 0.6)) == "NEG"

    def test_full_tie_prefers_accept(self):
        assert classify((0.2, 0.2, 0.2)) == "POS"

    def test_pairwise_tie_order(self):
        assert classify((0.5, 0.5, 0.1)) == "POS"
        assert classify((0.1, 0.5, 0.5)) == "BND"


class TestLevelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LevelConfig(kappa=1.4, sigma=0.7)
        with pytest.raises(ValueError):
            LevelConfig(kappa=0.5, sigma=0.0)

    @pytest.mark.parametrize("kappa, sigma", [
        (math.nan, 0.7), (0.5, math.nan), (0.5, math.inf), (math.inf, 0.7)])
    def test_non_finite_rejected(self, kappa, sigma):
        with pytest.raises(ValueError):
            LevelConfig(kappa=kappa, sigma=sigma)

    def test_kernel_denominator_must_be_finite(self):
        sigma = math.sqrt(sys.float_info.max / 2)
        while 2.0 * sigma * sigma < math.inf:  # up to the first sigma whose 2 sigma^2 overflows
            sigma = math.nextafter(sigma, math.inf)
        with pytest.raises(ValueError, match="too large: 2 sigma\\^2 overflows to inf"):
            LevelConfig(kappa=1.0, sigma=sigma)
        widest = math.nextafter(sigma, 0.0)
        assert LevelConfig(kappa=1.0, sigma=widest).sigma == widest

    def test_monotonicity_guard(self):
        ok = [LevelConfig(0.5, 0.9), LevelConfig(0.7, 0.7), LevelConfig(0.7, 0.7)]
        check_level_monotonicity(ok)
        bad_kappa = [LevelConfig(0.8, 0.7), LevelConfig(0.5, 0.7)]
        with pytest.raises(ValueError):
            check_level_monotonicity(bad_kappa)
        check_level_monotonicity(bad_kappa, override=True)
        bad_sigma = [LevelConfig(0.5, 0.5), LevelConfig(0.5, 0.9)]
        with pytest.raises(ValueError):
            check_level_monotonicity(bad_sigma)

    @pytest.mark.parametrize("levels, message", [
        ([LevelConfig(0.5, 1e-160), LevelConfig(0.5, 1e-13)], "kernel widths"),
        ([LevelConfig(0.9, 0.7), LevelConfig(0.9 - 1e-13, 0.7)], "cut thresholds"),
    ], ids=["sigma-grows-by-1e-13", "kappa-falls-by-1e-13"])
    def test_monotonicity_compares_exactly(self, levels, message):
        """Levels compare exactly: a step the wrong way, however small,
        is refused unless overridden, and equal levels pass."""
        with pytest.raises(ValueError, match=f"^{message} must be"):
            check_level_monotonicity(levels)
        check_level_monotonicity(levels, override=True)
        check_level_monotonicity([levels[0]] * 3)
        check_level_monotonicity([levels[1]] * 3)


class TestEngineParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            EngineParams(eta=1.2)
        with pytest.raises(ValueError):
            EngineParams(theta=1.0)
        with pytest.raises(ValueError):
            EngineParams(delta=-0.1)

    @pytest.mark.parametrize("name", ["eta", "theta", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError):
            EngineParams(**{name: value})

    def test_delta_whose_regret_exp_overflows_rejected(self):
        with pytest.raises(ValueError, match="delta 1000 is too large"):
            EngineParams(delta=1000)
        with pytest.raises(ValueError, match="is too large"):
            EngineParams(delta=math.nextafter(engine.MAX_DELTA, math.inf))
        assert EngineParams(delta=engine.MAX_DELTA).delta == math.log(sys.float_info.max)


GOLDEN = EngineParams(eta=0.6, theta=0.88, delta=0.3)
GOLDEN_CFG = LevelConfig(kappa=1.0, sigma=0.7)


class TestRunLevel:
    """One level through ``run_sequential``; the empty universe goes to
    ``run_level`` itself, which the loop never calls with one."""

    def test_reference_case_first_level(self, sle_table):
        report = run_sequential(sle_table, [GOLDEN_CFG], GOLDEN)
        (level,) = report.levels
        assert level.z == ("a2",)
        regions = level_regions(report, level)
        assert regions["POS"] == {"x2"}
        assert regions["NEG"] == {"x1", "x5", "x6"}
        assert regions["BND"] == {"x3", "x4", "x7", "x8"}

    def test_single_alternative_no_regret_with_delta_zero(self):
        t = make_table("E1", 1.0, ["x"], ["a"], [[single(1, 0)]], S33)
        attrs = [attr("a", 1.0)]
        report = run_sequential(scored([t], attrs), [GOLDEN_CFG],
                                EngineParams(eta=0.6, theta=0.88, delta=0.0))
        (level,) = report.levels
        assert level.rows.tolist() == [0]
        assert level.region.tolist()[0] in (POS, BND, NEG)
        from s3wgdm.linguistic import superior_gradus
        from s3wgdm.reference import utility
        b = superior_gradus(single(1, 0), S33)
        assert level.utilities[0, CELLS.index("pp")] == pytest.approx(utility(b, 0.88),
                                                                      abs=1e-12)

    def test_duplicated_rows_share_region(self):
        rng = random.Random(41)
        for _ in range(10):
            cellrow = [single(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2)]
            other = [single(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2)]
            t = make_table("E1", 1.0, ["x1", "x2", "x3"], ["a1", "a2"],
                           [cellrow, other, cellrow], S33)
            attrs = [attr("a1", 0.5), attr("a2", 0.5)]  # tied, so Z1 holds both
            report = run_sequential(scored([t], attrs),
                                    [LevelConfig(kappa=rng.random(), sigma=0.7)], GOLDEN)
            (level,) = report.levels
            assert level.z == ("a1", "a2")
            region = per_id(report, level, level.region)
            assert region["x1"] == region["x3"]

    def test_empty_universe_rejected(self, sle_table):
        with pytest.raises(ValueError):
            run_group(np.arange(0), sle_table, 1, [GOLDEN_CFG], [GOLDEN], [0], [0])

    def test_loop_calls_run_level_once_per_level(self, sle_table, sle_params,
                                                 monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return run_level(*args, **kwargs)

        monkeypatch.setattr(engine, "run_level", recording)
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        assert len(report.levels) == 4
        assert [args[0].tolist() for args in calls] == \
            [level.rows.tolist() for level in report.levels]
        assert calls[0][0].tolist() == list(range(8))


class TestRunSequential:
    def test_reference_case_trajectory(self, sle_table, sle_params):
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        levels = {lvl.index: level_regions(report, lvl) for lvl in report.levels}
        assert levels[1]["POS"] == {"x2"}
        assert levels[1]["NEG"] == {"x1", "x5", "x6"}
        assert levels[2]["NEG"] == {"x8"} and not levels[2]["POS"]
        assert levels[3]["POS"] == {"x4"} and not levels[3]["NEG"]
        assert levels[4]["BND"] == {"x3", "x7"}
        assert report.regions_after(4)["BND"] == ["x3", "x7"]
        exits = exit_levels(report)
        assert exits["x2"] == 1
        assert exits["x8"] == 2
        assert exits["x4"] == 3
        assert exits["x3"] == 4

    def test_single_level_is_plain_three_way(self, sle_case, sle_table):
        report = run_sequential(sle_table, [GOLDEN_CFG], GOLDEN)
        assert len(report.levels) == 1
        regions = report.regions_after(1)
        assert sorted(sum(regions.values(), [])) == sorted(sle_case.alternatives)

    def test_universe_shrinks(self):
        rng = random.Random(43)
        for _ in range(20):
            tables, attrs = random_case(rng)
            from s3wgdm.tables import build_nested_subsets
            k = len(build_nested_subsets(attrs))
            levels = [LevelConfig(kappa=0.9, sigma=0.7)] * k
            report = run_sequential(scored(tables, attrs), levels, GOLDEN)
            sizes = [len(lvl.rows) for lvl in report.levels]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            for earlier, later in zip(report.levels, report.levels[1:]):
                assert set(universe(report, later)) == level_regions(report, earlier)["BND"]
            check_regions_and_ranking(report, tables, attrs, levels)

    def test_duplicates_share_granule_at_full_cut(self):
        # x1 and x3 fuse to the same subscripts (x3's hesitant cell has the
        # same mean), so their score gap is exactly 0 and their similarity
        # exactly 1.0: at kappa = 1 they form one granule of size 2
        rows_e1 = [[single(1, 0), single(-1, 2)],
                   [single(0, 1), single(2, -1)],
                   [DHHFLE([DHLT(0, 0), DHLT(2, 0)]), single(-1, 2)]]
        rows_e2 = [[single(-2, 1), single(0, 0)],
                   [single(3, -3), single(1, 1)],
                   [single(-2, 1), single(0, 0)]]
        alts, ids = ["x1", "x2", "x3"], ["a1", "a2"]
        tables = [make_table("E1", 0.4, alts, ids, rows_e1, S33),
                  make_table("E2", 0.6, alts, ids, rows_e2, S33)]
        attrs = [attr("a1", 0.6), attr("a2", 0.4)]
        report = run_sequential(scored(tables, attrs),
                                [LevelConfig(kappa=1.0, sigma=0.7)], GOLDEN)
        level = report.levels[0]
        assert per_id(report, level, level.sizes) == {"x1": 2, "x2": 1, "x3": 2}
        pr, region = per_id(report, level, level.pr), per_id(report, level, level.region)
        assert pr["x1"] == pr["x3"]
        assert region["x1"] == region["x3"]

    def test_empty_case_rejected(self):
        attrs = [attr("a", 1.0)]
        table = scored([make_table("E1", 1.0, [], ["a"], [], S33)], attrs)
        with pytest.raises(ValueError, match="no alternatives"):
            run_sequential(table, [GOLDEN_CFG], GOLDEN)

    def test_no_levels_rejected(self, sle_table):
        with pytest.raises(ValueError, match="^no level configuration$"):
            run_sequential(sle_table, [], GOLDEN)

    def test_too_many_levels_rejected(self, sle_table):
        levels = [GOLDEN_CFG] * 7
        with pytest.raises(ValueError):
            run_sequential(sle_table, levels, GOLDEN)

    @pytest.mark.parametrize("error, wrapped, code", [
        (ValueError("bad level input"), ValueError, 1),
        (KeyError("lost"), RuntimeError, 2),
    ])
    def test_level_failure_names_its_level(self, monkeypatch, capsys, sle_table,
                                           sle_params, sle_case_path, sle_params_path,
                                           error, wrapped, code):
        """A ValueError inside a level stays an input problem (exit 1) and
        names the level; any other failure is a runtime error (exit 2)."""
        real = engine.run_level

        def failing_at_level_2(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "run_level", failing_at_level_2)
        calls = []
        with pytest.raises(wrapped, match="^decision level 2") as info:
            run_sequential(sle_table, sle_params.levels, sle_params.params)
        assert type(info.value) is wrapped and info.value.__cause__ is error
        if wrapped is ValueError:
            assert str(info.value) == "decision level 2: bad level input"
        calls = []
        assert cli.main(["decide", "--case", sle_case_path, "--params", sle_params_path]) == code
        assert "decision level 2" in capsys.readouterr().err

    def test_monotonicity_enforced_and_overridable(self, sle_table):
        levels = [LevelConfig(0.9, 0.7), LevelConfig(0.5, 0.7)]
        with pytest.raises(ValueError):
            run_sequential(sle_table, levels, GOLDEN)
        run_sequential(sle_table, levels, GOLDEN,
                       monotonicity_override=True)


class TestWalk:
    @pytest.mark.parametrize("bad, message", [
        ((LevelConfig(0.9, 0.7), LevelConfig(0.5, 0.7)), "^cut thresholds must be"),
        ((GOLDEN_CFG,) * 7, "^7 levels configured but only 4 nested subsets exist$"),
        ((GOLDEN_CFG,) * 3, "^level configurations differ in length: 3 against 2$"),
    ], ids=["non-monotone", "too-many-levels", "unequal-lengths"])
    def test_configurations_checked_before_any_level(self, monkeypatch, sle_table, bad,
                                                     message):
        """A later point's bad configuration is raised before any level
        runs, even though the earlier points' configuration is sound."""
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return run_level(*args, **kwargs)

        monkeypatch.setattr(engine, "run_level", recording)
        good = (GOLDEN_CFG, GOLDEN_CFG)
        with pytest.raises(ValueError, match=message):
            list(engine.walk(sle_table, [good, bad], [GOLDEN], [0, 0, 1, 0], [0, 0, 0, 0]))
        assert calls == []
        # a configuration no point uses is not checked
        assert [i for i, _, _ in engine.walk(sle_table, [good, bad], [GOLDEN],
                                             [0, 0], [0, 0])] == [1, 2]
        assert len(calls) == 2

    def test_first_bad_configuration_in_point_order_is_raised(self, sle_table):
        non_monotone = (LevelConfig(0.9, 0.7), LevelConfig(0.5, 0.7))
        longer = (GOLDEN_CFG,) * 3
        configs = [(GOLDEN_CFG,) * 2, non_monotone, longer]
        with pytest.raises(ValueError, match="^level configurations differ"):
            list(engine.walk(sle_table, configs, [GOLDEN], [0, 2, 1], [0, 0, 0]))
        with pytest.raises(ValueError, match="^cut thresholds must be"):
            list(engine.walk(sle_table, configs, [GOLDEN], [0, 1, 2], [0, 0, 0]))


class TestLimbsSplitOnce:
    """The memberships of every level a walk may run are split into limbs
    once per table, in one call, by :meth:`ScoredTable.level`, and every
    run and sweep chunk gathers its rows from that one read-only split."""

    @staticmethod
    def counting_splits(monkeypatch):
        calls = []
        split = engine.membership_parts

        def counting(membership):
            calls.append(membership.shape)
            return split(membership)

        monkeypatch.setattr(engine, "membership_parts", counting)
        return calls

    def test_one_split_per_level_of_a_run(self, monkeypatch, sle_table, sle_params):
        calls = self.counting_splits(monkeypatch)
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        assert len(report.levels) == 4
        assert calls == [(4, 8)]  # every row of the table, for the 4 levels, at once
        run_sequential(sle_table, sle_params.levels, sle_params.params)
        assert len(calls) == 1

    def test_sweep_chunks_share_each_split(self, monkeypatch, sle_table, sle_params):
        configs = [tuple(LevelConfig(kappa=kappa, sigma=c.sigma) for c in sle_params.levels)
                   for kappa in (0.5, 1.0)]
        params = [EngineParams(eta=eta, theta=sle_params.params.theta,
                               delta=sle_params.params.delta) for eta in (0.2, 0.6, 1.0)]
        config_ids, param_ids = np.repeat([0, 1], 3), np.tile([0, 1, 2], 2)
        whole = list(engine.sweep_outcomes(sle_table, configs, params, config_ids, param_ids))
        assert len(whole) == 1
        table = engine.ScoredTable(sle_table.fused, sle_table.attrs)
        calls = self.counting_splits(monkeypatch)
        # two points a chunk: three chunks, each walking the levels its points reach
        monkeypatch.setattr(engine, "SWEEP_CELLS", 2 * len(table.fused.alternatives))
        chunks = list(engine.sweep_outcomes(table, configs, params, config_ids, param_ids))
        assert len(chunks) == 3
        assert calls == [(4, 8)]  # one split for the 4 levels, not one per level or chunk
        for got, want in zip(np.concatenate([c for c, _ in chunks]), whole[0][0]):
            assert np.array_equal(got, want)
        assert np.array_equal(np.concatenate([o for _, o in chunks]), whole[0][1])
        for i in range(1, 5):
            parts = table.level(i)[3]
            assert not parts.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                parts[0, 1] = 0.5


@st.composite
def level_tables(draw):
    """A scored table of 1 to 12 rows and 1 to 6 attributes, whose weights
    take few values, so several attributes often enter one level, and whose
    subscripts are often -tau, tau, 0.0 or -0.0; and how many of its levels
    a walk runs."""
    n = draw(st.one_of(st.just(1), st.integers(1, 12)))
    m = draw(st.one_of(st.just(1), st.integers(1, 6)))
    subscript = st.one_of(st.sampled_from([-3.0, 3.0, 0.0, -0.0]), st.floats(-3.0, 3.0))
    means = draw(st.lists(subscript, min_size=2 * n * m, max_size=2 * n * m))
    raw = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    attrs = [attr(f"a{j}", w / sum(raw)) for j, w in enumerate(raw)]
    fused = FusedDecisionTable(alternatives=tuple(f"x{i}" for i in range(n)),
                               attributes=tuple(a.id for a in attrs),
                               means=np.array(means).reshape(n, m, 2), scale=S33)
    table = engine.ScoredTable(fused, attrs)
    return table, draw(st.integers(1, len(table.subsets)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(level_tables())
def test_levels_found_together_equal_each_level_alone(case):
    """Asking for level ``last`` finds it and every level before it in one
    pass over a (levels, m) weight matrix, and no later level; each level's
    columns, ids, weights and limbs equal those of its own columns alone,
    bit for bit."""
    table, last = case
    fused = table.fused
    splits = []
    split = engine.membership_parts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "membership_parts",
                      lambda membership: splits.append(membership.shape) or split(membership))
        table.level(last)
        found = [table.level(i) for i in range(1, last + 1)]
        assert splits == [(last, len(fused.alternatives))]
    for i, (cols, z, weights, parts) in enumerate(found, start=1):
        want_cols = np.flatnonzero([a in table.subsets[i - 1] for a in fused.attributes])
        want_z = tuple(fused.attributes[j] for j in want_cols)
        renormalized = renormalize_weights(table.attrs, want_z)
        want_weights = [renormalized[a] for a in want_z]
        want = engine.membership_parts(membership_degrees(
            table.phi[:, want_cols], table.varphi[:, want_cols], want_weights, fused.scale))
        assert np.array_equal(cols, want_cols) and z == want_z and weights == want_weights
        assert parts.shape == (len(fused.alternatives), 4) and parts.dtype == want.dtype
        assert parts.tobytes() == want.tobytes()
        assert not parts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            parts[0, 1] = 0.5


class TestRank:
    def test_reference_case_levels_two_and_three(self, sle_table, sle_params):
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        expected = ["x2", "x4", "x7", "x3", "x1", "x5", "x8", "x6"]
        assert rank(report, neg_direction="asc", upto=2) == expected
        assert rank(report, neg_direction="asc", upto=3) == expected

    def test_region_precedence(self, sle_table, sle_params):
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        order = rank(report, neg_direction="asc")
        regions = report.regions_after(len(report.levels))
        region_of = {a: r for r, ids in regions.items() for a in ids}
        seen = [region_of[a] for a in order]
        # accepted block, then deferred, then rejected
        assert seen == sorted(seen, key=("POS", "BND", "NEG").index)

    def test_neg_direction_flips_block(self, sle_table, sle_params):
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        asc = rank(report, neg_direction="asc")
        desc = rank(report, neg_direction="desc")
        assert asc[:4] == desc[:4]
        assert asc[4:] == desc[4:][::-1]

    def test_key_sort_within_single_region(self):
        # one-level run where everything defers: pure key ordering
        t = make_table("E1", 1.0, ["x1", "x2", "x3"], ["a"],
                       [[single(0.5, 0)], [single(0.2, 0)], [single(0.8, 0)]], S33)
        attrs = [attr("a", 1.0)]
        report = run_sequential(scored([t], attrs),
                                [LevelConfig(kappa=0.0, sigma=0.7)],
                                EngineParams(eta=1.0, theta=0.88, delta=0.0))
        level = report.levels[0]
        order = rank(report)
        keys = {a: e[0] for a, e in per_id(report, level, level.expected).items()}
        regions = report.regions_after(1)
        blocks = {r: [a for a in order if a in regions[r]] for r in ("POS", "BND", "NEG")}
        for block in blocks.values():
            assert block == sorted(block, key=lambda a: (-keys[a], a))

    def test_invalid_options(self, sle_table, sle_params):
        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
        with pytest.raises(ValueError):
            rank(report, key="reject")
        with pytest.raises(ValueError):
            rank(report, neg_direction="sideways")


class TestBaseline:
    def test_dominating_row_first(self):
        t = make_table("E1", 1.0, ["lo", "hi"], ["a1", "a2"],
                       [[single(-2, 0), single(-1, 0)],
                        [single(2, 0), single(3, 0)]], S33)
        attrs = [attr("a1", 0.5), attr("a2", 0.5)]
        assert baseline_full_fusion(scored([t], attrs)) == ["hi", "lo"]

    def test_ties_broken_by_id(self):
        row = [single(1, 0), single(0, 0)]
        t = make_table("E1", 1.0, ["b", "a"], ["a1", "a2"], [row, list(row)], S33)
        attrs = [attr("a1", 0.5), attr("a2", 0.5)]
        assert baseline_full_fusion(scored([t], attrs)) == ["a", "b"]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*[st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])] * 2),
                    min_size=1, max_size=6))
    def test_equal_and_signed_zero_scores_keep_the_order(self, rows):
        # ties, zero totals and -0.0 scores: descending by total, then by id,
        # as a sort keyed by (-total, id)
        ids = [f"x{len(rows) - i}" for i in range(len(rows))]
        t = make_table("E1", 1.0, ids, ["a1", "a2"],
                       [[single(0, 0), single(0, 0)] for _ in rows], S33)
        table = scored([t], [attr("a1", 0.5), attr("a2", 0.5)])
        table.scores = np.array(rows)
        for params, theta in ((None, 1.0), (EngineParams(eta=0.6, theta=0.88, delta=0.3), 0.88)):
            total = [0.0 + 0.5 * math.pow(a, theta) + 0.5 * math.pow(b, theta) for a, b in rows]
            want = [a for _, a in sorted(zip(total, ids), key=lambda t: (-t[0], t[1]))]
            assert baseline_full_fusion(table, params) == want

    def test_reference_case_total_order(self, sle_case):
        order = baseline_full_fusion(scored(sle_case.experts, sle_case.attributes))
        assert sorted(order) == sorted(sle_case.alternatives)
        assert len(order) == 8

    def test_single_alternative(self):
        t = make_table("E1", 1.0, ["only"], ["a"], [[single(1, 2)]], S33)
        attrs = [attr("a", 1.0)]
        assert baseline_full_fusion(scored([t], attrs)) == ["only"]


class TestOrderIndependence:
    def test_permuting_alternatives_keeps_regions(self):
        rng = random.Random(47)
        for _ in range(15):
            tables, attrs = random_case(rng, n=rng.randint(3, 8))
            from s3wgdm.tables import build_nested_subsets
            k = len(build_nested_subsets(attrs))
            levels = [LevelConfig(kappa=0.8, sigma=0.7)] * k
            report = run_sequential(scored(tables, attrs), levels, GOLDEN)
            check_regions_and_ranking(report, tables, attrs, levels)
            base = report.regions_after(len(report.levels))

            perm = list(tables[0].alternatives)
            rng.shuffle(perm)
            shuffled = []
            for t in tables:
                idx = [t.alternatives.index(a) for a in perm]
                shuffled.append(make_table(
                    t.expert_id, t.expert_weight, perm, t.attributes,
                    [t.cells[i] for i in idx], S33))
            report2 = run_sequential(scored(shuffled, attrs), levels, GOLDEN)
            assert report2.regions_after(len(report2.levels)) == base


@st.composite
def level_groups(draw):
    """One level of a scored table of 1 to 150 rows, drawn from a smaller
    pool so duplicate rows are common, some moved by up to 1e-8; 1 to 40
    groups, each a universe of 1 to 150 of its rows with 1 to 4 points; and
    the configurations and parameter sets the points draw from, with sigma
    down to 1e-150 and kappa 0, anywhere in [0, 1] or 1.  Level 1 has one
    score column, so its universes of at least ``SORTED_MIN_ROWS`` rows take
    the sorted path; at any level, so do such universes' kappa-0 cuts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 150)), draw(st.integers(1, 4))
    pool = rng.uniform(-3.0, 3.0, (draw(st.integers(1, n)), m, 2))
    means = pool[rng.integers(0, len(pool), n)]
    near = rng.random(n) < draw(st.floats(0.0, 1.0))
    means[near] += rng.uniform(-1e-8, 1e-8, (near.sum(), m, 2))
    fused = FusedDecisionTable(alternatives=tuple(f"x{i}" for i in range(n)),
                               attributes=tuple(f"a{j}" for j in range(m)),
                               means=np.clip(means, -3.0, 3.0), scale=S33)
    weights = np.arange(1, m + 1) / (m * (m + 1) / 2)  # distinct: one attribute per level
    table = engine.ScoredTable(fused, [attr(a, w) for a, w in zip(fused.attributes, weights)])
    index = 1 if draw(st.booleans()) else draw(st.integers(1, m))
    sizes = draw(st.lists(st.one_of(st.integers(1, 20), st.integers(1, 150)),
                          min_size=1, max_size=40))
    universes = [np.sort(rng.choice(n, min(k, n), replace=False)) for k in sizes]
    sigma = st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3), st.just(1e-150))
    kappa = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))
    cfgs = [LevelConfig(kappa=draw(kappa), sigma=draw(sigma))
            for _ in range(draw(st.integers(1, 6)))]
    unit = st.floats(0.01, 0.99)
    params = [EngineParams(eta=draw(unit), theta=draw(unit), delta=draw(st.floats(0.0, 5.0)))
              for _ in range(draw(st.integers(1, 4)))]
    groups = np.repeat(np.arange(len(universes)), rng.integers(1, 5, len(universes)))
    cfg_ids = rng.integers(0, len(cfgs), len(groups))
    param_ids = rng.integers(0, len(params), len(groups))
    return table, index, universes, cfgs, params, groups, cfg_ids, param_ids


def batched(universes):
    """The groups' universes one after another, and their bounds."""
    return np.concatenate(universes), np.cumsum([0] + [len(u) for u in universes])


class TestUses:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.integers(1, 10**6), st.integers(1, 10**4),
           st.integers(0, 2**32 - 1))
    def test_distinct_pairs_and_each_points_pair(self, points, count, groups, seed):
        """The pairs come out distinct and in (group, id) order, and each
        point finds its own, whatever the range of groups and ids."""
        rng = np.random.default_rng(seed)
        group = rng.integers(0, groups, points)
        ids = rng.integers(0, count, points)
        (pair_groups, pair_ids), use = engine._uses(group, ids, count)
        want = sorted(set(zip(group.tolist(), ids.tolist())))
        assert list(zip(pair_groups.tolist(), pair_ids.tolist())) == want
        assert np.array_equal(pair_groups[use], group) and np.array_equal(pair_ids[use], ids)


class TestBatchedLevel:
    """One :func:`run_level` call over many groups, as :func:`engine.walk`
    makes per level, equals each group run alone and the blocked kernel,
    bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(level_groups())
    def test_matches_groups_alone_and_the_kernel(self, case):
        self.check_matches_groups_alone_and_the_kernel(case)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(level_groups(), st.integers(1, 256))
    def test_small_blocks_match_groups_alone(self, case, cells):
        """With blocks of a few cells, universes and their cuts split
        across blocks, and the results stay the same."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighborhood, "BLOCK_CELLS", cells)
            patch.setattr(regret, "BLOCK_CELLS", cells)
            self.check_matches_groups_alone_and_the_kernel(case)

    @staticmethod
    def check_matches_groups_alone_and_the_kernel(case):
        table, index, universes, cfgs, params, groups, cfg_ids, param_ids = case
        rows, bounds = batched(universes)
        level = run_level(rows, table, index, cfgs, params, cfg_ids, param_ids, bounds, groups)
        cols, _, weights, _ = table.level(index)
        membership = membership_degrees(table.phi[:, cols], table.varphi[:, cols], weights,
                                        table.fused.scale)
        for g, rows in enumerate(universes):
            members = np.flatnonzero(groups == g)
            alone = run_group(rows, table, index, cfgs, params, cfg_ids[members],
                              param_ids[members])
            scores = table.scores[rows][:, cols]
            for a, p in enumerate(members.tolist()):
                cells, want = level.cell_point == p, alone.cell_point == a
                assert np.array_equal(level.rows[level.cell_row[cells]], rows)
                for name in ("sizes", "pr", "utilities", "expected", "region"):
                    assert np.array_equal(getattr(level, name)[cells],
                                          getattr(alone, name)[want]), name
                cfg = cfgs[cfg_ids[p]]
                sizes, pr = kernel_granule_statistics(scores, membership[rows],
                                                      cfg.sigma, cfg.kappa)
                assert np.array_equal(level.sizes[cells], sizes)
                assert np.array_equal(level.pr[cells], pr)
