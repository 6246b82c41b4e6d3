import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import neighborhood
from s3wgdm.linguistic import DHLTScale, single, superior_gradus
from s3wgdm.neighborhood import (
    SORTED_MIN_ROWS,
    ConceptMembership,
    NeighborhoodGranule,
    SimilarityMatrix,
    build_similarity_matrix,
    concept_membership,
    conditional_probability,
    cut_granules,
    kernel_granule_statistics,
    kernel_rows,
    kernel_similarity,
    shared_granule_statistics,
    sorted_granule_statistics,
)
from s3wgdm.tables import FusedDecisionTable

S33 = DHLTScale(3, 3)


def fused_from_rows(rows, attributes=None):
    attributes = attributes or [f"a{j+1}" for j in range(len(rows[0]))]
    alternatives = [f"x{i+1}" for i in range(len(rows))]
    return FusedDecisionTable(
        alternatives=tuple(alternatives),
        attributes=tuple(attributes),
        means=np.array([[[c.terms[0].phi, c.terms[0].varphi] for c in row]
                        for row in rows]),
        scale=S33,
    )


class TestKernel:
    def test_identical_rows(self):
        row = [single(1, 0.5), single(-2, 1)]
        assert kernel_similarity(row, row, S33, 0.7) == 1.0

    def test_closed_form_span(self):
        # score gap of exactly 1 at sigma = 0.7
        k = kernel_similarity([single(3, 0)], [single(-3, 0)], S33, 0.7)
        assert k == pytest.approx(math.exp(-1 / 0.98), abs=1e-12)
        assert k == pytest.approx(0.3604477886, abs=1e-9)

    def test_sigma_monotone(self):
        a = [single(1, 0)]
        b = [single(-1, 2)]
        assert kernel_similarity(a, b, S33, 0.5) <= kernel_similarity(a, b, S33, 0.7)

    def test_sigma_positive_required(self):
        with pytest.raises(ValueError):
            kernel_similarity([single(0, 0)], [single(0, 0)], S33, 0.0)


class TestSimilarityMatrix:
    def test_single_row(self):
        fused = fused_from_rows([[single(1, 1)]])
        sim = build_similarity_matrix(fused, fused.attributes, 0.7)
        assert sim.values.shape == (1, 1)
        assert sim.values[0, 0] == 1.0

    def test_symmetry_and_diagonal(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 7)
            rows = [[single(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
                    for _ in range(n)]
            sim = build_similarity_matrix(fused_from_rows(rows), ["a1", "a2", "a3"], 0.7)
            assert np.allclose(sim.values, sim.values.T, atol=1e-12)
            assert np.allclose(np.diag(sim.values), 1.0)
            assert (sim.values >= 0).all() and (sim.values <= 1).all()

    def test_duplicate_rows_fully_similar(self):
        row = [single(0.3, -1), single(2, 2)]
        sim = build_similarity_matrix(fused_from_rows([row, list(row)]),
                                      ["a1", "a2"], 0.7)
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-12)


class TestGranules:
    def _random_similarity(self, rng, n):
        m = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = rng.random()
        return SimilarityMatrix(ids=tuple(f"x{i}" for i in range(n)), values=m, sigma=0.7)

    def test_vacuous_cut(self):
        rng = random.Random(1)
        sim = self._random_similarity(rng, 5)
        for g in cut_granules(sim, 0.0):
            assert g.members == frozenset(sim.ids)

    def test_strict_cut_singletons(self):
        rng = random.Random(2)
        sim = self._random_similarity(rng, 5)
        for g in cut_granules(sim, 1.0):
            assert g.members == {g.center}

    def test_nesting(self):
        rng = random.Random(3)
        for _ in range(25):
            sim = self._random_similarity(rng, rng.randint(2, 8))
            k1, k2 = sorted((rng.random(), rng.random()))
            coarse = {g.center: g.members for g in cut_granules(sim, k1)}
            fine = {g.center: g.members for g in cut_granules(sim, k2)}
            for center in coarse:
                assert fine[center] <= coarse[center]

    def test_kappa_range(self):
        sim = self._random_similarity(random.Random(4), 3)
        with pytest.raises(ValueError):
            cut_granules(sim, 1.5)

    def test_center_membership_enforced(self):
        with pytest.raises(ValueError):
            NeighborhoodGranule(center="x", members=frozenset({"y"}), kappa=0.5)


class TestMembership:
    def test_single_attribute_is_cell_score(self):
        cell = single(1.2, -0.3)
        fused = fused_from_rows([[cell]])
        out = concept_membership(fused, ["a1"], {"a1": 1.0})
        assert out["x1"] == pytest.approx(superior_gradus(cell, S33), abs=1e-12)

    def test_scores_clipped_to_unit_interval(self):
        fused = fused_from_rows([[single(3, 3)], [single(-3, -3)]])
        out = concept_membership(fused, ["a1"], {"a1": 1.0})
        assert out["x1"] == 1.0
        assert out["x2"] == 0.0

    def test_weighted_term_averaging(self):
        # two attributes combine subscripts before scoring
        fused = fused_from_rows([[single(2, 1), single(-1, 0)]])
        out = concept_membership(fused, ["a1", "a2"], {"a1": 0.5, "a2": 0.5})
        expected = superior_gradus(single(0.5, 0.5), S33)
        assert out["x1"] == pytest.approx(expected, abs=1e-12)

    def test_weights_must_cover_and_sum(self):
        fused = fused_from_rows([[single(0, 0), single(1, 0)]])
        with pytest.raises(KeyError):
            concept_membership(fused, ["a1", "a2"], {"a1": 1.0})
        with pytest.raises(ValueError):
            concept_membership(fused, ["a1", "a2"], {"a1": 0.3, "a2": 0.3})

    def test_values_in_unit_interval(self):
        rng = random.Random(6)
        for _ in range(50):
            m = rng.randint(1, 4)
            rows = [[single(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(m)]
                    for _ in range(rng.randint(1, 5))]
            attrs = [f"a{j+1}" for j in range(m)]
            raw = [rng.random() + 0.05 for _ in range(m)]
            weights = {a: w / sum(raw) for a, w in zip(attrs, raw)}
            fused = fused_from_rows(rows, attrs)
            out = concept_membership(fused, attrs, weights)
            for alt in fused.alternatives:
                assert 0.0 <= out[alt] <= 1.0


class TestConditionalProbability:
    def test_singleton(self):
        granule = NeighborhoodGranule(center="x", members=frozenset({"x"}), kappa=1.0)
        membership = ConceptMembership(degrees={"x": 0.42})
        assert conditional_probability(granule, membership) == pytest.approx(0.42)

    def test_three_member_mean(self):
        granule = NeighborhoodGranule(
            center="x1", members=frozenset({"x1", "x3", "x5"}), kappa=0.5)
        membership = ConceptMembership(degrees={"x1": 0.2, "x3": 0.5, "x5": 0.8})
        assert conditional_probability(granule, membership) == pytest.approx(0.5)

    def test_saturation(self):
        granule = NeighborhoodGranule(
            center="x1", members=frozenset({"x1", "x2"}), kappa=0.0)
        membership = ConceptMembership(degrees={"x1": 1.0, "x2": 1.0})
        assert conditional_probability(granule, membership) == 1.0

    def test_within_member_envelope(self):
        rng = random.Random(9)
        for _ in range(50):
            ids = [f"x{i}" for i in range(rng.randint(1, 6))] or ["x0"]
            degrees = {i: rng.random() for i in ids}
            granule = NeighborhoodGranule(
                center=ids[0], members=frozenset(ids), kappa=0.0)
            pr = conditional_probability(granule, ConceptMembership(degrees=degrees))
            assert min(degrees.values()) - 1e-12 <= pr <= max(degrees.values()) + 1e-12


def one_universe(k, uses):
    """The bounds and uses of one universe of ``k`` rows that uses each of
    ``uses`` cuts or parameter sets once, in order."""
    return np.array([0, k]), (np.zeros(uses, dtype=np.intp), np.arange(uses))


def per_cut(scores, membership, cuts):
    """:func:`shared_granule_statistics` of one universe, all rows, as
    (cuts, rows) arrays in ``cuts`` order."""
    sizes, pr, first = shared_granule_statistics(scores, membership, cuts, *one_universe(
        len(scores), len(cuts)))
    at = first[:, None] + np.arange(len(scores))
    return sizes[at], pr[at]


@st.composite
def one_column(draw):
    """A score column with repeated values and near-duplicates within 1e-8,
    its memberships, sigma and a kappa in (0, 1], the sorted path's domain."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random(draw(st.integers(1, n)))
    values = pool[rng.integers(0, len(pool), n)]
    near = rng.random(n) < draw(st.floats(0.0, 1.0))
    values[near] += rng.uniform(-1e-8, 1e-8, near.sum())
    membership = rng.random(n)
    membership[rng.random(n) < 0.2] = 1.0
    sigma = draw(st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3), st.just(1e-150)))
    kappa = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)))
    return values, membership, sigma, kappa


class TestSortedCut:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(one_column())
    def test_matches_blocked_kernel(self, column):
        values, membership, sigma, kappa = column
        sizes, pr = sorted_granule_statistics(values, membership, sigma, kappa)
        ref_sizes, ref_pr = kernel_granule_statistics(values[:, None], membership,
                                                      sigma, kappa)
        assert np.array_equal(sizes, ref_sizes)
        assert np.abs(pr - ref_pr).max() <= 1e-12
        # duplicate rows share one interval, so their probabilities tie exactly
        order = np.argsort(values, kind="stable")
        same = values[order][1:] == values[order][:-1]
        assert np.array_equal(pr[order][1:][same], pr[order][:-1][same])
        # the engine's route: the sorted path for kappa > 0 at size, else the
        # kernel's, whose kappa 0 is the closed form
        on_sorted = len(values) >= SORTED_MIN_ROWS
        for cut, expected in (((sigma, kappa), (sizes, pr) if on_sorted else (ref_sizes, ref_pr)),
                              ((sigma, 0.0), kernel_granule_statistics(values[:, None], membership,
                                                                       sigma, 0.0))):
            chosen = per_cut(values[:, None], membership, [cut])
            assert all(np.array_equal(a[0], b) for a, b in zip(chosen, expected))

    def test_many_columns_stay_on_the_kernel(self):
        rng = np.random.default_rng(3)
        scores, membership = rng.random((200, 2)), rng.random(200)
        for got, ref in zip(per_cut(scores, membership, [(0.7, 0.9)]),
                            kernel_granule_statistics(scores, membership, 0.7, 0.9)):
            assert np.array_equal(got[0], ref)

    def test_sums_hold_at_scale(self):
        # float64 prefix differences would be off by about 1e-12 here
        rng = np.random.default_rng(4)
        values, membership = rng.random(50_000), rng.random(50_000)
        sigma, kappa = 1e-6, 0.9
        sizes, pr = sorted_granule_statistics(values, membership, sigma, kappa)
        rows = rng.choice(len(values), 50, replace=False)
        cut = kernel_rows(values[rows, None], values[:, None], sigma) >= kappa
        for r, members in zip(rows, cut):
            assert sizes[r] == members.sum()
            assert abs(pr[r] - math.fsum(membership[members]) / sizes[r]) <= 1e-12


@st.composite
def universes(draw):
    """Scores of k rows on 1 to 6 columns, drawn from a smaller pool of rows
    so duplicate rows are common, some moved by up to 1e-8; memberships;
    and up to 40 cuts drawn from a few sigmas and kappas, so sigmas and
    kappas repeat and kappa 0 is among them often."""
    k = draw(st.integers(1, SORTED_MIN_ROWS + 16))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random((draw(st.integers(1, k)), m))
    scores = pool[rng.integers(0, len(pool), k)]
    near = rng.random(k) < draw(st.floats(0.0, 1.0))
    scores[near] += rng.uniform(-1e-8, 1e-8, (near.sum(), m))
    membership = rng.random(k)
    membership[rng.random(k) < 0.2] = 1.0
    sigma = st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3), st.just(0.7))
    kappa = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0))
    sigmas = draw(st.lists(sigma, min_size=1, max_size=6))
    kappas = draw(st.lists(kappa, min_size=1, max_size=6))
    cuts = draw(st.lists(st.tuples(st.sampled_from(sigmas), st.sampled_from(kappas)),
                         min_size=1, max_size=40))
    return scores, membership, cuts


class TestSharedCuts:
    """Cuts of one universe computed together, and kappa 0 in closed form,
    give the kernel's sizes and probabilities bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(universes())
    def test_matches_blocked_kernel(self, universe):
        self.check_matches_blocked_kernel(universe)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(universes(), st.integers(1, 256))
    def test_small_blocks_match_blocked_kernel(self, universe, cells):
        """With blocks of a few cells, blocks split the cuts as well as the
        rows, and the statistics stay the kernel's."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighborhood, "BLOCK_CELLS", cells)
            self.check_matches_blocked_kernel(universe)

    @staticmethod
    def check_matches_blocked_kernel(universe):
        scores, membership, cuts = universe
        got_sizes, got_pr = per_cut(scores, membership, cuts)
        assert got_sizes.shape == got_pr.shape == (len(cuts), len(scores))
        for sizes, pr, (sigma, kappa) in zip(got_sizes, got_pr, cuts):
            ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
            assert np.array_equal(sizes, ref_sizes)
            if scores.shape[1] == 1 and len(scores) >= SORTED_MIN_ROWS and kappa > 0.0:
                assert np.abs(pr - ref_pr).max() <= 1e-12  # the sorted path
            else:
                assert np.array_equal(pr, ref_pr)
            single = per_cut(scores, membership, [(sigma, kappa)])
            assert np.array_equal(single[0][0], sizes) and np.array_equal(single[1][0], pr)

    @pytest.mark.parametrize("k", [1000, 1023, 1025, 4097])
    def test_kappa_zero_at_size(self, k):
        # the closed form's 1-D sum equals the kernel's 2-D row sums here too
        rng = np.random.default_rng(k)
        scores, membership = rng.random((k, 2)), rng.random(k)
        ((sizes,), (pr,)) = per_cut(scores, membership, [(0.7, 0.0)])
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, 0.7, 0.0)
        assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)

    @pytest.mark.parametrize("seed", range(20))
    def test_kappa_zero_on_one_column(self, seed):
        """A kappa-0 cut takes the closed form before one score column takes
        the sorted path, so it stays the kernel's bit for bit there too."""
        rng = np.random.default_rng(seed)
        k = rng.integers(SORTED_MIN_ROWS, 400)
        scores, membership = rng.random((k, 1)), rng.random(k)
        (sizes, cut_sizes), (pr, cut_pr) = per_cut(
            scores, membership, [(0.7, 0.0), (0.7, 0.9)])
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, 0.7, 0.0)
        assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)
        sorted_sizes, sorted_pr = sorted_granule_statistics(scores[:, 0], membership, 0.7, 0.9)
        assert np.array_equal(cut_sizes, sorted_sizes) and np.array_equal(cut_pr, sorted_pr)

    def test_cut_threshold_checked(self):
        with pytest.raises(ValueError, match="outside"):
            shared_granule_statistics(np.zeros((2, 2)), np.zeros(2), [(0.7, 0.5), (0.7, 1.5)],
                                      *one_universe(2, 2))
