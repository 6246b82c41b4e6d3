import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from s3wgdm import neighborhood
from s3wgdm.linguistic import DHLTScale, superior_gradus, superior_gradus_array
from s3wgdm.neighborhood import (
    MAX_ROWS,
    SORTED_MIN_ROWS,
    cut_thresholds,
    granule_means,
    kernel_rows,
    membership_degrees,
    membership_parts,
    shared_granule_statistics,
    sorted_granule_statistics,
)
from s3wgdm.reference import (
    ConceptMembership,
    NeighborhoodGranule,
    SimilarityMatrix,
    build_similarity_matrix,
    concept_membership,
    conditional_probability,
    cut_granules,
    kernel_granule_statistics,
    kernel_similarity,
    single,
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
    sizes, pr, first = shared_granule_statistics(scores, membership_parts(membership), cuts,
                                                 *one_universe(len(scores), len(cuts)))
    at = first[:, None] + np.arange(len(scores))
    return sizes[at], pr[at]


def sorted_calls(scores, membership, cuts):
    """:func:`per_cut`, with the number of cuts of each call the engine
    makes to :func:`sorted_granule_statistics`."""
    calls = []
    sorted_path = neighborhood.sorted_granule_statistics

    def counting(values, parts, limits):
        calls.append(len(limits))
        return sorted_path(values, parts, limits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighborhood, "sorted_granule_statistics", counting)
        return calls, per_cut(scores, membership, cuts)


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


@st.composite
def cut_columns(draw):
    """Scores of 1 to 200 rows drawn from a smaller pool, so duplicate
    scores are common, some moved by up to 1e-8; memberships; and 1 to 30
    cuts drawn from a few sigmas and kappas 0, random or 1, so T* repeats.
    One column at any kappa, or 2 to 6 columns with every kappa 0, where
    granules are intervals of column 0."""
    n = draw(st.integers(1, 200))
    m = draw(st.sampled_from([1, 1, 2, 3, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random((draw(st.integers(1, n)), m))
    scores = pool[rng.integers(0, len(pool), n)]
    near = rng.random(n) < draw(st.floats(0.0, 1.0))
    scores[near] += rng.uniform(-1e-8, 1e-8, (near.sum(), m))
    membership = rng.random(n)
    membership[rng.random(n) < 0.2] = 1.0
    sigmas = draw(st.lists(st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3)),
                           min_size=1, max_size=4))
    kappa = st.just(0.0) if m > 1 else st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                                  st.just(1.0))
    kappas = draw(st.lists(kappa, min_size=1, max_size=4))
    cuts = draw(st.lists(st.tuples(st.sampled_from(sigmas), st.sampled_from(kappas)),
                         min_size=1, max_size=30))
    return scores, membership, cuts


class TestSortedCut:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(one_column())
    def test_matches_blocked_kernel(self, column):
        values, membership, sigma, kappa = column
        sizes, pr = granule_means(sorted_granule_statistics(
            values, membership_parts(membership), cut_thresholds([(sigma, kappa)]))[0])
        ref_sizes, ref_pr = kernel_granule_statistics(values[:, None], membership,
                                                      sigma, kappa)
        assert np.array_equal(sizes, ref_sizes)
        assert np.array_equal(pr, ref_pr)
        # duplicate rows share one interval, so their probabilities tie exactly
        order = np.argsort(values, kind="stable")
        same = values[order][1:] == values[order][:-1]
        assert np.array_equal(pr[order][1:][same], pr[order][:-1][same])
        # the engine's route, the sorted path at size (kappa 0 among it), else
        # the blocked pass, gives the same
        for cut, expected in (((sigma, kappa), (ref_sizes, ref_pr)),
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
        # plain float64 prefix differences would be off by about 1e-12 here;
        # prefix sums of the limbs are exact
        rng = np.random.default_rng(4)
        values, membership = rng.random(50_000), rng.random(50_000)
        sigma, kappa = 1e-6, 0.9
        sizes, pr = granule_means(sorted_granule_statistics(
            values, membership_parts(membership), cut_thresholds([(sigma, kappa)]))[0])
        rows = rng.choice(len(values), 50, replace=False)
        cut = kernel_rows(values[rows, None], values[:, None], sigma) >= kappa
        for r, members in zip(rows, cut):
            assert sizes[r] == members.sum()
            assert pr[r] == math.fsum(membership[members]) / sizes[r]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cut_columns())
    def test_many_cuts_sorted_once(self, column):
        """One call over 1 to 30 cuts, T* repeated among them, gives bit for
        bit what the sorted path gives at each cut alone and what the
        kernel gives; at kappa 0 on several columns, column 0 alone."""
        scores, membership, cuts = column
        parts, limits = membership_parts(membership), cut_thresholds(cuts)
        together = sorted_granule_statistics(scores[:, 0], parts, limits)
        assert together.shape == (len(cuts), len(scores), 4)
        for i, (sigma, kappa) in enumerate(cuts):
            alone = sorted_granule_statistics(scores[:, 0], parts, limits[i:i + 1])
            assert np.array_equal(together[i], alone[0])
            sizes, pr = granule_means(together[i])
            ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
            assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)


class TestCutThresholds:
    """T*(sigma, kappa) is the last double on which the kernel's predicate
    holds."""

    SIGMAS = (1e-150, 1e-8, 0.1, 0.7, 10.0, 1e150)
    KAPPAS = (5e-324, 1e-300, 0.5, 0.9, 1 - 1e-12, 1.0)

    def test_predicate_holds_up_to_the_threshold(self):
        """The predicate, in the arithmetic of :func:`kernel_rows`, holds on
        T* and the 1,024 doubles below it and fails on the 1,024 above, for
        every cut of one call searched together."""
        cuts = [(sigma, kappa) for sigma in self.SIGMAS for kappa in self.KAPPAS]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighborhood, "_THRESHOLDS", {})
            limits = cut_thresholds(cuts)
        for (sigma, kappa), limit in zip(cuts, limits):
            at = limit.view(np.int64)
            bits = np.arange(max(at - 1024, 0), at + 1025)
            sim = np.negative(bits.view(np.float64))
            with np.errstate(over="ignore"):
                sim /= 2.0 * sigma * sigma
            holds = np.exp(sim, out=sim) >= kappa
            assert np.array_equal(holds, bits <= at), (sigma, kappa)

    def test_kappa_zero_keeps_every_gap(self):
        assert np.all(cut_thresholds([(sigma, 0.0) for sigma in self.SIGMAS]) == math.inf)

    @staticmethod
    def root(target):
        """A double whose rounded square is ``target``, or None."""
        root = math.sqrt(target)
        for g in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            if g * g == target:
                return g
        return None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3)),
           st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)),
           st.sampled_from([-1, 0, 1]), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_pair_on_the_threshold(self, sigma, kappa, ulps, m, seed):
        """One pair's squared gap on T*, one ulp above or one ulp below:
        the live route, the blocked pass at 2 or more columns and the sorted
        path at one, each on one universe alone and on two together (packed
        into one block at 2 or more columns), gives the kernel's sizes and
        probabilities."""
        (limit,) = cut_thresholds([(sigma, kappa)])
        target = limit
        for _ in range(abs(ulps)):
            target = math.nextafter(target, ulps * math.inf)
        gap = self.root(target)
        assume(gap is not None)
        rng = np.random.default_rng(seed)
        k = rng.integers(SORTED_MIN_ROWS, 2 * SORTED_MIN_ROWS) if m == 1 else rng.integers(2, 80)
        scores = rng.uniform(-2.0, 2.0, (k, m)) * gap  # other pairs near the cut too
        scores[0], scores[1] = 0.0, 0.0
        scores[1, 0] = gap
        membership = rng.random(k)
        assert (kernel_rows(scores[:1], scores[1:2], sigma)[0, 0] >= kappa) == (ulps <= 0)
        ((sizes,), (pr,)) = per_cut(scores, membership, [(sigma, kappa)])
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
        assert np.array_equal(sizes, ref_sizes)
        assert np.array_equal(pr, ref_pr)
        sizes, pr, first = shared_granule_statistics(
            np.vstack([scores, scores]), membership_parts(np.tile(membership, 2)), [(sigma, kappa)],
            np.array([0, k, 2 * k]), (np.arange(2), np.zeros(2, dtype=np.intp)))
        for at in first.tolist():
            assert np.array_equal(sizes[at:at + k], ref_sizes)
            assert np.array_equal(pr[at:at + k], ref_pr)


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
    """Cuts of one universe computed together, kappa 0 on the sorted path
    at size and on the blocked pass below it, give the kernel's sizes and
    probabilities bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(universes())
    def test_matches_blocked_kernel(self, universe):
        self.check_matches_blocked_kernel(universe)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(universes(), st.integers(1, 256))
    def test_small_blocks_match_blocked_kernel(self, universe, cells):
        """With blocks of a few cells, a universe takes its rows in steps
        over all of its cuts, and the statistics stay the kernel's."""
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
            assert np.array_equal(pr, ref_pr)
            single = per_cut(scores, membership, [(sigma, kappa)])
            assert np.array_equal(single[0][0], sizes) and np.array_equal(single[1][0], pr)

    @pytest.mark.parametrize("k", [1000, 1023, 1025, 4097])
    def test_kappa_zero_at_size(self, k):
        # on 2 columns at size, kappa 0 takes the sorted path: its prefix-sum
        # differences equal the kernel's matrix product here too
        rng = np.random.default_rng(k)
        scores, membership = rng.random((k, 2)), rng.random(k)
        ((sizes,), (pr,)) = per_cut(scores, membership, [(0.7, 0.0)])
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, 0.7, 0.0)
        assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)

    @pytest.mark.parametrize("seed", range(20))
    def test_kappa_zero_on_one_column(self, seed):
        """A kappa-0 cut and a kappa-0.9 cut of one score column share one
        sort on the sorted path, and each stays bit for bit what the kernel
        and the sorted path at that cut alone give."""
        rng = np.random.default_rng(seed)
        k = rng.integers(SORTED_MIN_ROWS, 400)
        scores, membership = rng.random((k, 1)), rng.random(k)
        (sizes, cut_sizes), (pr, cut_pr) = per_cut(
            scores, membership, [(0.7, 0.0), (0.7, 0.9)])
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, 0.7, 0.0)
        assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)
        sorted_sizes, sorted_pr = granule_means(sorted_granule_statistics(
            scores[:, 0], membership_parts(membership), cut_thresholds([(0.7, 0.9)]))[0])
        assert np.array_equal(cut_sizes, sorted_sizes) and np.array_equal(cut_pr, sorted_pr)

    def test_entries_follow_the_uses(self):
        """Each use's entries follow the uses in their given order, and no
        entry is kept for a (cut, universe) pair that no use names: two
        universes on 2 columns, one of 3 rows at two cuts, one of 4 rows at
        a third, packed into one block."""
        rng = np.random.default_rng(11)
        scores, membership = rng.random((7, 2)), rng.random(7)
        cuts = [(0.7, 0.5), (0.3, 0.9), (1.0, 0.8)]
        sizes, pr, first = shared_granule_statistics(
            scores, membership_parts(membership), cuts, np.array([0, 3, 7]),
            (np.array([0, 0, 1]), np.arange(3)))
        assert first.tolist() == [0, 3, 6] and len(sizes) == len(pr) == 10
        for at, rows, cut in ((0, slice(0, 3), cuts[0]), (3, slice(0, 3), cuts[1]),
                              (6, slice(3, 7), cuts[2])):
            ref_sizes, ref_pr = kernel_granule_statistics(scores[rows], membership[rows], *cut)
            k = len(ref_sizes)
            assert np.array_equal(sizes[at:at + k], ref_sizes)
            assert np.array_equal(pr[at:at + k], ref_pr)

    def test_gaps_once_for_all_cuts(self):
        """A universe too large for one block takes its rows in steps over
        all of its cuts at once: each row's squared gaps are taken once,
        whatever the number of cuts."""
        rng = np.random.default_rng(12)
        scores, membership = rng.random((40, 2)), rng.random(40)
        cuts = [(0.1 * (1 + i), 0.9) for i in range(10)]
        left_rows = []
        squared_gaps = neighborhood.squared_gaps

        def counting(left, right):
            left_rows.append(left.shape[0])
            return squared_gaps(left, right)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighborhood, "BLOCK_CELLS", 256)
            patch.setattr(neighborhood, "squared_gaps", counting)
            got_sizes, got_pr = per_cut(scores, membership, cuts)
        assert sum(left_rows) == 40
        for sizes, pr, (sigma, kappa) in zip(got_sizes, got_pr, cuts):
            ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
            assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("k", [SORTED_MIN_ROWS, 150])
    def test_kappa_zero_takes_the_sorted_path(self, k, m):
        """At kappa 0 every granule is the universe, an interval of score
        column 0 whatever the columns, so a universe of ``SORTED_MIN_ROWS``
        rows or more on 2 to 6 columns takes the sorted path."""
        rng = np.random.default_rng(k * m)
        scores, membership = rng.random((k, m)), rng.random(k)
        calls, (got_sizes, got_pr) = sorted_calls(scores, membership, [(0.7, 0.0)])
        assert calls == [1]
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, 0.7, 0.0)
        assert np.array_equal(got_sizes[0], ref_sizes) and np.array_equal(got_pr[0], ref_pr)

    @pytest.mark.parametrize("m", [1, 3])
    def test_universe_sorted_once(self, m):
        """A universe's interval cuts, here 6 on one column (kappa 0 among
        them) or the kappa-0 cuts of 3 columns, are sorted in one call; on 3
        columns the kappa > 0 cuts take the blocked pass."""
        rng = np.random.default_rng(m)
        k = SORTED_MIN_ROWS + 36  # a universe large enough to sort
        scores, membership = rng.random((k, m)), rng.random(k)
        cuts = [(0.7, 0.9), (0.1, 0.0), (0.7, 0.0), (0.3, 0.5), (0.7, 0.9), (1.0, 1.0)]
        calls, (got_sizes, got_pr) = sorted_calls(scores, membership, cuts)
        assert calls == [6 if m == 1 else 2]
        for sizes, pr, (sigma, kappa) in zip(got_sizes, got_pr, cuts):
            ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
            assert np.array_equal(sizes, ref_sizes) and np.array_equal(pr, ref_pr)

    def test_cut_threshold_checked(self):
        with pytest.raises(ValueError, match="outside"):
            shared_granule_statistics(np.zeros((2, 2)), membership_parts(np.zeros(2)),
                                      [(0.7, 0.5), (0.7, 1.5)], *one_universe(2, 2))


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16])
def test_membership_adds_columns_in_order(m):
    """A row's weighted subscripts are added column by column from 0.0,
    as :func:`concept_membership` adds them, on wide attribute subsets
    too, where numpy's own sum over a contiguous axis takes another order."""
    rng = np.random.default_rng(m)
    for k in (1, 2, 5):
        raw = rng.random(m) + 0.01
        weights = (raw / raw.sum()).tolist()
        # large weighted terms that nearly cancel, so the order of the sum shows
        phi = rng.choice([-1.0, 1.0], (k, m)) * rng.uniform(1e3, 3e3, (k, m))
        phi[:, -1] = (rng.uniform(-1, 1, k) - phi[:, :-1] @ weights[:-1]) / weights[-1]
        varphi = rng.uniform(-3, 3, (k, m))
        mean_phi = sum(w * phi[:, j] for j, w in enumerate(weights))
        mean_varphi = sum(w * varphi[:, j] for j, w in enumerate(weights))
        want = np.clip(superior_gradus_array(mean_phi, mean_varphi, S33), 0.0, 1.0)
        assert np.array_equal(membership_degrees(phi, varphi, weights, S33), want)


class TestMembershipParts:
    """Each membership splits into a count of 1 and three fixed-point limbs
    whose sums are exact; the edge cases are decided rules."""

    def test_zero_and_one(self):
        assert np.array_equal(membership_parts(np.array([0.0, 1.0])),
                              [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        for v in (0.0, 1.0):
            ((sizes,), (pr,)) = per_cut(np.zeros((5, 1)), np.full(5, v), [(0.7, 0.0)])
            assert np.array_equal(sizes, [5] * 5) and np.array_equal(pr, [v] * 5)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(2.0 ** -44, 1.0))
    def test_limbs_hold_a_membership_exactly(self, v):
        """From 2^-44 up, the limbs add back to the membership exactly, in
        order, and each is a whole number of its unit, fewer than 2^32 of
        them (2^32 units of 2^-32 only for a membership of 1)."""
        (count, *limbs), = membership_parts(np.array([v])).tolist()
        assert count == 1.0
        assert limbs[0] + limbs[1] + limbs[2] == math.fsum(limbs) == v
        for limb, scale in zip(limbs, neighborhood.LIMB_SCALES):
            units = limb * scale
            assert units == int(units) and 0 <= units < 2**32 or limb == v == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(5e-324, 2.0 ** -44, exclude_max=True))
    def test_tiny_memberships_drop_bits_below_2_96(self, v):
        """Below 2^-44 a membership counts as its floor multiple of 2^-96:
        5e-324 counts as 0, and 2^-50 exactly."""
        limbs = membership_parts(np.array([v]))[0, 1:].tolist()
        assert math.fsum(limbs) == math.floor(v * 2.0**96) / 2.0**96
        assert v - math.fsum(limbs) < 2.0**-96

    def test_tiny_membership_rule_in_a_granule(self):
        membership = np.array([5e-324, 2.0**-50, 2.0**-50 + 2.0**-100])
        ((sizes,), (pr,)) = per_cut(np.zeros((3, 2)), membership, [(0.7, 1.0)])
        assert np.array_equal(sizes, [3] * 3) and np.array_equal(pr, [2.0**-49 / 3] * 3)

    def test_largest_universe(self):
        """Up to ``MAX_ROWS`` rows every limb sum, at most 2^32 units a row,
        is a whole number of units that float64 holds exactly; one row more
        and it need not be, so a larger universe is refused before any work."""
        assert MAX_ROWS == 2**21
        units = MAX_ROWS * 2**32  # MAX_ROWS memberships of 1
        assert float(units) == units == 2**53
        units = (MAX_ROWS + 1) * (2**32 - 1)  # odd and above 2^53
        assert float(units) != units
        one_row = np.zeros((1, 2)), membership_parts(np.zeros(1)), [(0.7, 0.5)]
        uses = (np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
        with pytest.raises(ValueError, match=f"universe of {MAX_ROWS + 1} alternatives"):
            shared_granule_statistics(*one_row, np.array([0, MAX_ROWS + 1]), uses)


@st.composite
def routed_universe(draw):
    """One universe of k rows on 1 to 6 columns, k on both sides of
    ``SORTED_MIN_ROWS``, drawn from a smaller pool so duplicate rows are
    common; memberships with 0 and 1 among them and, in some universes,
    values from 2^-60 to 2^-12, where the third limb holds bits and, below
    2^-44, drops some; one cut at kappa 0, random or 1; a permutation of
    the rows; and a second universe on the same columns."""
    k = draw(st.one_of(st.integers(1, 20),
                       st.integers(SORTED_MIN_ROWS - 2, 2 * SORTED_MIN_ROWS)))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random((draw(st.integers(1, k)), m))
    scores = pool[rng.integers(0, len(pool), k)]
    membership = rng.random(k)
    membership[rng.random(k) < 0.2] = 1.0
    membership[rng.random(k) < 0.1] = 0.0
    if draw(st.booleans()):
        tiny = rng.random(k) < 0.3
        membership[tiny] = 2.0 ** -rng.uniform(12.0, 60.0, tiny.sum())
    sigma = draw(st.one_of(st.floats(0.05, 1.5), st.floats(1e-150, 1e-3)))
    kappa = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)))
    j = draw(st.integers(1, 2 * SORTED_MIN_ROWS))
    other = rng.random((j, m)), rng.random(j)
    return scores, membership, sigma, kappa, rng.permutation(k), other


class TestEveryRoute:
    """The same universe through the blocked pass alone, the blocked pass
    packed with a second universe, the sorted path (on one column, or on
    column 0 at kappa 0) and the engine's own choice gives the kernel's
    sizes and pr bit for bit, in any row order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(routed_universe())
    def test_routes_agree(self, case):
        scores, membership, sigma, kappa, perm, (other_scores, other_membership) = case
        cut = [(sigma, kappa)]
        k, j = len(scores), len(other_scores)
        ref_sizes, ref_pr = kernel_granule_statistics(scores, membership, sigma, kappa)
        got = {"engine": per_cut(scores, membership, cut)}
        with pytest.MonkeyPatch.context() as patch:
            # every cut off the sorted path, kappa 0 too: the blocked pass,
            # both universes in one block
            patch.setattr(neighborhood, "SORTED_MIN_ROWS", k + j + 1)
            got["alone"] = per_cut(scores, membership, cut)
            sizes, pr, first = shared_granule_statistics(
                np.vstack([other_scores, scores]),
                membership_parts(np.concatenate([other_membership, membership])), cut, np.array([0, j, j + k]), (np.arange(2), np.zeros(2, dtype=np.intp)))
            at = first[1] + np.arange(k)
            got["packed"] = sizes[at][None], pr[at][None]
        if scores.shape[1] == 1 or kappa == 0.0:
            sizes, pr = granule_means(sorted_granule_statistics(
                scores[:, 0], membership_parts(membership), cut_thresholds([(sigma, kappa)]))[0])
            got["sorted"] = sizes[None], pr[None]
        sizes, pr = per_cut(scores[perm], membership[perm], cut)
        got["permuted"] = sizes[:, np.argsort(perm)], pr[:, np.argsort(perm)]
        for route, ((sizes,), (pr,)) in got.items():
            assert np.array_equal(sizes, ref_sizes), route
            assert np.array_equal(pr, ref_pr), route
        # no membership below 2^-12 but 0: the third limb is 0 everywhere and
        # pr is the correctly rounded sum over the size
        if np.all((membership == 0.0) | (membership >= 2.0**-12)):
            members = kernel_rows(scores, scores, sigma) >= kappa
            for r in range(k):
                assert ref_pr[r] == math.fsum(membership[members[r]]) / ref_sizes[r]
