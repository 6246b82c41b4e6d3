import math
import random

import numpy as np
import pytest

from s3wgdm.linguistic import (
    DHHFLE,
    DHLT,
    DHLTScale,
    ScaleRangeError,
    f_scalar,
    linguistic_expected_value,
    single,
)
from s3wgdm.tables import (
    AttributeSpec,
    ExpertDecisionTable,
    FusedDecisionTable,
    NestedSubsets,
    build_nested_subsets,
    check_attribute_weights,
    extract,
    fuse_dhhflmwa,
    make_table,
    orient_to_concept,
    renormalize_weights,
)

S33 = DHLTScale(3, 3)


def attr(aid, w, align=True):
    return AttributeSpec(id=aid, weight=w, kind="cost", align_with_concept=align)


def random_element(rng, max_len=4):
    return DHHFLE([DHLT(rng.uniform(-3, 3), rng.uniform(-3, 3))
                   for _ in range(rng.randint(1, max_len))])


def random_tables(rng, n, m, e):
    alternatives = [f"x{i}" for i in range(1, n + 1)]
    attributes = [f"a{j}" for j in range(1, m + 1)]
    raw = [rng.random() for _ in range(e)]
    total = sum(raw)
    return [
        make_table(f"E{k}", raw[k] / total, alternatives, attributes,
                   [[random_element(rng) for _ in attributes] for _ in alternatives],
                   S33)
        for k in range(e)
    ]


class TestAttributeSpec:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            AttributeSpec(id="a", weight=0.5, kind="price")

    def test_weight_range(self):
        with pytest.raises(ValueError):
            AttributeSpec(id="a", weight=1.5)

    def test_weight_sum(self):
        check_attribute_weights([attr("a", 0.5), attr("b", 0.5)])
        with pytest.raises(ValueError):
            check_attribute_weights([attr("a", 0.5), attr("b", 0.3)])


class TestNestedSubsets:
    def test_reference_weighting(self):
        attrs = [attr("a1", 0.2), attr("a2", 0.3), attr("a3", 0.15),
                 attr("a4", 0.1), attr("a5", 0.1), attr("a6", 0.15)]
        subsets = build_nested_subsets(attrs)
        assert len(subsets) == 4
        assert subsets[0] == {"a2"}
        assert subsets[1] == {"a1", "a2"}
        assert subsets[2] == {"a1", "a2", "a3", "a6"}
        assert subsets[3] == {"a1", "a2", "a3", "a4", "a5", "a6"}

    def test_all_equal_single_level(self):
        attrs = [attr("a", 0.25), attr("b", 0.25), attr("c", 0.25), attr("d", 0.25)]
        subsets = build_nested_subsets(attrs)
        assert len(subsets) == 1
        assert subsets[0] == {"a", "b", "c", "d"}

    def test_distinct_weights_singleton_increments(self):
        attrs = [attr("a", 0.5), attr("b", 0.3), attr("c", 0.2)]
        subsets = build_nested_subsets(attrs)
        assert [sorted(s) for s in subsets.levels] == [["a"], ["a", "b"], ["a", "b", "c"]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_nested_subsets([])

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            NestedSubsets((frozenset({"a"}), frozenset({"a"})))

    def test_final_level_covers_input(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(1, 6)
            raw = [rng.choice([0.1, 0.15, 0.2, 0.25]) for _ in range(m)]
            total = sum(raw)
            attrs = [attr(f"a{j}", raw[j] / total) for j in range(m)]
            subsets = build_nested_subsets(attrs)
            assert subsets[len(subsets) - 1] == {a.id for a in attrs}
            for earlier, later in zip(subsets.levels, subsets.levels[1:]):
                assert earlier < later


class TestExtract:
    def test_column_extraction(self, sle_case):
        table = sle_case.experts[0]
        sub = extract(table, table.alternatives, ["a2"])
        assert sub.attributes == ("a2",)
        assert len(sub.alternatives) == 8
        assert sub.cell("x2", "a2") == single(3, 0)

    def test_identity(self, sle_case):
        table = sle_case.experts[0]
        assert extract(table, table.alternatives, table.attributes) == table

    def test_restriction_commutes(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_tables(rng, 5, 4, 1)[0]
            rows = [a for a in t.alternatives if rng.random() < 0.6] or [t.alternatives[0]]
            cols = [a for a in t.attributes if rng.random() < 0.6] or [t.attributes[0]]
            once = extract(t, rows, cols)
            twice = extract(extract(t, rows, t.attributes), rows, cols)
            assert once == twice

    def test_unknown_ids(self, sle_case):
        with pytest.raises(KeyError):
            extract(sle_case.experts[0], ["nope"], ["a1"])


class TestMeans:
    def test_expected_value_of_every_cell(self):
        (t,) = random_tables(random.Random(5), 4, 3, 1)
        assert t.means.shape == (4, 3, 2)
        for i, row in enumerate(t.cells):
            for j, cell in enumerate(row):
                le = linguistic_expected_value(cell).terms[0]
                assert t.means[i, j].tolist() == [le.phi, le.varphi]

    def test_extract_recomputes(self):
        (t,) = random_tables(random.Random(6), 4, 3, 1)
        sub = extract(t, ["x2", "x4"], ["a3", "a1"])
        assert sub.means.tolist() == t.means[[1, 3]][:, [0, 2]].tolist()

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ExpertDecisionTable(expert_id="E", expert_weight=1.0, alternatives=("x",),
                                attributes=("a",), cells=((single(1),),), scale=S33,
                                means=None)

    def test_every_term_range_checked(self):
        cell = DHHFLE([DHLT(1, 0), DHLT(4, 0)])  # the second term is off the scale
        with pytest.raises(ValueError, match="outside"):
            make_table("E", 1.0, ["x"], ["a"], [[cell]], S33)

    def test_first_bad_cell_raises_the_term_check_message(self):
        # values at and just inside the bounds, or (rarely) past them
        good = [0.0, -0.0, 1.5, 3.0, -3.0, 3 + 1e-13, -3 - 1e-13]
        bad = [3 + 1e-11, -4.0, math.nan, math.inf, -math.inf]
        rng = random.Random(12)

        def value():
            return rng.choice(bad if rng.random() < 0.03 else good)

        for _ in range(300):
            rows = [[DHHFLE([DHLT(value(), value())
                             for _ in range(rng.randint(1, 3))])
                     for _ in range(3)] for _ in range(3)]
            want = None
            try:  # every term in row-major, term order
                for row in rows:
                    for cell in row:
                        for t in cell.terms:
                            S33.check(t.phi, t.varphi)
            except ValueError as exc:
                want = str(exc)
            try:
                make_table("E", 1.0, ["x", "y", "z"], ["a", "b", "c"], rows, S33)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want

    def test_shared_element_summed_once(self):
        cell = DHHFLE([DHLT(1, 0), DHLT(2, -1)])
        t = make_table("E", 1.0, ["x", "y"], ["a"], [[cell], [cell]], S33)
        assert cell.summary == (1.5, -0.5, 2.0, 1.0)
        assert t.means.tolist() == [[[1.5, -0.5]], [[1.5, -0.5]]]


class TestFusion:
    def test_weighted_subscript_means(self):
        tables = [
            make_table("E1", 0.5, ["x"], ["a"], [[single(2, 0)]], S33),
            make_table("E2", 0.3, ["x"], ["a"], [[single(-1, 2)]], S33),
            make_table("E3", 0.2, ["x"], ["a"], [[single(1, 0)]], S33),
        ]
        fused = fuse_dhhflmwa(tables)
        assert fused.cell("x", "a") == single(0.9, 0.6)

    def test_single_expert_reduces_to_expected_value(self):
        cell = DHHFLE([DHLT(1, -1), DHLT(1, -2)])
        t = make_table("E1", 1.0, ["x"], ["a"], [[cell]], S33)
        fused = fuse_dhhflmwa([t])
        assert fused.cell("x", "a") == linguistic_expected_value(cell)

    def test_identical_cells_fixed_point(self):
        cell = DHHFLE([DHLT(2, 3), DHLT(0, -3)])
        tables = [make_table(f"E{k}", w, ["x"], ["a"], [[cell]], S33)
                  for k, w in enumerate((0.5, 0.3, 0.2))]
        fused = fuse_dhhflmwa(tables)
        assert fused.cell("x", "a") == linguistic_expected_value(cell)

    def test_weight_sum_violation(self):
        tables = [
            make_table("E1", 0.5, ["x"], ["a"], [[single(0, 0)]], S33),
            make_table("E2", 0.3, ["x"], ["a"], [[single(0, 0)]], S33),
        ]
        with pytest.raises(ValueError):
            fuse_dhhflmwa(tables)

    def test_shape_mismatch(self):
        t1 = make_table("E1", 0.5, ["x"], ["a"], [[single(0, 0)]], S33)
        t2 = make_table("E2", 0.5, ["x", "y"], ["a"],
                        [[single(0, 0)], [single(0, 0)]], S33)
        with pytest.raises(ValueError):
            fuse_dhhflmwa([t1, t2])

    def test_oracle_subscript_means(self):
        # independent per-cell recomputation of the closed form
        rng = random.Random(23)
        for _ in range(50):
            e = rng.randint(1, 4)
            tables = random_tables(rng, 3, 2, e)
            fused = fuse_dhhflmwa(tables)
            for i, alt in enumerate(fused.alternatives):
                for j, a in enumerate(fused.attributes):
                    phi = sum(
                        t.expert_weight
                        * (sum(trm.phi for trm in t.cells[i][j]) / len(t.cells[i][j]))
                        for t in tables)
                    varphi = sum(
                        t.expert_weight
                        * (sum(trm.varphi for trm in t.cells[i][j]) / len(t.cells[i][j]))
                        for t in tables)
                    got = fused.cell(alt, a).terms[0]
                    assert got.phi == pytest.approx(phi, abs=1e-9)
                    assert got.varphi == pytest.approx(varphi, abs=1e-9)

    def test_convex_envelope(self):
        rng = random.Random(29)
        for _ in range(30):
            tables = random_tables(rng, 2, 2, 3)
            fused = fuse_dhhflmwa(tables)
            for i in range(2):
                for j in range(2):
                    les = [linguistic_expected_value(t.cells[i][j]).terms[0]
                           for t in tables]
                    got = fused.cell(fused.alternatives[i], fused.attributes[j]).terms[0]
                    assert min(t.phi for t in les) - 1e-9 <= got.phi <= max(
                        t.phi for t in les) + 1e-9
                    assert min(t.varphi for t in les) - 1e-9 <= got.varphi <= max(
                        t.varphi for t in les) + 1e-9


class TestFusedTable:
    """A directly built table is range-checked with one array test; the
    first bad cell in row-major order names the fault, as ``scale.check``
    words it."""

    def _build(self, means):
        return FusedDecisionTable(alternatives=("x", "y"), attributes=("a", "b"),
                                  means=np.array(means, dtype=float), scale=S33)

    @pytest.mark.parametrize("means, message", [
        ([[[0, 0], [0, math.nan]], [[4, 0], [0, 0]]],
         "second-hierarchy subscript nan outside [-3, 3]"),
        ([[[0, 0], [0, 0]], [[-3.5, 9], [math.nan, 0]]],
         "first-hierarchy subscript -3.5 outside [-3, 3]"),
        ([[[0, 0], [0, 0]], [[0, 0], [math.inf, 0]]],
         "first-hierarchy subscript inf outside [-3, 3]"),
        ([[[3 + 1e-9, 0], [0, 0]], [[0, 0], [0, 0]]],
         "first-hierarchy subscript 3.000000001 outside [-3, 3]"),
    ])
    def test_first_bad_cell_raises(self, means, message):
        with pytest.raises(ScaleRangeError) as info:
            self._build(means)
        assert str(info.value) == message

    def test_scale_edges_accepted(self):
        table = self._build([[[3, -3], [-3, 3]], [[3 + 1e-13, 0], [0, -3 - 1e-13]]])
        assert table.cell("y", "a") == single(3 + 1e-13, 0)


class TestRenormalize:
    def test_pair(self):
        attrs = [attr("a1", 0.2), attr("a2", 0.3), attr("a3", 0.5)]
        assert renormalize_weights(attrs, ["a1", "a2"]) == pytest.approx(
            {"a1": 0.4, "a2": 0.6})

    def test_singleton(self):
        attrs = [attr("a1", 0.2), attr("a2", 0.8)]
        assert renormalize_weights(attrs, ["a1"]) == {"a1": 1.0}

    def test_full_set_unchanged(self):
        attrs = [attr("a1", 0.25), attr("a2", 0.75)]
        out = renormalize_weights(attrs, ["a1", "a2"])
        assert out == pytest.approx({"a1": 0.25, "a2": 0.75})

    def test_scale_invariance(self):
        attrs = [attr("a1", 0.2), attr("a2", 0.3)]
        scaled = [attr("a1", 0.4), attr("a2", 0.6)]
        a = renormalize_weights(attrs, ["a1", "a2"])
        b = renormalize_weights(scaled, ["a1", "a2"])
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-9)

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            renormalize_weights([attr("a1", 1.0)], [])


class TestOrientation:
    def _fused(self, gamma_cell):
        t = make_table("E1", 1.0, ["x"], ["a"], [[gamma_cell]], S33)
        return fuse_dhhflmwa([t])

    def test_aligned_untouched(self, sle_case):
        fused = fuse_dhhflmwa(sle_case.experts)
        out = orient_to_concept(fused, sle_case.attributes)
        assert all(map(np.array_equal, out.subscripts(), fused.subscripts()))

    def test_misaligned_complemented(self):
        fused = self._fused(single(-1.2, 0))  # degree 0.3
        attrs = [attr("a", 1.0, align=False)]
        out = orient_to_concept(fused, attrs)
        term = out.cell("x", "a").terms[0]
        g = f_scalar(term.phi, term.varphi, S33)
        assert g == pytest.approx(0.7, abs=1e-9)

    def test_double_application_restores(self):
        fused = self._fused(single(0.9, -2.1))
        attrs = [attr("a", 1.0, align=False)]
        twice = orient_to_concept(orient_to_concept(fused, attrs), attrs)
        assert all(map(np.array_equal, twice.subscripts(), fused.subscripts()))
