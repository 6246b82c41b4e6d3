import importlib.util
import io
import json
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import caseio
from s3wgdm.caseio import (
    BULK_CELLS,
    CaseFormatError,
    dump_json,
    fused_table_dict,
    load_case,
    load_params,
    validate_case_dict,
    validate_params_dict,
    validate_report_dict,
    write_json,
)
from s3wgdm.linguistic import DHHFLE, DHLT, DHLTScale
from s3wgdm.reference import linguistic_expected_value
from s3wgdm.syntax import CodeBook, _scan_dhhfle, format_term
from s3wgdm.tables import FusedDecisionTable, fuse_dhhflmwa


GEN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def minimal_case(cell="{s_1<o_0>}"):
    return {
        "scale": {"tau": 3, "sigma_scale": 3},
        "alternatives": ["x1"],
        "attributes": [{"id": "a1", "weight": 1.0, "kind": "cost"}],
        "experts": [{"id": "E1", "weight": 1.0, "table": [[cell]]}],
    }


class TestCaseValidation:
    def test_minimal_valid(self):
        case, problems = validate_case_dict(minimal_case())
        assert problems == []
        assert case.n == 1 and case.m == 1 and case.e == 1

    def test_structured_cells(self):
        doc = minimal_case(cell=[{"phi": 1, "varphi": -0.5}, {"phi": 2, "varphi": 0}])
        case, problems = validate_case_dict(doc)
        assert problems == []
        assert case.experts[0].cell("x1", "a1") == DHHFLE(
            [DHLT(1, -0.5), DHLT(2, 0)])

    def test_structured_cell_bad_value_reported(self):
        doc = minimal_case(cell=[{"phi": "wide", "varphi": 0}])
        case, problems = validate_case_dict(doc)
        assert case is None
        assert any("table[0][0]" in p for p in problems)

    def test_non_object_document(self):
        case, problems = validate_case_dict([1, 2])
        assert case is None and problems

    def test_problem_accumulation(self):
        doc = minimal_case()
        doc["attributes"][0]["weight"] = 0.5
        doc["experts"][0]["weight"] = 0.7
        doc["experts"][0]["table"] = [["{s_1<o_9>}"]]
        case, problems = validate_case_dict(doc)
        assert case is None
        assert len(problems) >= 3

    def test_ragged_table(self):
        doc = minimal_case()
        doc["attributes"].append({"id": "a2", "weight": 0.0, "kind": "benefit"})
        doc["attributes"][0]["weight"] = 1.0
        doc["experts"][0]["table"] = [["{s_1<o_0>}"]]  # one cell for two attributes
        case, problems = validate_case_dict(doc)
        assert case is None
        assert any("one cell per attribute" in p for p in problems)

    def test_attribute_weight_null_reported(self):
        doc = minimal_case()
        doc["attributes"][0]["weight"] = None
        case, problems = validate_case_dict(doc)
        assert case is None
        assert any(p.startswith("attributes[0]:") for p in problems)

    @pytest.mark.parametrize("key, value", [
        ("tau", 3.9), ("tau", True), ("sigma_scale", 2.5), ("sigma_scale", False),
        ("tau", "3"), ("tau", math.inf), ("tau", 10 ** 400),
    ], ids=["fraction", "true", "half", "false", "string", "infinity", "huge"])
    def test_scale_needs_whole_numbers(self, key, value):
        doc = minimal_case()
        doc["scale"][key] = value
        case, problems = validate_case_dict(doc)
        assert case is None
        assert any(p.startswith("scale:") for p in problems)

    def test_integral_float_scale_accepted(self):
        doc = minimal_case()
        doc["scale"] = {"tau": 3.0, "sigma_scale": 3.0}
        case, problems = validate_case_dict(doc)
        assert problems == []
        assert (case.scale.tau, case.scale.sigma_scale) == (3, 3)

    @pytest.mark.parametrize("alternatives, want", [
        ("x1", ["'alternatives' must be a non-empty list of ids"]),
        ([], ["'alternatives' must be a non-empty list of ids"]),
        (["x1", "x1"], ["alternative ids are not unique",
                        "experts[0]: table must have one row per alternative"]),
    ], ids=["not-a-list", "empty", "repeated"])
    def test_empty_table_under_bad_alternatives(self, alternatives, want):
        doc = minimal_case()
        doc["alternatives"] = alternatives
        doc["experts"][0]["table"] = []
        case, problems = validate_case_dict(doc)
        assert case is None
        assert problems == want

    @pytest.mark.parametrize("table, more", [
        ([["{s_1<o_0>}"]], []),
        ([["{s_9<o_0>}"]], ["experts[0].table[0][0]: first-hierarchy subscript 9.0 "
                            "outside [-3, 3]"]),
        ([["{s_1<o_0>}", "{s_1<o_0>}"]], ["experts[0]: row 0 must have one cell per attribute"]),
    ], ids=["valid", "bad-cell", "misshapen"])
    @pytest.mark.parametrize("alternatives", ["x1", [], [5], None, ...],
                             ids=["not-a-list", "empty", "number-id", "null", "missing"])
    def test_one_row_table_under_bad_alternatives(self, alternatives, table, more):
        """Refused alternatives are one problem: no table is also blamed
        for its row count, and each table's shape and cells are still
        checked.  ``...`` stands for a missing key."""
        doc = minimal_case()
        if alternatives is ...:
            del doc["alternatives"]
        else:
            doc["alternatives"] = alternatives
        doc["experts"][0]["table"] = table
        case, problems = validate_case_dict(doc)
        assert case is None
        assert problems == ["'alternatives' must be a non-empty list of ids"] + more

    @pytest.mark.parametrize("value", [{"a": 1}, ["a1"], None, True, 1],
                             ids=["object", "array", "null", "true", "number"])
    @pytest.mark.parametrize("entry", ["attributes", "experts"])
    def test_ids_must_be_strings(self, entry, value):
        doc = minimal_case()
        doc[entry][0]["id"] = value
        case, problems = validate_case_dict(doc)
        assert case is None
        assert problems == [f"{entry}[0]: id must be a string, got {value!r}"]

    @pytest.mark.parametrize("path, where, known", [
        ((), "", "scale, alternatives, attributes, experts"),
        (("scale",), "scale: ", "tau, sigma_scale"),
        (("attributes", 0), "attributes[0]: ", "id, weight, kind, align_with_concept"),
        (("experts", 0), "experts[0]: ", "id, weight, table"),
    ], ids=["top", "scale", "attribute", "expert"])
    def test_unknown_keys_located(self, path, where, known):
        doc = minimal_case()
        entry = doc
        for step in path:
            entry = entry[step]
        entry["align_with_concpt"] = False
        entry["note"] = None
        case, problems = validate_case_dict(doc)
        assert case is None
        assert problems == [f"{where}unknown key {key!r}, expected one of {known}"
                            for key in ("align_with_concpt", "note")]

    @pytest.mark.parametrize("entry, known, needs", [
        ("attributes", "id, weight, kind, align_with_concept", "'id' and 'weight'"),
        ("experts", "id, weight, table", "'id', 'weight' and 'table'"),
    ], ids=["attribute", "expert"])
    def test_unknown_key_listed_before_a_missing_one(self, entry, known, needs):
        doc = minimal_case()
        doc[entry][0]["idd"] = doc[entry][0].pop("id")
        _, problems = validate_case_dict(doc)
        assert problems[:2] == [f"{entry}[0]: unknown key 'idd', expected one of {known}",
                                f"{entry}[0]: needs {needs}"]

    def test_bundled_and_generated_cases_hold_only_known_keys(self, sle_case_path):
        spec = importlib.util.spec_from_file_location("bench_gen", GEN)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        with open(sle_case_path) as fh:
            bundled = json.load(fh)
        for doc in (bundled, gen.case_dict(n=20, m=6, e=3, max_terms=3, seed=1)):
            assert validate_case_dict(doc)[1] == []

    def test_load_reports_json_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(CaseFormatError, match="invalid JSON"):
            load_case(str(bad))


class TestParseOncePerDocument:
    @staticmethod
    def repeated_case(cell, other="{s_0<o_0>}"):
        """Two experts, two alternatives, two attributes; ``cell`` sits at
        three places and ``other`` everywhere else."""
        doc = minimal_case()
        doc["alternatives"] = ["x1", "x2"]
        doc["attributes"] = [{"id": "a1", "weight": 0.5}, {"id": "a2", "weight": 0.5}]
        doc["experts"] = [
            {"id": "E1", "weight": 0.5, "table": [[cell, other], [other, cell]]},
            {"id": "E2", "weight": 0.5, "table": [[other, other], [cell, other]]},
        ]
        return doc

    def test_repeated_bad_cell_reported_at_each_place(self):
        case, problems = validate_case_dict(self.repeated_case("{s_1<o_0>"))
        assert case is None
        bad = [p for p in problems if "expected '}'" in p]
        assert [p.split(":")[0] for p in bad] == [
            "experts[0].table[0][0]", "experts[0].table[1][1]", "experts[1].table[1][0]"]

    def test_repeated_out_of_scale_cell_reported_at_each_place(self):
        _, problems = validate_case_dict(self.repeated_case("{s_4<o_0>}"))
        assert len([p for p in problems if "outside" in p]) == 3

    def test_repeated_good_cell_parsed_once(self, monkeypatch):
        handed_over = []  # the texts each call had to code: new to the book
        code_texts = CodeBook.code_texts

        def counting(book, cells):
            new = [c for c in dict.fromkeys(cells) if c not in book.texts]
            codes = code_texts(book, cells)
            assert codes is not None and all(c in book.texts for c in new)
            handed_over.extend(new)
            return codes

        monkeypatch.setattr(CodeBook, "code_texts", counting)
        case, problems = validate_case_dict(self.repeated_case("{s_2<o_1>,s_1<o_0>}"))
        assert problems == []
        assert sorted(handed_over) == ["{s_0<o_0>}", "{s_2<o_1>,s_1<o_0>}"]
        first, second = case.experts
        assert first.cells[0][0] == first.cells[1][1] == second.cells[1][0]
        assert first.cells[0][0] == DHHFLE([DHLT(2, 1), DHLT(1, 0)])

    def test_next_document_parses_afresh(self, tmp_path):
        # s_4 is on the scale of the first case and off the scale of the next
        wide = self.repeated_case("{s_4<o_0>}")
        wide["scale"] = {"tau": 5, "sigma_scale": 3}
        narrow = self.repeated_case("{s_4<o_0>}")
        paths = []
        for name, doc in (("wide.json", wide), ("narrow.json", narrow)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(doc))
        assert load_case(str(paths[0])).experts[0].cells[0][0] == DHHFLE([DHLT(4, 0)])
        with pytest.raises(CaseFormatError) as err:
            load_case(str(paths[1]))
        assert len([p for p in err.value.problems if "outside" in p]) == 3

    def test_coded_case_keeps_no_texts_and_fusion_keeps_no_means(self):
        """Only coding reads the book's text dictionaries, and fusion reads
        each table's means once: neither is held after its reader."""
        case, _ = validate_case_dict(self.repeated_case("{s_2<o_1>,s_1<o_0>}"))
        book = case.experts[0].book
        assert (book.texts, book._terms) == ({}, {})
        assert case.experts[0].cells[0][0] == DHHFLE([DHLT(2, 1), DHLT(1, 0)])
        fuse_dhhflmwa(case.experts)
        assert not any("means" in vars(table) for table in case.experts)


def spellings(value):
    """Texts of one whole-number subscript that all read as the same float."""
    out = [str(value), f"{value}.0", f"{value}e0", f"{value}."]
    if value >= 0:
        out.append(f"+{value}")
    if value == 0:
        out += ["-0", "-0.0", "-0e0"]
    return out


# subscripts mostly on the smallest scale drawn below, sometimes one past
# it; fractions make the mean depend on the order of summation
number = st.one_of(
    st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 3, 4, -4]).flatmap(
        lambda v: st.sampled_from(spellings(v))),
    st.sampled_from(["0.1", "0.2", "-0.7", "2.35", "-1.15", "1e-1"]))
term = st.builds(lambda p, v: f"s_{p}<o_{v}>", number, number)
canonical = st.lists(term, min_size=1, max_size=3).map(lambda ts: "{" + ",".join(ts) + "}")
# texts that border on the bulk check: two cells in one, joined as the bulk
# pass joins them or by a newline, a NUL that marks a text's first term
# inside, around or at the start of a cell, stray, missing or reversed braces, a missing
# term, and a full-width digit
BULK_BORDER = ["{s_1<o_0>}\n{s_2<o_0>}", "{s_1<o_0>}\0{s_2<o_0>}", "{s_1<o_0>,\0s_2<o_0>}",
               "\0{s_1<o_0>}", "{s_1<o_0>}\0", "{\0s_1<o_0>}", "\0", "{}", "{s_1<o_0>}}",
               "{{s_1<o_0>}", "{s_1<o_0>,}", "", "}s_1<o_0>{", "{s_\uff12<o_0>}"]
cell_raw = st.one_of(
    canonical, canonical, canonical,
    canonical.map(lambda t: t.replace("{", "{ ").replace(",", " ,\n ")),  # the scanner
    canonical.map(lambda t: t[:-1]),  # malformed
    st.lists(st.fixed_dictionaries({"phi": st.integers(-4, 4), "varphi": st.integers(-4, 4)}),
             min_size=1, max_size=2),  # structured
    st.sampled_from([7, [], None, [{"phi": "wide", "varphi": 0}], [{"phi": 1}]]),
    st.sampled_from(BULK_BORDER),
)


@st.composite
def documents(draw):
    """Valid apart from the cells, which repeat texts across experts."""
    pool = draw(st.lists(cell_raw, min_size=1, max_size=5))
    n, m, e = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.sampled_from(pool)
    return {
        "scale": {"tau": 3, "sigma_scale": 3},
        "alternatives": [f"x{i}" for i in range(n)],
        "attributes": [{"id": f"a{j}", "weight": 1 / m} for j in range(m)],
        "experts": [{"id": f"E{k}", "weight": 1 / e,
                     "table": draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                            min_size=n, max_size=n))}
                    for k in range(e)],
    }


def reference_number(item, key):
    """A structured subscript: a JSON number, never a boolean or a string."""
    value = item[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def reference_cell(raw, scale):
    """One cell on its own: the scanner for texts, no caches."""
    if isinstance(raw, str):
        return _scan_dhhfle(raw, scale)
    if isinstance(raw, list) and raw:
        terms = []
        for item in raw:
            if not isinstance(item, dict) or "phi" not in item or "varphi" not in item:
                raise ValueError("structured cells need phi/varphi entries")
            phi, varphi = reference_number(item, "phi"), reference_number(item, "varphi")
            scale.check(phi, varphi)
            terms.append(DHLT(phi, varphi))
        return DHHFLE(terms)
    raise ValueError("cell must be a term string or a non-empty term array")


def reference_ingest(doc):
    """Each expert's cells in row-major order and every cell problem."""
    scale = DHLTScale(doc["scale"]["tau"], doc["scale"]["sigma_scale"])
    tables, problems = [], []
    for k, expert in enumerate(doc["experts"]):
        cells = []
        for i, row in enumerate(expert["table"]):
            for j, raw in enumerate(row):
                try:
                    cells.append(reference_cell(raw, scale))
                except (OverflowError, TypeError, ValueError) as exc:
                    problems.append(f"experts[{k}].table[{i}][{j}]: {exc}")
        tables.append(cells)
    return tables, problems


def bits(cell):
    return [(t.phi.hex(), t.varphi.hex()) for t in cell.terms]


def assert_ingest_matches_reference(doc):
    case, problems = validate_case_dict(doc)
    want_tables, want_problems = reference_ingest(doc)
    assert problems == want_problems
    if problems:
        return
    for table, want in zip(case.experts, want_tables, strict=True):
        assert [bits(c) for row in table.cells for c in row] == [bits(c) for c in want]
        means = [(t.phi, t.varphi) for t in
                 (linguistic_expected_value(c).terms[0] for c in want)]
        assert table.means.tobytes() == np.array(means).reshape(table.means.shape).tobytes()


class TestIngestMatchesCellByCellScan:
    """``validate_case_dict`` builds each distinct term and cell once per
    document; a scan of every cell on its own must give the same cells,
    bit-identical means and the same problems in the same order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(documents())
    def test_random_documents(self, doc):
        assert_ingest_matches_reference(doc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(documents(), st.sampled_from([(4, 4), (4, 3), (2, 3)]))
    def test_next_document_on_another_scale(self, doc, scale):
        other = json.loads(json.dumps(doc))
        other["scale"] = {"tau": scale[0], "sigma_scale": scale[1]}
        assert_ingest_matches_reference(other)
        assert_ingest_matches_reference(doc)

    def test_one_term_spelled_five_ways(self):
        texts = ["{s_1<o_-0>}", "{s_+1<o_0>}", "{s_1.0<o_-0>}", "{s_1e0<o_0>}", "{s_1<o_-0>}"]
        doc = TestParseOncePerDocument.repeated_case(texts[0])
        doc["experts"][0]["table"] = [texts[:2], texts[2:4]]
        doc["experts"][1]["table"] = [texts[4:] + texts[:1], texts[1:3]]
        assert_ingest_matches_reference(doc)
        case, _ = validate_case_dict(doc)
        assert [bits(c) for c in case.experts[0].cells[0]] == [
            [("0x1.0000000000000p+0", "-0x0.0p+0")], [("0x1.0000000000000p+0", "0x0.0p+0")]]

    def test_signed_zeros_in_text_and_structured_cells_of_one_table(self):
        doc = TestParseOncePerDocument.repeated_case("{s_-0<o_+0>}")
        doc["experts"][0]["table"] = [
            ["{s_-0<o_+0>}", [{"phi": -0.0, "varphi": 0.0}]],
            [[{"phi": 0, "varphi": -0.0}, {"phi": 1, "varphi": -1}],
             "{s_+0<o_-0>,s_-0.0<o_0>}"]]
        assert_ingest_matches_reference(doc)
        case, _ = validate_case_dict(doc)
        zero, negative_zero = "0x0.0p+0", "-0x0.0p+0"
        one, minus_one = "0x1.0000000000000p+0", "-0x1.0000000000000p+0"
        assert [bits(c) for row in case.experts[0].cells for c in row] == [
            [(negative_zero, zero)], [(negative_zero, zero)],
            [(zero, negative_zero), (one, minus_one)],
            [(zero, negative_zero), (negative_zero, zero)]]
        # a sum from +0.0 is never -0.0, as Python's sum of the subscripts
        means = case.experts[0].means
        assert means.tolist() == [[[0, 0], [0, 0]], [[0.5, -0.5], [0, 0]]]
        assert not np.signbit(means[means == 0]).any()

    @pytest.mark.parametrize("text", BULK_BORDER)
    def test_border_text_alone_and_beside_a_good_one(self, text):
        # alone, a text is the whole of its bulk pass
        assert_ingest_matches_reference(minimal_case(text))
        doc = TestParseOncePerDocument.repeated_case(text)
        assert_ingest_matches_reference(doc)

    @pytest.mark.parametrize("texts", [("{s_1<o_0>,", "s_2<o_0>}"), ("{", "s_1<o_0>}"),
                                       ("{s_1<o_0>", "}")])
    def test_texts_that_join_into_one_good_element(self, texts):
        # side by side in one bulk pass, joined by its NUL, these two read
        # as the terms of a single cell; each is malformed on its own
        doc = TestParseOncePerDocument.repeated_case(*texts)
        assert_ingest_matches_reference(doc)
        assert len(validate_case_dict(doc)[1]) == 8  # every cell, at its place

    @pytest.mark.parametrize("text", BULK_BORDER)
    def test_refused_list_stores_no_cell(self, text):
        book = CodeBook(DHLTScale(3, 3))
        book.code_texts(["{s_1<o_0>}", "{s_0<o_0>,s_1<o_1>}"])
        texts, cells = dict(book.texts), len(book.means())
        assert book.code_texts(["{s_2<o_0>}", text, "{s_0<o_0>}", "{s_1<o_0>}"]) is None
        assert book.texts == texts and len(book.means()) == cells

    def test_reading_every_cell_joins_the_chunks_once(self, monkeypatch):
        doc, n, m = several_chunks()
        doc["experts"][1]["table"][n // 2][1] = "{ s_1<o_0> }"  # one chunk cell by cell
        case, _ = validate_case_dict(doc)
        joins = []  # the chunk arrays at each join: a join moves the loose cells first
        flush = CodeBook._flush

        def spy(book):
            joins.append(len(book._flat))
            flush(book)

        monkeypatch.setattr(CodeBook, "_flush", spy)
        cells = [c for table in case.experts for row in table.cells for c in row]
        assert [table.means.shape for table in case.experts] == [(n, m, 2)] * 2
        # three bulk chunks per table, the refused one's cells moved in one run
        assert len(cells) == 2 * n * m and joins == [6]
        want_tables, _ = reference_ingest(doc)
        assert [bits(c) for c in cells] == [bits(c) for table in want_tables for c in table]

    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    @pytest.mark.parametrize("cell", ["{s_1<o_0>,s_4<o_0>}", "{s_1<o_0>", "{ s_1<o_0> }"],
                             ids=["off-scale", "malformed", "spaced"])
    def test_table_of_several_chunks_with_one_odd_cell_in_the_last(self, cell, row):
        # the odd cell sits in the first, a middle or the last of three chunks
        good, n, m = several_chunks()
        i = {"first": 0, "middle": n // 2, "last": n - 1}[row]
        odd = json.loads(json.dumps(good))
        odd["experts"][1]["table"][i][1] = cell
        assert_ingest_matches_reference(good)
        assert_ingest_matches_reference(odd)
        good_case, _ = validate_case_dict(good)
        odd_case, problems = validate_case_dict(odd)
        assert len(problems) == (cell != "{ s_1<o_0> }")
        if not problems:  # the per-cell route leaves the other cells' means as they were
            others = np.ones((n, m), dtype=bool)
            others[i, 1] = False
            want, got = good_case.experts[1].means, odd_case.experts[1].means
            assert got[others].tobytes() == want[others].tobytes()

    def test_only_a_refused_chunk_is_read_cell_by_cell(self, monkeypatch):
        doc, _, m = several_chunks()
        table = doc["experts"][1]["table"]
        table[-1][1] = "{ s_1<o_0> }"
        seen = []
        cell_code = caseio._cell_code

        def spy(raw, book):
            seen.append(raw)
            return cell_code(raw, book)

        monkeypatch.setattr(caseio, "_cell_code", spy)
        assert validate_case_dict(doc)[1] == []
        assert seen == [cell for row in table[2 * (BULK_CELLS // m):] for cell in row]

    def test_bad_cell_in_the_first_chunk_and_short_row_in_the_last(self):
        doc, n, m = several_chunks()
        table = doc["experts"][1]["table"]
        table[5][0] = "{s_1<o_0>"
        table[n - 2].pop()
        with pytest.raises(ValueError) as bad_cell:
            _scan_dhhfle("{s_1<o_0>", DHLTScale(3, 3))
        assert validate_case_dict(doc)[1] == [
            f"experts[1].table[5][0]: {bad_cell.value}",
            f"experts[1]: row {n - 2} must have one cell per attribute"]

    def test_non_list_row_inside_the_first_chunk(self):
        # the chunk ends at the first misshapen row, so it never reaches the bulk coder
        doc, n, m = several_chunks()
        doc["experts"][1]["table"][3] = None
        assert validate_case_dict(doc)[1] == [
            "experts[1]: row 3 must have one cell per attribute"]


def several_chunks():
    """A good two-expert document whose tables take three bulk chunks each,
    the last one short; returns it with its n and m."""
    rng = random.Random(7)
    values = ["0", "1", "-1.5", "2.25", "-0", "3", ".5", "0.1"]
    n, m = 2 * (BULK_CELLS // 3) + 5, 3

    def text():
        return "{" + ",".join(f"s_{rng.choice(values)}<o_{rng.choice(values)}>"
                              for _ in range(rng.randint(1, 3))) + "}"

    return {
        "scale": {"tau": 3, "sigma_scale": 3},
        "alternatives": [f"x{i}" for i in range(n)],
        "attributes": [{"id": f"a{j}", "weight": 1 / m} for j in range(m)],
        "experts": [{"id": f"E{k}", "weight": 0.5,
                     "table": [[text() for _ in range(m)] for _ in range(n)]}
                    for k in range(2)],
    }, n, m


class TestParamsValidation:
    def test_defaults_applied(self):
        params, problems = validate_params_dict({"levels": [{"kappa": 1, "sigma": 0.7}]})
        assert problems == []
        assert params.params.eta == 0.6
        assert params.rank.neg_direction == "desc"
        assert params.monotonicity_override is False

    def test_override_flag_carried(self):
        params, problems = validate_params_dict({
            "levels": [{"kappa": 0.9, "sigma": 0.5}, {"kappa": 0.5, "sigma": 0.5}],
            "monotonicity_override": True,
        })
        assert problems == []
        assert params.monotonicity_override is True

    def test_bad_rank_options(self):
        _, problems = validate_params_dict({
            "levels": [{"kappa": 1, "sigma": 0.7}],
            "rank": {"key": "reject", "neg_direction": "up"},
        })
        assert len(problems) == 2

    def test_empty_levels(self):
        params, problems = validate_params_dict({"levels": []})
        assert params is None and problems

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_override_must_be_boolean(self, value):
        params, problems = validate_params_dict({
            "levels": [{"kappa": 1, "sigma": 0.7}], "monotonicity_override": value})
        assert params is None
        assert any("monotonicity_override" in p for p in problems)

    def test_parameter_ranges_reported(self):
        _, problems = validate_params_dict({
            "eta": 2.0, "levels": [{"kappa": 1, "sigma": 0.7}]})
        assert any("eta" in p for p in problems)

    def test_unknown_keys_located(self):
        _, problems = validate_params_dict({
            "etta": 0.1, "levels": [{"kappa": 0.9, "sigma": 0.7}, {"kappa": 0.9, "sigam": 0.1}],
            "rank": {"key": "accept", "order": "asc"}})
        assert [p.split(",")[0] for p in problems] == [
            "unknown key 'etta'", "levels[1]: unknown key 'sigam'", "rank: unknown key 'order'"]

    def test_every_bad_engine_parameter_listed(self):
        _, problems = validate_params_dict({
            "eta": "x", "theta": True, "delta": -1, "levels": [{"kappa": 1, "sigma": 0.7}]})
        assert problems == [
            "parameters: eta must be a number, got 'x'",
            "parameters: theta must be a number, got True",
            "parameters: delta must be non-negative and finite, got -1.0",
        ]


class TestReportValidation:
    def test_roundtrip_from_run(self, tmp_path, sle_case_path, sle_params_path, sle_table):
        from s3wgdm.caseio import report_dict
        from s3wgdm.engine import run_sequential

        case = load_case(sle_case_path)
        spec = load_params(sle_params_path)
        report = run_sequential(sle_table, spec.levels, spec.params)
        data = report_dict(case, spec, report)
        assert validate_report_dict(data) == []
        # survives a JSON write/read cycle
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        assert validate_report_dict(json.loads(path.read_text())) == []

    def test_detects_missing_sections(self):
        assert validate_report_dict({"schema": "s3wgdm-report/1"})
        assert validate_report_dict("nope")

    def test_detects_region_coverage_gap(self):
        data = {
            "schema": "s3wgdm-report/1",
            "case": {"alternatives": 3},
            "parameters": {},
            "levels": [{"index": 1, "cumulative_regions": {"POS": ["x1"], "BND": [],
                                                           "NEG": []}}],
            "final": {"regions": {}, "exit_level": {}, "ranking": []},
            "metadata": {},
        }
        problems = validate_report_dict(data)
        assert any("cover" in p for p in problems)


class TestWriteJson:
    def test_non_finite_numbers_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "out.json"), {"pr": float("nan")})
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "out.json"), {"delta": float("-inf")})


def stdlib_layout(doc) -> str:
    """What ``dump_json`` must write: the standard library's pretty-printer."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dumped(doc) -> str:
    fh = io.StringIO()
    dump_json(doc, fh)
    return fh.getvalue()


# strings that need escaping, or look like the layout's own punctuation
json_text = st.text(st.characters() | st.sampled_from('"\\,[]{}: \n\r\t\x00\x1f\x7fé€😀'),
                    max_size=8)
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(10 ** 20, 10 ** 40)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0])
                | json_text)
# keys of one dict must be mutually ordered, as sort_keys needs: all strings,
# all numbers (bools among them), or a lone None
numeric_keys = (st.integers() | st.integers(10 ** 20, 10 ** 40) | st.booleans()
                | st.floats(allow_nan=False, allow_infinity=False))
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4)
    | st.dictionaries(numeric_keys, inner, max_size=3)
    | st.dictionaries(st.none(), inner, max_size=1),
    max_leaves=20)


def holding(bad):
    """Documents that hold a value drawn from ``bad`` at some depth."""
    return st.recursive(
        bad,
        lambda inner: st.builds(lambda v, doc: [doc, v], inner, json_documents)
        | st.builds(lambda v, doc: (v, doc), inner, json_documents)
        | st.builds(lambda v, doc: {"a": doc, "b": v}, inner, json_documents),
        max_leaves=6)


# key texts of tables, with the % sign of the writer's entry templates
table_text = st.text(st.characters() | st.sampled_from('"\\%\n\x00é😀'), max_size=6)


@st.composite
def tables(draw, leaves=json_scalars, misses=True):
    """Dicts whose values are non-empty dicts of one set of str keys that
    hold only ``leaves``, or with ``misses`` near-misses of them too: one
    inner dict empty, of another key set or of other than str keys, or
    one leaf a numpy scalar or a container.  Each is placed at a random depth of a
    document."""
    names = draw(st.lists(table_text, min_size=1, max_size=4, unique=True))
    entry = st.fixed_dictionaries({name: leaves for name in names})
    table = draw(st.dictionaries(table_text, entry, min_size=1, max_size=6)
                 | st.dictionaries(numeric_keys, entry, min_size=1, max_size=6)
                 | st.dictionaries(st.none(), entry, min_size=1, max_size=1))
    miss = draw(st.sampled_from([None, "empty", "other keys", "int keys", "numpy", "nested"]
                                if misses else [None]))
    if miss is not None:
        key = draw(st.sampled_from(sorted(table, key=repr)))
        inner = table[key]
        if miss == "empty":
            table[key] = {}
        elif miss == "other keys":
            inner[draw(table_text.filter(lambda t: t not in inner))] = inner.pop(names[-1])
        elif miss == "int keys":
            table[key] = {i: value for i, value in enumerate(inner.values())}
        elif miss == "numpy":
            inner[names[0]] = np.float64(draw(st.floats(allow_nan=False, allow_infinity=False)))
        else:
            inner[names[0]] = draw(json_documents.filter(lambda d: isinstance(d, (list, dict))))
    wrap = draw(st.sampled_from([lambda t: t, lambda t: {"t": t, "a": [1]}, lambda t: [[t], {}]]))
    return wrap(table)


class TestDumpJsonIsTheStdlibLayout:
    @given(tables())
    @settings(max_examples=400, deadline=None)
    def test_random_tables(self, doc):
        assert dumped(doc) == stdlib_layout(doc)

    @given(tables(st.sampled_from([float("nan"), float("inf"), float("-inf")]), misses=False))
    @settings(max_examples=50, deadline=None)
    def test_non_finite_refused_in_tables(self, doc):
        with pytest.raises(ValueError):
            stdlib_layout(doc)
        with pytest.raises(ValueError):
            dumped(doc)

    @pytest.mark.parametrize("doc", [
        {float("nan"): {"a": 1}}, {"t": {1: {"a": 1}, float("inf"): {"a": 2}}},
        {"t": {"x": {"a": 1, "b": {1}}}}])
    def test_tables_with_bad_keys_or_leaves_refused(self, doc):
        error = TypeError if isinstance(doc.get("t", {}).get("x"), dict) else ValueError
        with pytest.raises(error):
            stdlib_layout(doc)
        with pytest.raises(error):
            dumped(doc)

    def test_a_table_is_one_encoder_call(self, monkeypatch):
        """A 1,000-entry table is one call to the leaf encoder, written in
        slices of at most ``BULK_CELLS`` leaves, and the other encoders
        never see it: a fallback to the per-entry route fails here."""
        table = {f"x{i}": {"accept": i / 7, "defer": -i / 3, "reject": float(i)}
                 for i in range(1000)}
        doc = {"expected_utility": table}
        calls = []
        encode = caseio._LEAVES
        monkeypatch.setattr(caseio, "_LEAVES",
                            lambda items, level: calls.append(len(items)) or encode(items, level))
        assert dumped(doc) == stdlib_layout(doc)
        assert calls == [4000]
        pieces = list(caseio._chunks(doc, 0, ""))
        assert len(pieces) == 2 + -(-1000 // (BULK_CELLS // 4))
        entries = [piece.count('"accept"') for piece in pieces]
        assert sum(entries) == 1000 and max(entries) == BULK_CELLS // 4

    @given(json_documents)
    @settings(max_examples=400, deadline=None)
    def test_random_documents(self, doc):
        assert dumped(doc) == stdlib_layout(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), [[]], {"a": {}}, [(), {}], {"": ""},
        {"b": [1, {"c": (1, 2)}], "a": -0.0},
        {1: [True], 2.5: {"x": None}, True: "t"},
        {None: {None: [None]}}, {0.0: [-0.0], 5e-324: 1e300},
        {"k": {10 ** 30: [10 ** 30], -(10 ** 30): []}},
        ["\n", "\"", "\\", ",\n  ", "é\u2028", "\x00"],
        {"a": [np.float64(1.5), 2], "b": {"x": np.float64(-0.0)}},
    ])
    def test_edge_documents(self, doc):
        assert dumped(doc) == stdlib_layout(doc)

    @given(holding(st.sampled_from([float("nan"), float("inf"), float("-inf")])))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_refused_at_any_depth(self, doc):
        with pytest.raises(ValueError):
            stdlib_layout(doc)
        with pytest.raises(ValueError):
            dumped(doc)

    @pytest.mark.parametrize("doc", [
        {float("nan"): 1}, {"a": {float("inf"): 1}}, {"a": {float("-inf"): [1]}}])
    def test_non_finite_keys_refused(self, doc):
        with pytest.raises(ValueError):
            stdlib_layout(doc)
        with pytest.raises(ValueError):
            dumped(doc)

    @given(holding(st.sampled_from([{1}, frozenset(), np.int64(3), np.float32(1.5),
                                    np.bool_(True)])))
    @settings(max_examples=100, deadline=None)
    def test_unserializable_values_refused_at_any_depth(self, doc):
        with pytest.raises(TypeError):
            stdlib_layout(doc)
        with pytest.raises(TypeError):
            dumped(doc)

    @pytest.mark.parametrize("doc", [{(1, 2): 1}, {"a": {(1,): [1]}}, {"a": {b"k": 1}}])
    def test_other_keys_refused(self, doc):
        with pytest.raises(TypeError):
            stdlib_layout(doc)
        with pytest.raises(TypeError):
            dumped(doc)


def fused_of(means) -> FusedDecisionTable:
    means = np.asarray(means, dtype=float)
    n, m, _ = means.shape
    return FusedDecisionTable(
        alternatives=tuple(f"x{i}" for i in range(n)), attributes=tuple(f"a{j}" for j in range(m)),
        means=means, scale=DHLTScale(10 ** 17, 10 ** 17))


def cell_by_cell(means) -> list:
    return [["{" + format_term(phi, varphi) + "}" for phi, varphi in row]
            for row in np.asarray(means).tolist()]


class TestFusedCells:
    """Cells are held as their distinct subscripts' texts and each cell's
    positions in them; read through ``tolist``, they have the text of
    formatting each cell on its own."""

    def test_hand_built_table(self):
        means = [[[-0.0, 0.0], [0.0, -0.0], [2.0, -3.0]],
                 [[1e-20, 1e16], [-0.0, 0.0], [1 / 3, -1.5]],
                 [[2.0, 2.0], [-1e16, -1e-20], [0.5, 1e16]]]
        cells = fused_table_dict(fused_of(means))["cells"].tolist()
        assert cells == cell_by_cell(means)
        assert cells[0][:2] == ["{s_-0<o_0>}", "{s_0<o_-0>}"]
        assert cells[2][0] == "{s_2<o_2>}"
        assert cells[1][0] == "{s_1e-20<o_1e+16>}"

    def test_written_with_one_escape_per_distinct_text(self, monkeypatch):
        """The writer escapes the cell template and each distinct subscript
        text once, and no cell text: a per-cell or per-row route for the
        cells fails here."""
        means = np.array([-0.0, 0.0, 2.0, 1 / 3])[np.arange(341 * 6 * 2).reshape(341, 6, 2) % 4]
        data = fused_table_dict(fused_of(means))
        escaped = []
        escape = caseio.encode_basestring_ascii
        monkeypatch.setattr(caseio, "encode_basestring_ascii",
                            lambda text: escaped.append(text) or escape(text))
        assert dumped(data) == stdlib_layout(dict(data, cells=data["cells"].tolist()))
        assert [text for text in escaped if "<o_" in text] == ["{s_%s<o_%s>}"]
        assert [escaped.count(name) for name in ("-0", "0", "2", "0.3333333333333333")] == [1] * 4

    def test_non_contiguous_means(self):
        means = np.arange(24, dtype=float).reshape(2, 3, 4)[:, :, ::2] / 8 - 1
        assert fused_table_dict(fused_of(means))["cells"].tolist() == cell_by_cell(means)

    def test_empty_tables(self):
        assert fused_table_dict(fused_of(np.zeros((0, 2, 2))))["cells"].tolist() == []
        assert fused_table_dict(fused_of(np.zeros((2, 0, 2))))["cells"].tolist() == [[], []]

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_tables(self, n, m, data):
        values = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e-20, 1e16, 1 / 3, -2 / 3]) \
            | st.floats(-3, 3)
        means = np.array(data.draw(st.lists(values, min_size=n * m * 2, max_size=n * m * 2)))
        means = means.reshape(n, m, 2)
        assert fused_table_dict(fused_of(means))["cells"].tolist() == cell_by_cell(means)


# Any JSON value, including the NaN and Infinity literals Python's json
# module reads and integers too large for a float.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10 ** 308, 10 ** 400)
    | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12)

VALID_PARAMS = {"eta": 0.6, "theta": 0.88, "delta": 0.3,
                "levels": [{"kappa": 1.0, "sigma": 0.7}, {"kappa": 1.0, "sigma": 0.5}],
                "rank": {"key": "accept", "neg_direction": "desc"},
                "monotonicity_override": False}


def paths_of(value, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths_of(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths_of(item, prefix + (index,))


@st.composite
def damaged(draw, valid):
    """A valid document with one value, at any depth, replaced."""
    doc = json.loads(json.dumps(valid))
    path = draw(st.sampled_from(list(paths_of(doc))))
    value = draw(json_values)
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_validated(result):
    obj, problems = result
    assert isinstance(problems, list)
    if problems:
        assert obj is None
        assert all(isinstance(p, str) for p in problems)
    else:
        assert obj is not None


class TestValidationNeverRaises:
    @given(st.one_of(json_values, damaged(minimal_case()),
                     damaged(TestParseOncePerDocument.repeated_case("{s_1<o_0>}"))))
    @settings(max_examples=300, deadline=None)
    def test_case_documents(self, doc):
        assert_validated(validate_case_dict(doc))

    @given(st.one_of(json_values, damaged(VALID_PARAMS)))
    @settings(max_examples=300, deadline=None)
    def test_params_documents(self, doc):
        assert_validated(validate_params_dict(doc))
