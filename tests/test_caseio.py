import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import caseio
from s3wgdm.caseio import (
    CaseFormatError,
    load_case,
    load_params,
    validate_case_dict,
    validate_params_dict,
    validate_report_dict,
    write_json,
)
from s3wgdm.linguistic import DHHFLE, DHLT, DHLTScale, linguistic_expected_value
from s3wgdm.syntax import _scan_dhhfle, parse_dhhfle


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
        calls = []

        def counting(text, scale, terms):
            calls.append(text)
            return parse_dhhfle(text, scale, terms)

        monkeypatch.setattr(caseio, "parse_dhhfle", counting)
        case, problems = validate_case_dict(self.repeated_case("{s_2<o_1>,s_1<o_0>}"))
        assert problems == []
        assert sorted(calls) == ["{s_0<o_0>}", "{s_2<o_1>,s_1<o_0>}"]
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
cell_raw = st.one_of(
    canonical, canonical, canonical,
    canonical.map(lambda t: t.replace("{", "{ ").replace(",", " ,\n ")),  # the scanner
    canonical.map(lambda t: t[:-1]),  # malformed
    st.lists(st.fixed_dictionaries({"phi": st.integers(-4, 4), "varphi": st.integers(-4, 4)}),
             min_size=1, max_size=2),  # structured
    st.sampled_from([7, [], None, [{"phi": "wide", "varphi": 0}], [{"phi": 1}]]),
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


class TestReportValidation:
    def test_roundtrip_from_run(self, tmp_path, sle_case_path, sle_params_path):
        from s3wgdm.caseio import report_dict
        from s3wgdm.engine import run_sequential

        case = load_case(sle_case_path)
        spec = load_params(sle_params_path)
        report = run_sequential(case.experts, case.attributes,
                                spec.levels, spec.params)
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
