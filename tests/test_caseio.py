import json

import pytest

from s3wgdm.caseio import (
    CaseFormatError,
    load_case,
    load_params,
    validate_case_dict,
    validate_params_dict,
    validate_report_dict,
    write_json,
)
from s3wgdm.linguistic import DHHFLE, DHLT


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

    def test_load_reports_json_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(CaseFormatError, match="invalid JSON"):
            load_case(str(bad))


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
