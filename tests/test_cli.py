import csv
import json
import math
import pathlib
import tempfile
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import SWEEP_GRID, exit_levels, oriented, universe
from hypothesis import given, settings
from hypothesis import strategies as st

from s3wgdm import cli, engine, tables
from s3wgdm.caseio import load_case, load_params, validate_report_dict
from s3wgdm.cli import MAX_GRID_POINTS, _parse_grid, main
from s3wgdm.engine import REGIONS, LevelConfig, SweepMemo, rank, run_sequential


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_reference_case(self, capsys, sle_case_path):
        code, out, _ = run_cli(capsys, "validate", "--case", sle_case_path)
        assert code == 0
        assert "n=8 m=6 e=3 k=4" in out
        assert "Z1 = {a2}" in out

    def test_expert_weight_violation(self, capsys, tmp_path, sle_case_path):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        data["experts"][2]["weight"] = 0.3  # now 0.5 + 0.3 + 0.3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert "expert weights sum" in err

    def test_out_of_scale_term(self, capsys, tmp_path, sle_case_path):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        data["experts"][0]["table"][0][0] = "{s_4<o_0>}"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert "outside" in err

    @pytest.mark.parametrize("command", ["validate", "decide"])
    def test_misspelt_case_key(self, capsys, tmp_path, sle_case_path, sle_params_path,
                               command):
        # ignored, the misspelt false would leave the column uncomplemented
        with open(sle_case_path) as fh:
            data = json.load(fh)
        del data["attributes"][1]["align_with_concept"]
        data["attributes"][1]["align_with_concpt"] = False
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        params = ["--params", sle_params_path] if command == "decide" else []
        code, out, err = run_cli(capsys, command, "--case", str(bad), *params)
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("  - ")] == [
            "  - attributes[1]: unknown key 'align_with_concpt', "
            "expected one of id, weight, kind, align_with_concept"]

    def test_many_problems_all_reported(self, capsys, tmp_path):
        doc = {
            "scale": {"tau": 3, "sigma_scale": 3},
            "alternatives": ["x1", "x1"],
            "attributes": [{"id": "a1", "weight": 0.4}],
            "experts": [{"id": "E1", "weight": 0.9,
                         "table": [["{s_0<o_0>}"], ["{s_9<o_0>}"]]}],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert "not unique" in err
        assert "weights sum" in err

    def test_null_attribute_weight(self, capsys, tmp_path, sle_case_path):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        data["attributes"][0]["weight"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert "attributes[0]:" in err
        assert err.count("\n  - ") == 1  # no follow-on weight-sum or row problems

    def test_fractional_scale(self, capsys, tmp_path, sle_case_path):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        data["scale"]["tau"] = 3.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert "tau must be a whole number" in err

    def test_string_alignment_rejected(self, capsys, tmp_path, sle_case_path,
                                       sle_params_path):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        data["attributes"][1]["align_with_concept"] = "false"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for argv in (("validate",), ("decide", "--params", sle_params_path)):
            code, _, err = run_cli(capsys, *argv, "--case", str(bad))
            assert code == 1
            assert "attributes[1]: align_with_concept must be true or false" in err
            assert err.count("\n  - ") == 1  # no follow-on weight-sum or row problems

    @pytest.mark.parametrize("which", ["case", "params"])
    def test_deeply_nested_json(self, capsys, tmp_path, sle_case_path, sle_params_path,
                                which):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        paths = {"case": sle_case_path, "params": sle_params_path, which: str(deep)}
        code, out, err = run_cli(capsys, "decide", "--case", paths["case"],
                                 "--params", paths["params"])
        assert code == 1
        assert out == ""
        assert "  - invalid JSON: maximum recursion depth exceeded" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--case", "/nonexistent.json")
        assert code == 2


class TestDecide:
    def test_reference_run(self, capsys, tmp_path, sle_case_path, sle_params_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path, "--out", str(out_path))
        assert code == 0
        assert "POS ['x2', 'x4']" in out
        assert "BND ['x3', 'x7']" in out
        with open(out_path) as fh:
            report = json.load(fh)
        assert validate_report_dict(report) == []
        assert report["final"]["regions"]["POS"] == ["x2", "x4"]
        assert report["final"]["regions"]["BND"] == ["x3", "x7"]
        assert report["final"]["regions"]["NEG"] == ["x1", "x5", "x6", "x8"]
        assert report["final"]["exit_level"] == {
            "x1": 1, "x2": 1, "x3": 4, "x4": 3,
            "x5": 1, "x6": 1, "x7": 4, "x8": 2}

    def test_deterministic_reports(self, capsys, tmp_path, sle_case_path, sle_params_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, *_ = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path, "--out", str(p))
            assert code == 0
        docs = []
        for p in paths:
            with open(p) as fh:
                doc = json.load(fh)
            doc["metadata"].pop("elapsed_seconds", None)
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_levels_flag_truncates(self, capsys, tmp_path, sle_case_path, sle_params_path):
        out_path = tmp_path / "report.json"
        code, *_ = run_cli(capsys, "decide", "--case", sle_case_path,
                           "--params", sle_params_path, "--out", str(out_path),
                           "--levels", "1")
        assert code == 0
        with open(out_path) as fh:
            report = json.load(fh)
        assert len(report["levels"]) == 1
        assert report["final"]["regions"]["BND"] == ["x3", "x4", "x7", "x8"]

    def test_neg_direction_flag(self, capsys, tmp_path, sle_case_path, sle_params_path):
        out_path = tmp_path / "report.json"
        code, *_ = run_cli(capsys, "decide", "--case", sle_case_path,
                           "--params", sle_params_path, "--out", str(out_path),
                           "--neg-direction", "desc")
        assert code == 0
        with open(out_path) as fh:
            report = json.load(fh)
        ranking = report["final"]["ranking"]
        assert ranking[:4] == ["x2", "x4", "x3", "x7"]
        assert ranking[4:] == ["x6", "x8", "x5", "x1"]

    def test_dump_similarity(self, capsys, tmp_path, sle_case_path, sle_params_path,
                             sle_case, sle_group, sle_params):
        prefix = tmp_path / "sim"
        code, *_ = run_cli(capsys, "decide", "--case", sle_case_path,
                           "--params", sle_params_path,
                           "--dump-similarity", str(prefix))
        assert code == 0
        first = tmp_path / "sim.level1.csv"
        assert first.exists()
        with open(first) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][1:] == [f"x{i}" for i in range(1, 9)]
        assert float(rows[1][1]) == 1.0

        report = run_sequential(sle_group, sle_case.attributes,
                                sle_params.levels, sle_params.params)
        for level in report.levels:
            with open(tmp_path / f"sim.level{level.index}.csv") as fh:
                header, *body = list(csv.reader(fh))
            assert header[1:] == universe(report, level)
            assert [r[0] for r in body] == universe(report, level)
            sim = np.array([[float(v) for v in r[1:]] for r in body])
            assert (sim == sim.T).all()
            assert (sim.diagonal() == 1.0).all()
            kappa = sle_params.levels[level.index - 1].kappa
            sizes = (sim >= kappa).sum(axis=1).tolist()
            assert sizes == level.sizes.tolist()

    def test_bad_levels_flag(self, capsys, sle_case_path, sle_params_path):
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path, "--levels", "9")
        assert code == 1

    def test_zero_levels_rejected(self, capsys, sle_case_path, sle_params_path):
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path, "--levels", "0")
        assert code == 1
        assert "--levels must be between 1 and 4" in err


class TestNonFiniteParameters:
    @pytest.mark.parametrize("path, value", [
        (("levels", 0, "sigma"), math.nan),
        (("delta",), math.inf),
    ])
    def test_decide_rejects(self, capsys, tmp_path, sle_case_path, sle_params_path,
                            path, value):
        with open(sle_params_path) as fh:
            params = json.load(fh)
        target = params
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(params))  # writes the NaN / Infinity literals
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", str(bad), "--out", str(out_path))
        assert code == 1
        assert err.startswith("invalid input:")
        assert "  - " in err and "finite" in err
        assert not out_path.exists()


class TestRegretAversionOverflow:
    """A delta whose regret term exp(delta) overflows is a located problem;
    one just below the bound runs and writes a finite report."""

    def write_params(self, tmp_path, sle_params_path, delta):
        with open(sle_params_path) as fh:
            params = json.load(fh)
        params["delta"] = delta
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        return str(path)

    def test_large_delta_rejected(self, capsys, tmp_path, sle_case_path, sle_params_path):
        params = self.write_params(tmp_path, sle_params_path, 1000)
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", params)
        assert code == 1
        assert "  - parameters: delta 1000.0 is too large" in err
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", params, "--grid", "eta=0.6")
        assert code == 1
        assert "  - parameters: delta 1000.0 is too large" in err

    def test_delta_below_bound_runs(self, capsys, tmp_path, sle_case_path, sle_params_path):
        params = self.write_params(tmp_path, sle_params_path, 709)
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decide", "--case", sle_case_path,
                             "--params", params, "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            data = json.load(fh)  # write_json refuses non-finite floats
        for level in data["levels"]:
            for eu in level["expected_utility"].values():
                assert all(math.isfinite(v) for v in eu.values())


def counting(calls, name, fn):
    """``fn``, adding one to ``calls[name]`` per call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestOneFusionPerDecide:
    @staticmethod
    def count_table_calls(monkeypatch):
        calls = {"fuse": 0, "orient": 0}
        for module in (engine, cli):
            monkeypatch.setattr(module, "fuse_dhhflmwa",
                                counting(calls, "fuse", tables.fuse_dhhflmwa))
            if hasattr(module, "orient_to_concept"):
                monkeypatch.setattr(module, "orient_to_concept",
                                    counting(calls, "orient", tables.orient_to_concept))
        return calls

    def test_decide_fuses_and_orients_once(self, capsys, tmp_path, monkeypatch,
                                           sle_case_path, sle_params_path):
        calls = self.count_table_calls(monkeypatch)
        code, _, _ = run_cli(capsys, "decide", "--case", sle_case_path,
                             "--params", sle_params_path,
                             "--out", str(tmp_path / "report.json"))
        assert code == 0
        assert calls == {"fuse": 1, "orient": 1}

    def test_sweep_fuses_and_orients_once(self, capsys, monkeypatch,
                                          sle_case_path, sle_params_path):
        calls = self.count_table_calls(monkeypatch)
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", "eta=0:1:0.1")
        assert code == 0
        assert "swept 11 grid points" in err
        assert calls == {"fuse": 1, "orient": 1}

    def test_sweep_computes_each_distinct_level_input_once(self, capsys, monkeypatch,
                                                           sle_case_path, sle_params_path):
        calls = dict.fromkeys(("superior_gradus_array", "run_level", "membership_degrees",
                               "granule_statistics", "comprehensive_utilities"), 0)
        for name in calls:
            monkeypatch.setattr(engine, name, counting(calls, name, getattr(engine, name)))
        argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path]
        for grid in SWEEP_GRID:
            argv += ["--grid", grid]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        assert "swept 330 grid points" in err
        # the table is scored once; the 800 levels run hold 23 distinct
        # (level, universe) inputs, 307 with (sigma, kappa) and 44 with eta
        assert calls == {"superior_gradus_array": 1, "run_level": 800,
                         "membership_degrees": 23, "granule_statistics": 307,
                         "comprehensive_utilities": 44}


class TestKernelWidthUnderflow:
    """A sigma with 2 sigma^2 == 0.0 would give identical rows a NaN
    similarity; one just above it still runs."""

    @pytest.mark.parametrize("sigma, code", [(1e-160, 0), (1e-200, 1)])
    def test_decide(self, capsys, tmp_path, sle_case_path, sle_params_path, sigma, code):
        with open(sle_params_path) as fh:
            params = json.load(fh)
        for level in params["levels"]:
            level["sigma"] = sigma
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        got, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                              "--params", str(path))
        assert got == code
        if code:
            assert f"  - levels[0]: sigma {sigma} is too small" in err

    @pytest.mark.parametrize("sigma, code", [(1e-160, 0), (1e-200, 1)])
    def test_sweep(self, capsys, sle_case_path, sle_params_path, sigma, code):
        got, _, err = run_cli(capsys, "sweep", "--case", sle_case_path, "--params",
                              sle_params_path, "--grid", f"sigma={sigma}")
        assert got == code
        if code:
            assert f"sigma {sigma} is too small" in err


class TestNumericFieldsMustBeNumbers:
    """A JSON boolean or string in a numeric field is a located problem."""

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("path, where", [
        (("eta",), "parameters: eta"),
        (("theta",), "parameters: theta"),
        (("delta",), "parameters: delta"),
        (("levels", 1, "kappa"), "levels[1]: kappa"),
        (("levels", 2, "sigma"), "levels[2]: sigma"),
    ])
    def test_params_file(self, capsys, tmp_path, sle_case_path, sle_params_path,
                         path, where, value):
        with open(sle_params_path) as fh:
            params = json.load(fh)
        target = params
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(params))
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", str(bad))
        assert code == 1
        assert f"  - {where} must be a number, got {value!r}" in err

    @pytest.mark.parametrize("value", [False, "1"])
    @pytest.mark.parametrize("field, where", [
        ("attribute weight", "attributes[0]: weight"),
        ("expert weight", "experts[1]: weight"),
        ("phi", "experts[0].table[2][3]: phi"),
        ("varphi", "experts[0].table[2][3]: varphi"),
    ])
    def test_case_file(self, capsys, tmp_path, sle_case_path, field, where, value):
        with open(sle_case_path) as fh:
            data = json.load(fh)
        if field == "attribute weight":
            data["attributes"][0]["weight"] = value
        elif field == "expert weight":
            data["experts"][1]["weight"] = value
        else:
            cell = {"phi": 1, "varphi": 0}
            cell[field] = value
            data["experts"][0]["table"][2][3] = [cell]
        bad = tmp_path / "case.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "validate", "--case", str(bad))
        assert code == 1
        assert f"  - {where} must be a number, got {value!r}" in err
        assert err.count("\n  - ") == 1  # no follow-on weight-sum problem


def test_string_override_rejected(capsys, tmp_path, sle_case_path, sle_params_path):
    with open(sle_params_path) as fh:
        params = json.load(fh)
    params["levels"][1]["kappa"] = 0.5  # below level 1: needs the override
    params["monotonicity_override"] = "false"
    bad = tmp_path / "params.json"
    bad.write_text(json.dumps(params))
    code, _, err = run_cli(capsys, "decide", "--case", sle_case_path, "--params", str(bad))
    assert code == 1
    assert "monotonicity_override must be true or false" in err


class TestFuse:
    def test_stdout_is_the_out_file(self, capsys, tmp_path, sle_case_path):
        out_path = tmp_path / "fused.json"
        code, out, _ = run_cli(capsys, "fuse", "--case", sle_case_path)
        assert code == 0
        assert run_cli(capsys, "fuse", "--case", sle_case_path, "--out", str(out_path)) == \
            (0, "", "")
        assert out == out_path.read_text(encoding="utf-8")

    def test_emits_single_term_cells(self, capsys, tmp_path, sle_case_path):
        out_path = tmp_path / "fused.json"
        code, *_ = run_cli(capsys, "fuse", "--case", sle_case_path,
                           "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            data = json.load(fh)
        assert data["alternatives"] == [f"x{i}" for i in range(1, 9)]
        assert data["cells"][1][0].count("s_") == 1  # one term after fusion
        assert data["cells"][1][1] == "{s_1.2<o_-0.3>}"


    def test_weights_inside_tolerance_at_top_of_scale(self, capsys, tmp_path,
                                                      sle_case_path, sle_params_path):
        # expert weights summing to 1 + 5e-7 would carry the fused top term
        # 1.5e-6 past tau; every command reads the clipped, in-scale table
        with open(sle_case_path) as fh:
            data = json.load(fh)
        for expert in data["experts"]:
            expert["table"] = [["{s_3<o_3>}"] * len(row) for row in expert["table"]]
        data["experts"][0]["weight"] += 5e-7
        case = tmp_path / "top.json"
        case.write_text(json.dumps(data))
        out_path = tmp_path / "fused.json"
        for argv in (("fuse", "--out", str(out_path)), ("baseline",),
                     ("decide", "--params", sle_params_path)):
            code, *_ = run_cli(capsys, *argv, "--case", str(case))
            assert code == 0
        with open(out_path) as fh:
            fused = json.load(fh)
        assert {c for row in fused["cells"] for c in row} == {"{s_3<o_3>}"}


class TestSweep:
    def test_eta_grid_row_count(self, capsys, tmp_path, sle_case_path, sle_params_path):
        out_path = tmp_path / "sweep.csv"
        code, *_ = run_cli(capsys, "sweep", "--case", sle_case_path,
                           "--params", sle_params_path,
                           "--grid", "eta=0:1:0.1", "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            for i in range(1, 5):
                total = (int(row[f"pos_{i}"]) + int(row[f"bnd_{i}"])
                         + int(row[f"neg_{i}"]))
                assert total == 8

    def test_single_point_matches_decide(self, capsys, tmp_path,
                                         sle_case_path, sle_params_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "decide", "--case", sle_case_path,
                "--params", sle_params_path, "--out", str(report_path))
        with open(report_path) as fh:
            report = json.load(fh)

        sweep_path = tmp_path / "sweep.csv"
        code, *_ = run_cli(capsys, "sweep", "--case", sle_case_path,
                           "--params", sle_params_path,
                           "--grid", "eta=0.6", "--out", str(sweep_path))
        assert code == 0
        with open(sweep_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        for level in report["levels"]:
            i = level["index"]
            cum = level["cumulative_regions"]
            assert int(row[f"pos_{i}"]) == len(cum["POS"])
            assert int(row[f"bnd_{i}"]) == len(cum["BND"])
            assert int(row[f"neg_{i}"]) == len(cum["NEG"])
        assert row["final_ranking"] == ">".join(report["final"]["ranking"])

    def test_two_parameter_grid(self, capsys, tmp_path, sle_case_path, sle_params_path):
        out_path = tmp_path / "sweep.csv"
        code, *_ = run_cli(capsys, "sweep", "--case", sle_case_path,
                           "--params", sle_params_path,
                           "--grid", "sigma=0.5:0.7:0.1",
                           "--grid", "kappa=0.8:1:0.1",
                           "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 3 * 3

    def test_empty_grid_rejected(self, capsys, sle_case_path, sle_params_path):
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path)
        assert code == 1

    def test_repeated_grid_parameter_rejected(self, capsys, tmp_path, sle_case_path,
                                              sle_params_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", "eta=0.1",
                               "--grid", "eta=0:1:0.5", "--out", str(out_path))
        assert code == 1
        assert "  - grid specs 'eta=0.1' and 'eta=0:1:0.5' both set eta" in err
        assert not out_path.exists()

    def test_every_bad_grid_value_rejected_before_any_point(self, capsys, monkeypatch,
                                                            sle_case_path, sle_params_path):
        calls = {"run_sequential": 0}
        monkeypatch.setattr(cli, "run_sequential",
                            counting(calls, "run_sequential", run_sequential))
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", "eta=0.5:1.5:0.5",
                               "--grid", "kappa=0:2:0.5", "--grid", "sigma=-0.5:0.5:0.5")
        assert code == 1
        assert calls == {"run_sequential": 0}
        assert [line for line in err.splitlines() if line.startswith("  - ")] == [
            "  - grid spec 'eta=0.5:1.5:0.5': eta 1.5 outside [0, 1]",
            "  - grid spec 'kappa=0:2:0.5': kappa 1.5 outside [0, 1]",
            "  - grid spec 'kappa=0:2:0.5': kappa 2.0 outside [0, 1]",
            "  - grid spec 'sigma=-0.5:0.5:0.5': sigma must be positive and finite, got -0.5",
            "  - grid spec 'sigma=-0.5:0.5:0.5': sigma must be positive and finite, got 0.0",
        ]

    @pytest.mark.parametrize("grid", ["eta=0:inf:1", "eta=nan:1:0.5", "sigma=0.1:1:nan",
                                      "kappa=-inf:1:0.5", "eta=nan"])
    def test_non_finite_grid_rejected(self, capsys, tmp_path, sle_case_path,
                                      sle_params_path, grid):
        # an infinite stop or a NaN part never ends the range
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", grid,
                               "--out", str(out_path))
        assert code == 1
        assert f"grid spec {grid!r}: values must be finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("grid", ["eta=1:0:0.5", "eta=1e300:0:1e-300",
                                      "eta=1e308:-1e308:1"],
                             ids=["descending", "span-overflows", "gap-overflows"])
    def test_grid_with_no_points_rejected(self, capsys, tmp_path, sle_case_path,
                                          sle_params_path, grid):
        # a stop below the start, even where the span overflows to -inf
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", grid,
                               "--out", str(out_path))
        assert code == 1
        assert f"grid spec {grid!r} produced no points" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("grids", [
        ["eta=0:1:1e-9"],
        ["eta=0:1:1e-5"],
        ["eta=0:1:0.001", "sigma=0.1:1:0.001"],
        ["eta=-1e308:1e308:1e-300"],
    ], ids=["1e9-points", "cap-plus-one", "product", "overflowing-span"])
    def test_oversized_grid_rejected_unbuilt(self, capsys, tmp_path, sle_case_path,
                                             sle_params_path, grids):
        out_path = tmp_path / "sweep.csv"
        argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path,
                "--out", str(out_path)]
        for grid in grids:
            argv += ["--grid", grid]
        tracemalloc.start()
        started = time.perf_counter()
        try:
            code, _, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"grid spec {grids[-1]!r}: the grid would have more than " \
               f"{MAX_GRID_POINTS} points" in err
        assert time.perf_counter() - started < 5
        assert peak < 2_000_000
        assert not out_path.exists()

    def test_grid_at_the_cap_is_built(self):
        assert len(_parse_grid(["eta=0:0.99999:1e-5"])["eta"]) == MAX_GRID_POINTS


# --grid specs per parameter.  Each range is rounded to 12 digits, so a
# step of 1e-13 gives four copies of one value: repeated grid points.
GRID_OPTIONS = {
    "eta": ("eta=0:1:0.5", "eta=0.6", "eta=0.3:0.3000000000003:1e-13"),
    "sigma": ("sigma=0.3:0.9:0.3", "sigma=0.7", "sigma=0.5:0.5000000000003:1e-13"),
    "kappa": ("kappa=0:1:0.5", "kappa=0", "kappa=1", "kappa=0.9:0.9000000000003:1e-13"),
}


@st.composite
def sweep_inputs(draw):
    """A case document with n <= 10, m <= 4, e <= 2, a params document
    and --grid specs.  Alternatives pick their rows from a smaller pool of
    small-subscript cells, so duplicate rows are common, and tied weights
    share a level."""
    n, m, e = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    pool = draw(st.integers(1, n))
    picks = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
    term = st.builds("s_{}<o_{}>".format, st.integers(-3, 3), st.integers(-3, 3))
    cell = st.lists(term, min_size=1, max_size=2).map(lambda ts: "{" + ",".join(ts) + "}")
    raw_w = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    attributes = [{"id": f"a{j + 1}", "weight": w / sum(raw_w),
                   "align_with_concept": draw(st.booleans())} for j, w in enumerate(raw_w)]
    experts = []
    for k in range(e):
        rows = draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                             min_size=pool, max_size=pool))
        experts.append({"id": f"E{k + 1}", "weight": 1.0 / e,
                        "table": [rows[p] for p in picks]})
    case = {"scale": {"tau": 3, "sigma_scale": 3},
            "alternatives": [f"x{i + 1}" for i in range(n)],
            "attributes": attributes, "experts": experts}
    level = {"kappa": draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
             "sigma": draw(st.sampled_from([0.3, 0.7]))}
    params = {"eta": 0.6, "theta": draw(st.sampled_from([0.5, 0.88])),
              "delta": draw(st.sampled_from([0.0, 0.3])),
              "levels": [level] * draw(st.integers(1, len(set(raw_w))))}
    names = draw(st.lists(st.sampled_from(sorted(GRID_OPTIONS)), min_size=1, max_size=3,
                          unique=True))
    return case, params, [draw(st.sampled_from(GRID_OPTIONS[name])) for name in names]


@pytest.mark.parametrize("cap", [0, math.inf], ids=["nothing-stored", "unlimited"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_inputs())
def test_sweep_rows_match_fresh_runs(cap, inputs):
    """Every sweep row equals a fresh ``run_sequential`` at its point,
    whether the sweep's memo stores nothing or everything; a memo shared
    over the points gives the fresh runs' level values bit for bit."""
    case_doc, params_doc, grids = inputs
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(engine, "MEMO_BYTES", cap):
        tmp = pathlib.Path(tmp)
        (tmp / "case.json").write_text(json.dumps(case_doc))
        (tmp / "params.json").write_text(json.dumps(params_doc))
        argv = ["sweep", "--case", str(tmp / "case.json"), "--params",
                str(tmp / "params.json"), "--out", str(tmp / "sweep.csv")]
        for grid in grids:
            argv += ["--grid", grid]
        assert main(argv) == 0
        with open(tmp / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        case, spec = load_case(str(tmp / "case.json")), load_params(str(tmp / "params.json"))
        fused = oriented(case.experts, case.attributes)
        memo = SweepMemo(fused, case.attributes)
        for row in rows:
            point = {name: float(row[name]) for name in GRID_OPTIONS if name in row}
            params = replace(spec.params, eta=point.get("eta", spec.params.eta))
            levels = [LevelConfig(kappa=point.get("kappa", c.kappa),
                                  sigma=point.get("sigma", c.sigma)) for c in spec.levels]
            fresh = run_sequential(fused, case.attributes, levels, params)
            for i in range(1, len(levels) + 1):
                regions = fresh.regions_after(i)
                assert [int(row[f"{r.lower()}_{i}"]) for r in REGIONS] == \
                    [len(regions[r]) for r in REGIONS]
            assert row["final_ranking"].split(">") == \
                rank(fresh, key=spec.rank.key, neg_direction=spec.rank.neg_direction)
            reused = run_sequential(fused, case.attributes, levels, params, memo=memo)
            assert exit_levels(reused) == exit_levels(fresh)
            for got, want in zip(reused.levels, fresh.levels, strict=True):
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.region, want.region)
                assert np.array_equal(got.sizes, want.sizes)
                assert np.array_equal(got.pr, want.pr)
                assert np.array_equal(got.expected, want.expected)


class TestSweepMemo:
    def test_refuses_another_table(self, sle_case, sle_group, sle_params):
        memo = SweepMemo(sle_group, sle_case.attributes)
        other = oriented(sle_case.experts, sle_case.attributes)  # equal, but not the same
        with pytest.raises(ValueError, match="another group table"):
            run_sequential(other, sle_case.attributes, sle_params.levels,
                           sle_params.params, memo=memo)
        with pytest.raises(ValueError, match="another group table"):
            run_sequential(sle_group, sle_case.attributes[::-1], sle_params.levels,
                           sle_params.params, memo=memo)

    def test_keys_hold_every_parameter(self, sle_case, sle_group, sle_params):
        memo = SweepMemo(sle_group, sle_case.attributes)
        base = sle_params.params
        for params in (base, replace(base, theta=0.5), replace(base, delta=0.0)):
            reused = run_sequential(sle_group, sle_case.attributes, sle_params.levels,
                                    params, memo=memo)
            fresh = run_sequential(sle_group, sle_case.attributes, sle_params.levels,
                                   params)
            assert len(reused.levels) == len(fresh.levels)
            for got, want in zip(reused.levels, fresh.levels):
                assert np.array_equal(got.expected, want.expected)

    def test_stored_arrays_are_read_only(self, sle_case, sle_group, sle_params):
        memo = SweepMemo(sle_group, sle_case.attributes)
        report = run_sequential(sle_group, sle_case.attributes, sle_params.levels,
                                sle_params.params, memo=memo)
        assert not report.levels[0].scores.flags.writeable
        fresh = run_sequential(sle_group, sle_case.attributes, sle_params.levels,
                               sle_params.params)
        assert fresh.levels[0].scores.flags.writeable

    def test_full_memo_still_computes(self, sle_case, sle_group, sle_params, monkeypatch):
        monkeypatch.setattr(engine, "MEMO_BYTES", 0)
        memo = SweepMemo(sle_group, sle_case.attributes)
        calls = {"granule_statistics": 0}
        monkeypatch.setattr(engine, "granule_statistics",
                            counting(calls, "granule_statistics", engine.granule_statistics))
        for _ in range(2):
            run_sequential(sle_group, sle_case.attributes, sle_params.levels,
                           sle_params.params, memo=memo)
        assert calls == {"granule_statistics": 8}  # 4 levels, twice
        assert memo.free == 0


class TestBaseline:
    def test_prints_total_order(self, capsys, sle_case_path):
        code, out, _ = run_cli(capsys, "baseline", "--case", sle_case_path)
        assert code == 0
        assert out.startswith("baseline ranking: ")
        names = out.split(": ", 1)[1].strip().split(" > ")
        assert sorted(names) == [f"x{i}" for i in range(1, 9)]

    def test_extends_existing_report(self, capsys, tmp_path,
                                     sle_case_path, sle_params_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "decide", "--case", sle_case_path,
                "--params", sle_params_path, "--out", str(report_path))
        code, *_ = run_cli(capsys, "baseline", "--case", sle_case_path,
                           "--out", str(report_path))
        assert code == 0
        with open(report_path) as fh:
            report = json.load(fh)
        assert "baseline_ranking" in report
        assert "final" in report  # decide output preserved

    def test_missing_out_file_created(self, capsys, tmp_path, sle_case_path):
        out_path = tmp_path / "new.json"
        code, out, _ = run_cli(capsys, "baseline", "--case", sle_case_path,
                               "--out", str(out_path))
        assert code == 0
        order = out.split(": ", 1)[1].strip().split(" > ")
        assert json.loads(out_path.read_text()) == {"baseline_ranking": order}

    @pytest.mark.parametrize("text, reason", [
        ("alternative,score\nx1,0.5\n", "not a decide report: Expecting value"),
        ("", "not a decide report: Expecting value"),
        ("[" * 100_000, "not a decide report: maximum recursion depth exceeded"),
        ('{"alternatives": ["x1"], "cells": [["{s_1<o_0>}"]]}\n',
         "not a decide report: no 'final' section"),
    ], ids=["csv", "empty", "deep", "fused-table"])
    def test_file_that_is_not_a_report_left_unchanged(self, capsys, tmp_path, text, reason,
                                                      sle_case_path):
        out_path = tmp_path / "existing"
        out_path.write_text(text)
        before = out_path.read_bytes()
        code, out, err = run_cli(capsys, "baseline", "--case", sle_case_path,
                                 "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert f"report {out_path}: {reason}" in err
        assert out_path.read_bytes() == before

    @pytest.mark.parametrize("change", ["drop", "rename"])
    def test_report_of_another_case_left_unchanged(self, capsys, tmp_path, change,
                                                   sle_case_path, sle_params_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "decide", "--case", sle_case_path,
                "--params", sle_params_path, "--out", str(report_path))
        before = report_path.read_bytes()
        case = json.loads(pathlib.Path(sle_case_path).read_text())
        if change == "drop":  # x1..x7
            case["alternatives"].pop()
            for expert in case["experts"]:
                expert["table"].pop()
        else:  # x1..x7 and y8
            case["alternatives"][-1] = "y8"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(case))
        n = len(case["alternatives"])
        code, out, err = run_cli(capsys, "baseline", "--case", str(other),
                                 "--out", str(report_path))
        assert code == 1
        assert out == ""
        assert f"final.exit_level does not list the case's {n} alternatives" in err
        assert report_path.read_bytes() == before

    def test_report_with_invalid_parameters_left_unchanged(self, capsys, tmp_path,
                                                          sle_case_path, sle_params_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "decide", "--case", sle_case_path,
                "--params", sle_params_path, "--out", str(report_path))
        report = json.loads(report_path.read_text())
        report["parameters"]["theta"] = 2
        report_path.write_text(json.dumps(report))
        before = report_path.read_bytes()
        code, out, err = run_cli(capsys, "baseline", "--case", sle_case_path,
                                 "--out", str(report_path))
        assert code == 1
        assert out == ""
        assert "theta 2.0 outside (0, 1)" in err
        assert report_path.read_bytes() == before
