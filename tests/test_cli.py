import csv
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from s3wgdm.caseio import validate_report_dict
from s3wgdm.cli import MAX_GRID_POINTS, _parse_grid, main
from s3wgdm.engine import run_sequential


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
                             sle_case, sle_params):
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

        report = run_sequential(sle_case.experts, sle_case.attributes,
                                sle_params.levels, sle_params.params)
        for level in report.levels:
            with open(tmp_path / f"sim.level{level.index}.csv") as fh:
                header, *body = list(csv.reader(fh))
            assert header[1:] == list(level.universe)
            assert [r[0] for r in body] == list(level.universe)
            sim = np.array([[float(v) for v in r[1:]] for r in body])
            assert (sim == sim.T).all()
            assert (sim.diagonal() == 1.0).all()
            kappa = sle_params.levels[level.index - 1].kappa
            sizes = (sim >= kappa).sum(axis=1).tolist()
            assert sizes == [level.granule_size[a] for a in level.universe]

    def test_bad_levels_flag(self, capsys, sle_case_path, sle_params_path):
        code, _, err = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path, "--levels", "9")
        assert code == 1


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
