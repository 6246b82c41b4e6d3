import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
import re
import tempfile
import time
import tracemalloc
import types
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from conftest import SWEEP_GRID, run_group, scored, universe
from hypothesis import example, given, settings
from hypothesis import strategies as st

from s3wgdm import cli, engine, tables
from s3wgdm.caseio import load_case, load_params, validate_report_dict
from s3wgdm.cli import MAX_GRID_POINTS, _parse_grid, main
from s3wgdm.engine import LevelConfig, ScoredTable, rank, run_sequential
from s3wgdm.linguistic import DHLTScale
from s3wgdm.regret import REGIONS


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


def printed_line_by_line(data: dict) -> str:
    """The text summary as ``print`` and "{:.6g}" write it, line by line."""
    out = io.StringIO()
    for level in data["levels"]:
        print(f"level {level['index']}: attributes {{{', '.join(level['attributes'])}}} "
              f"kappa={level['kappa']:.6g} sigma={level['sigma']:.6g}", file=out)
        regions = level["regions"]
        print(f"  POS {regions['POS']}  BND {regions['BND']}  NEG {regions['NEG']}", file=out)
        for alt, pr in level["conditional_probability"].items():
            eu = level["expected_utility"][alt]
            print(f"    {alt}: pr={pr:.6g} accept={eu['accept']:.6g} "
                  f"defer={eu['defer']:.6g} reject={eu['reject']:.6g}", file=out)
    final = data["final"]["regions"]
    print(f"final regions: POS {final['POS']}  BND {final['BND']}  NEG {final['NEG']}", file=out)
    print("final ranking: " + " > ".join(data["final"]["ranking"]), file=out)
    return out.getvalue()


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
                             sle_table, sle_params):
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

        report = run_sequential(sle_table, sle_params.levels, sle_params.params)
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

    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(5e-324)
    @example(-2.2250738585072e-308)
    @example(1e300)
    @settings(max_examples=500, deadline=None)
    def test_percent_template_is_format_spec(self, x):
        """The text summary fills "%.6g" templates where it once formatted
        with "{:.6g}": both must write every double alike."""
        assert "%.6g" % x == f"{x:.6g}"

    @pytest.mark.parametrize("rename", [False, True], ids=["bundled", "percent-ids"])
    def test_text_summary_is_one_print_per_line(self, rename, capsys, tmp_path, sle_case_path,
                                                sle_params_path):
        """The text summary, written a level at a time from templates, is
        the text of printing its report a line at a time, also when the ids
        hold the templates' own % signs."""
        case_path = tmp_path / "case.json"
        text = pathlib.Path(sle_case_path).read_text()
        if rename:
            text = re.sub(r'"a(\d)"', r'"%.6g%%\1"', re.sub(r'"x(\d)"', r'"%s%\1"', text))
        case_path.write_text(text)
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "decide", "--case", str(case_path),
                               "--params", sle_params_path, "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert ("%s%1: pr=" in out and "attributes {%.6g%%" in out) == rename
        assert out == printed_line_by_line(report)

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

    def test_decide_scores_once(self, capsys, tmp_path, monkeypatch, sle_case_path,
                                sle_params_path):
        """decide scores the group table once, and both rankings read it
        through their cli names."""
        calls = dict.fromkeys(("superior_gradus_array", "run_sequential",
                               "baseline_full_fusion"), 0)
        monkeypatch.setattr(engine, "superior_gradus_array",
                            counting(calls, "superior_gradus_array",
                                     engine.superior_gradus_array))
        for name in ("run_sequential", "baseline_full_fusion"):
            monkeypatch.setattr(cli, name, counting(calls, name, getattr(cli, name)))
        code, _, _ = run_cli(capsys, "decide", "--case", sle_case_path,
                             "--params", sle_params_path,
                             "--out", str(tmp_path / "report.json"))
        assert code == 0
        assert calls == {"superior_gradus_array": 1, "run_sequential": 1,
                         "baseline_full_fusion": 1}

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
                               "shared_granule_statistics", "comprehensive_utilities"), 0)
        for name in calls:
            monkeypatch.setattr(engine, name, counting(calls, name, getattr(engine, name)))
        cuts = []
        shared = engine.shared_granule_statistics

        def recording(scores, parts, pairs, bounds, uses):
            cuts.extend(zip(*uses))
            return shared(scores, parts, pairs, bounds, uses)

        monkeypatch.setattr(engine, "shared_granule_statistics", recording)
        argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path]
        for grid in SWEEP_GRID:
            argv += ["--grid", grid]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        assert "swept 330 grid points" in err
        # the table is scored once and the 4 levels' memberships found in one
        # call; the 800 levels the points run hold 23 distinct (level,
        # universe) inputs, and each level is one run_level call for all of
        # its universes, whose one granule call computes that level's share
        # of the 307 distinct (universe, sigma, kappa), and whose one utility
        # call every (universe, eta) its points use
        assert calls == {"superior_gradus_array": 1, "run_level": 4,
                         "membership_degrees": 1, "shared_granule_statistics": 4,
                         "comprehensive_utilities": 4}
        assert len(cuts) == 307


class TestParserBuiltOnce:
    def test_commands_are_looked_up_as_main_runs(self, capsys, monkeypatch, sle_case_path,
                                                 sle_params_path):
        """The parser is built once per process, and main finds each
        command's function in the module when it runs it, so a replaced
        cmd_decide is the one called after a first main."""
        assert run_cli(capsys, "validate", "--case", sle_case_path)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_decide", lambda args: seen.append(args.case) or 0)
        code, out, _ = run_cli(capsys, "decide", "--case", sle_case_path,
                               "--params", sle_params_path)
        assert (code, out, seen) == (0, "", [sle_case_path])
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [["decide", "--case", "case.json"], ["solve"], []])
    def test_usage_errors_exit_2_with_the_same_text(self, capsys, argv):
        texts = []
        for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as info:
                parser.parse_args(argv)
            assert info.value.code == 2
            texts.append(capsys.readouterr().err)
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[0].startswith("usage: s3wgdm")
        assert texts == [texts[0]] * 4


# sigmas inside and past both limits of 2 sigma^2, and whether each is refused
KERNEL_WIDTHS = [(1e-160, 0), (1e-200, 1), (9e153, 0), (1e154, 1), (1e200, 1)]


class TestKernelWidthLimits:
    """A sigma with 2 sigma^2 == 0.0 would give identical rows a NaN
    similarity, and one with 2 sigma^2 == inf every pair a similarity of
    exactly 1.0; sigmas just inside both limits still run."""

    @pytest.mark.parametrize("sigma, code", KERNEL_WIDTHS)
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
            limit = "too small" if sigma < 1 else "too large"
            assert f"  - levels[0]: sigma {sigma} is {limit}" in err

    @pytest.mark.parametrize("sigma, code", KERNEL_WIDTHS)
    def test_sweep(self, capsys, sle_case_path, sle_params_path, sigma, code):
        got, _, err = run_cli(capsys, "sweep", "--case", sle_case_path, "--params",
                              sle_params_path, "--grid", f"sigma={sigma}")
        assert got == code
        if code:
            assert f"sigma {sigma} is {'too small' if sigma < 1 else 'too large'}" in err


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


class TestInputProblems:
    """Each input problem exits 1 with its message, and is found before
    any run starts."""

    @staticmethod
    def edited(tmp_path, path, edit):
        """The JSON document at ``path``, changed by ``edit``, written to
        ``tmp_path`` under the same name."""
        with open(path) as fh:
            data = json.load(fh)
        edit(data)
        out = tmp_path / pathlib.Path(path).name
        out.write_text(json.dumps(data))
        return str(out)

    def test_monotonicity_override(self, capsys, tmp_path, sle_case_path, sle_params_path):
        params = self.edited(tmp_path, sle_params_path,
                             lambda d: d["levels"][1].update(kappa=0.5))
        argv = ["decide", "--case", sle_case_path, "--params", params]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == ("invalid input: cut thresholds must be non-decreasing across levels "
                       "(pass the monotonicity override to allow this)\n")
        code, _, _ = run_cli(capsys, *argv, "--override-monotonicity")
        assert code == 0

    @pytest.mark.parametrize("edit, problems", [
        (lambda d: (d["experts"][0].update(weight=1.5), d["experts"][1].update(weight=-0.7)),
         ["experts[0]: expert weight 1.5 outside [0, 1]",
          "experts[1]: expert weight -0.7 outside [0, 1]"]),
        (lambda d: d["attributes"][1].update(id=d["attributes"][0]["id"]),
         ["attribute ids are not unique"]),
        (lambda d: d["experts"][1].update(id=d["experts"][0]["id"]),
         ["expert ids are not unique"]),
    ], ids=["expert-weights-outside", "duplicate-attributes", "duplicate-experts"])
    def test_case_problems(self, capsys, tmp_path, sle_case_path, sle_params_path, edit,
                           problems):
        # weights 1.5, -0.7 and 0.2 still sum to 1: only their range is wrong
        case = self.edited(tmp_path, sle_case_path, edit)
        code, _, err = run_cli(capsys, "decide", "--case", case, "--params", sle_params_path)
        assert code == 1
        assert err.splitlines() == ["invalid input:"] + [f"  - {p}" for p in problems]

    @pytest.mark.parametrize("grid, problem", [
        ("eta", "grid spec 'eta' must look like name=start:stop:step"),
        ("eta=0:1", "grid spec 'eta=0:1': expected start:stop:step"),
        ("eta=0:1:0", "grid spec 'eta=0:1:0': step must be positive"),
    ])
    def test_malformed_grid(self, capsys, tmp_path, sle_case_path, sle_params_path, grid,
                            problem):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path, "--params",
                               sle_params_path, "--grid", grid, "--out", str(out_path))
        assert code == 1
        assert err.splitlines() == ["invalid input:", f"  - {problem}"]
        assert not out_path.exists()


# fused subscripts: -0.0 beside 0.0, whole numbers and others, drawn into
# a small pool so that cells repeat
fused_subscripts = st.lists(
    st.sampled_from([-0.0, 0.0, 1.0, -2.0, 3.0, 0.5, 1 / 3, 1e-20, -1e16, 5e-324])
    | st.floats(-3, 3), min_size=1, max_size=8)
# n, m: empty tables, one column, and m = 6 rows that end a slice of
# BULK_CELLS cells, straddle it, or fill two and start a third
fused_shapes = (st.sampled_from([(0, 6), (0, 0), (3, 0), (5, 1), (170, 6), (171, 6), (341, 6)])
                | st.tuples(st.integers(0, 4), st.integers(0, 4)))


def fuse_output(fused, out=None) -> bytes:
    """The bytes ``fuse`` writes for a case that fuses to ``fused``: to
    the ``out`` file, or to stdout without it."""
    stdout = io.StringIO()
    with mock.patch.object(cli, "load_case", lambda path: types.SimpleNamespace(experts=())), \
            mock.patch.object(cli, "fuse_dhhflmwa", lambda experts: fused), \
            contextlib.redirect_stdout(stdout):
        assert main(["fuse", "--case", "case.json"] + (["--out", out] if out else [])) == 0
    if out is None:
        return stdout.getvalue().encode("utf-8")
    assert stdout.getvalue() == ""
    return pathlib.Path(out).read_bytes()


class TestFuse:
    @given(fused_shapes, fused_subscripts, st.integers(0, 2 ** 32 - 1))
    @example((2, 3), [-0.0, 0.0], 0)
    @example((170, 6), [-0.0, 0.0, 2.0], 1)
    @example((171, 6), [-0.0, 0.0, 2.0], 2)
    @example((341, 6), [-0.0, 0.0, 2.0, 1 / 3], 3)
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_the_stdlib_layout(self, shape, pool, seed):
        """``fuse --out`` and ``fuse`` to stdout write the fused table's
        cells, read through ``tolist``, in the standard library's layout."""
        n, m = shape
        pick = np.random.default_rng(seed).integers(len(pool), size=(n, m, 2))
        fused = tables.FusedDecisionTable(
            alternatives=tuple(f"x{i}" for i in range(n)),
            attributes=tuple(f"a{j}" for j in range(m)),
            means=np.array(pool)[pick], scale=DHLTScale(10 ** 17, 10 ** 17),
            expert_ids=("E1", "E2"), expert_weights=(0.25, 0.75))
        materialized = dict(cli.fused_table_dict(fused))
        materialized["cells"] = materialized["cells"].tolist()
        want = (json.dumps(materialized, indent=2, sort_keys=True, allow_nan=False)
                + "\n").encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            assert fuse_output(fused, str(pathlib.Path(tmp) / "fused.json")) == want
        assert fuse_output(fused) == want

    @pytest.mark.parametrize("out", [True, False])
    def test_calls_the_tracer_names(self, capsys, tmp_path, monkeypatch, sle_case_path, out):
        """``fuse`` builds its table through ``cli.fused_table_dict`` and
        writes the ``--out`` file through ``cli.write_json``, the names the
        benchmark's tracer wraps to time them and size the output."""
        calls = []
        for name in ("fused_table_dict", "write_json"):
            original = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, _name=name, _fn=original:
                                calls.append((_name, args)) or _fn(*args))
        out_path = str(tmp_path / "fused.json")
        code, *_ = run_cli(capsys, "fuse", "--case", sle_case_path,
                           *(["--out", out_path] if out else []))
        assert code == 0
        assert [name for name, _ in calls] == ["fused_table_dict"] + ["write_json"] * out
        if out:
            assert calls[1][1][0] == out_path

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
        calls = {"sweep_outcomes": 0}
        monkeypatch.setattr(cli, "sweep_outcomes",
                            counting(calls, "sweep_outcomes", engine.sweep_outcomes))
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", "eta=0.5:1.5:0.5",
                               "--grid", "kappa=0:2:0.5", "--grid", "sigma=-0.5:0.5:0.5",
                               "--grid", "theta=0:1:0.5", "--grid", "delta=0:1000:500")
        assert code == 1
        assert calls == {"sweep_outcomes": 0}
        assert [line for line in err.splitlines() if line.startswith("  - ")] == [
            "  - grid spec 'eta=0.5:1.5:0.5': eta 1.5 outside [0, 1]",
            "  - grid spec 'kappa=0:2:0.5': kappa 1.5 outside [0, 1]",
            "  - grid spec 'kappa=0:2:0.5': kappa 2.0 outside [0, 1]",
            "  - grid spec 'sigma=-0.5:0.5:0.5': sigma must be positive and finite, got -0.5",
            "  - grid spec 'sigma=-0.5:0.5:0.5': sigma must be positive and finite, got 0.0",
            "  - grid spec 'theta=0:1:0.5': theta 0.0 outside (0, 1)",
            "  - grid spec 'theta=0:1:0.5': theta 1.0 outside (0, 1)",
            "  - grid spec 'delta=0:1000:500': delta 1000.0 is too large: regret exp "
            f"overflows above {engine.MAX_DELTA:.6g}",
        ]

    def test_unknown_grid_parameter_rejected(self, capsys, sle_case_path, sle_params_path):
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path,
                               "--params", sle_params_path, "--grid", "tau=0:1:0.5")
        assert code == 1
        assert "grid parameter must be one of eta, theta, delta, sigma, kappa, got 'tau'" \
            in err

    def test_chunked_sweep_writes_the_same_bytes(self, capsys, monkeypatch, tmp_path,
                                                 sle_case_path, sle_params_path):
        """A grid walked in chunks of one, three or all points writes the
        same CSV: chunks are independent walks over one scored table."""
        argv = ["sweep", "--case", sle_case_path, "--params", sle_params_path,
                "--grid", "eta=0:1:0.25", "--grid", "sigma=0.3:0.9:0.3",
                "--grid", "kappa=0:1:0.5", "--grid", "theta=0.5:0.88:0.38"]
        written = []
        for cells in (engine.SWEEP_CELLS, 3 * 8, 1):  # the bundled case has 8 alternatives
            monkeypatch.setattr(engine, "SWEEP_CELLS", cells)
            out_path = tmp_path / f"sweep{cells}.csv"
            code, _, err = run_cli(capsys, *argv, "--out", str(out_path))
            assert code == 0
            assert "swept 90 grid points" in err
            written.append(out_path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize("error, code, message", [
        (ValueError, 1, "invalid input: decision level 2: cut refused"),
        (KeyError, 2, "error: decision level 2 failed: 'cut refused'"),
    ])
    def test_point_failing_inside_a_level(self, capsys, monkeypatch, tmp_path, sle_case_path,
                                          sle_params_path, error, code, message):
        """A fault inside a level of a sweep ends it with that level's
        error, as ``decide`` reports it, and no CSV is written."""
        shared = engine.shared_granule_statistics
        groups = []

        def refusing(scores, parts, cuts, bounds, uses):
            if bounds[1] < 8:  # level 2 on: the bundled case's universes shrink
                groups.append(len(bounds) - 1)
                raise error("cut refused")
            return shared(scores, parts, cuts, bounds, uses)

        monkeypatch.setattr(engine, "shared_granule_statistics", refusing)
        out_path = tmp_path / "sweep.csv"
        got, _, err = run_cli(capsys, "sweep", "--case", sle_case_path, "--params",
                              sle_params_path, "--grid", "eta=0.6:1:0.4",
                              "--grid", "sigma=0.5:0.7:0.1", "--out", str(out_path))
        assert groups and groups[0] > 1  # the failing level holds several groups
        assert got == code
        assert err.strip() == message
        assert not out_path.exists()

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

    @pytest.mark.parametrize("grid, values", [
        ("sigma=1e-13:5e-13:1e-13", [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]),
        ("sigma=1e-13", [1e-13]),
        ("eta=0:1:0.1", [k / 10 for k in range(11)]),
    ])
    def test_grid_values_keep_twelve_digits(self, capsys, tmp_path, sle_case_path,
                                            sle_params_path, grid, values):
        """A range's values are rounded to 12 significant digits, not 12
        decimals, so small values survive and float noise still goes."""
        assert _parse_grid([grid])[grid.partition("=")[0]] == values
        code, _, err = run_cli(capsys, "sweep", "--case", sle_case_path, "--params",
                               sle_params_path, "--grid", grid,
                               "--out", str(tmp_path / "sweep.csv"))
        assert code == 0 and f"swept {len(values)} grid points" in err


# --grid specs per parameter.  Each range is rounded to 12 significant
# digits, so a step of 1e-13 near 0.3 gives four copies of one value:
# repeated grid points.
GRID_OPTIONS = {
    "eta": ("eta=0:1:0.5", "eta=0.6", "eta=0.3:0.3000000000003:1e-13"),
    "theta": ("theta=0.5:0.9:0.2", "theta=0.88"),
    "delta": ("delta=0:0.6:0.3", "delta=0", "delta=0.3:0.3000000000003:1e-13"),
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
    names = draw(st.lists(st.sampled_from(sorted(GRID_OPTIONS)), min_size=1, max_size=4,
                          unique=True))
    return case, params, [draw(st.sampled_from(GRID_OPTIONS[name])) for name in names]


def written(tmp, case_doc, params_doc):
    """The case and params documents, written into ``tmp`` and loaded."""
    (tmp / "case.json").write_text(json.dumps(case_doc))
    (tmp / "params.json").write_text(json.dumps(params_doc))
    return load_case(str(tmp / "case.json")), load_params(str(tmp / "params.json"))


def point_run(spec, point):
    """The level configurations and parameters of a grid ``point``."""
    params = replace(spec.params, eta=point.get("eta", spec.params.eta),
                     theta=point.get("theta", spec.params.theta),
                     delta=point.get("delta", spec.params.delta))
    levels = tuple(LevelConfig(kappa=point.get("kappa", c.kappa),
                               sigma=point.get("sigma", c.sigma)) for c in spec.levels)
    return levels, params


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sweep_inputs())
def test_sweep_rows_match_fresh_runs(inputs):
    """Every sweep row equals a fresh ``run_sequential`` at its point."""
    case_doc, params_doc, grids = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        case, spec = written(tmp, case_doc, params_doc)
        argv = ["sweep", "--case", str(tmp / "case.json"), "--params",
                str(tmp / "params.json"), "--out", str(tmp / "sweep.csv")]
        for grid in grids:
            argv += ["--grid", grid]
        assert main(argv) == 0
        with open(tmp / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    table = scored(case.experts, case.attributes)
    for row in rows:
        levels, params = point_run(spec, {name: float(row[name])
                                          for name in GRID_OPTIONS if name in row})
        fresh = run_sequential(table, levels, params)
        for i in range(1, len(levels) + 1):
            regions = fresh.regions_after(i)
            assert [int(row[f"{r.lower()}_{i}"]) for r in REGIONS] == \
                [len(regions[r]) for r in REGIONS]
        assert row["final_ranking"].split(">") == \
            rank(fresh, key=spec.rank.key, neg_direction=spec.rank.neg_direction)


REPEATED_POINTS = (
    {"scale": {"tau": 3, "sigma_scale": 3}, "alternatives": ["x1", "x2", "x3"],
     "attributes": [{"id": "a1", "weight": 0.5, "align_with_concept": True},
                    {"id": "a2", "weight": 0.5, "align_with_concept": False}],
     "experts": [{"id": "E1", "weight": 1.0,
                  "table": [["{s_1<o_0>}", "{s_0<o_1>}"], ["{s_1<o_0>}", "{s_0<o_1>}"],
                            ["{s_-2<o_1>,s_0<o_0>}", "{s_2<o_-1>}"]]}]},
    {"eta": 0.6, "theta": 0.88, "delta": 0.3, "levels": [{"kappa": 0.5, "sigma": 0.7}]},
    ["eta=0.3:0.3000000000003:1e-13", "kappa=0:1:0.5"],
)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(REPEATED_POINTS)
@given(sweep_inputs())
def test_walk_levels_match_fresh_runs(inputs):
    """Each level :func:`engine.walk` yields for a set of points holds, in
    the cells of every one of its points, the fresh ``run_sequential``
    level of that point bit for bit, and every point's every level is
    yielded once."""
    case_doc, params_doc, grids = inputs
    with tempfile.TemporaryDirectory() as tmp:
        case, spec = written(pathlib.Path(tmp), case_doc, params_doc)
    grid = _parse_grid(grids)
    names = sorted(grid)
    runs = [point_run(spec, dict(zip(names, values)))
            for values in itertools.product(*(grid[name] for name in names))]
    fresh = [run_sequential(scored(case.experts, case.attributes), levels, params)
             for levels, params in runs]
    seen = []
    table = scored(case.experts, case.attributes)
    for i, points, level in engine.walk(table, [levels for levels, _ in runs],
                                        [p for _, p in runs], np.arange(len(runs)),
                                        np.arange(len(runs))):
        for g, p in enumerate(points.tolist()):
            seen.append((p, i))
            want = fresh[p].levels[i - 1]
            cells = level.cell_point == g
            assert np.array_equal(level.rows[level.cell_row[cells]], want.rows)
            for name in ("sizes", "pr", "utilities", "expected", "region"):
                assert np.array_equal(getattr(level, name)[cells], getattr(want, name)), name
    assert sorted(seen) == [(p, i) for p, report in enumerate(fresh)
                            for i in range(1, len(report.levels) + 1)]


# points whose level-2 groups differ but whose level-2 BND rows agree, so
# that they meet again in one level-3 group
MERGING_POINTS = (
    {"scale": {"tau": 3, "sigma_scale": 3}, "alternatives": ["x1", "x2", "x3", "x4", "x5"],
     "attributes": [{"id": f"a{j}", "weight": j / 6, "align_with_concept": True}
                    for j in (1, 2, 3)],
     "experts": [{"id": "E1", "weight": 1.0,
                  "table": [["{s_1<o_-2>}", "{s_-2<o_3>}", "{s_2<o_1>}"],
                            ["{s_3<o_-3>}", "{s_2<o_-3>}", "{s_-1<o_-3>}"],
                            ["{s_3<o_-3>}", "{s_2<o_3>}", "{s_1<o_3>}"],
                            ["{s_-3<o_1>}", "{s_3<o_0>}", "{s_-2<o_-2>}"],
                            ["{s_3<o_-2>}", "{s_0<o_2>}", "{s_1<o_-2>}"]]}]},
    {"eta": 0.6, "theta": 0.88, "delta": 0.3, "levels": [{"kappa": 0.5, "sigma": 0.7}] * 3},
    ["kappa=0:1:0.5", "sigma=0.3:0.9:0.3"],
)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(REPEATED_POINTS)
@example(MERGING_POINTS)
@given(sweep_inputs())
def test_walk_groups_are_maximal(inputs):
    """At every level :func:`engine.walk` yields, no two groups share a
    universe (each distinct universe is run once), and each group holds
    exactly the points whose previous-level BND rows, in a fresh
    ``run_sequential``, are that universe."""
    case_doc, params_doc, grids = inputs
    with tempfile.TemporaryDirectory() as tmp:
        case, spec = written(pathlib.Path(tmp), case_doc, params_doc)
    grid = _parse_grid(grids)
    names = sorted(grid)
    runs = [point_run(spec, dict(zip(names, values)))
            for values in itertools.product(*(grid[name] for name in names))]
    fresh = [run_sequential(scored(case.experts, case.attributes), levels, params)
             for levels, params in runs]
    table = scored(case.experts, case.attributes)
    everything = tuple(range(len(table.fused.alternatives)))
    for i, points, level in engine.walk(table, [levels for levels, _ in runs],
                                        [p for _, p in runs], np.arange(len(runs)),
                                        np.arange(len(runs))):
        got: dict = {}
        for g, p in enumerate(points.tolist()):
            universe = level.rows[level.cell_row[level.cell_point == g]]
            got.setdefault(tuple(universe.tolist()), []).append(p)
        assert len(level.rows) == sum(map(len, got))
        got = {universe: sorted(points) for universe, points in got.items()}
        want: dict = {}
        for p, report in enumerate(fresh):
            if i == 1:
                want.setdefault(everything, []).append(p)
            elif len(report.levels) >= i:
                prev = report.levels[i - 2]
                bnd = tuple(prev.rows[prev.region == engine.BND].tolist())
                want.setdefault(bnd, []).append(p)
        assert got == want


class TestScoredTable:
    def test_run_sequential_scores_the_table_once(self, monkeypatch, sle_case, sle_group,
                                                  sle_params):
        calls = {"superior_gradus_array": 0}
        monkeypatch.setattr(engine, "superior_gradus_array",
                            counting(calls, "superior_gradus_array",
                                     engine.superior_gradus_array))
        table = ScoredTable(sle_group, sle_case.attributes)
        report = run_sequential(table, sle_params.levels, sle_params.params)
        assert len(report.levels) > 1
        assert calls == {"superior_gradus_array": 1}

    def test_gather_matches_scoring_the_cells(self, sle_table, sle_group):
        phi, varphi = sle_group.subscripts()
        rows = np.array([3, 0, 2])
        for i in range(1, len(sle_table.subsets) + 1):
            cols, _, weights, parts = sle_table.level(i)
            cells = np.ix_(rows, cols)
            assert np.array_equal(sle_table.scores[cells], engine.superior_gradus_array(
                phi[cells], varphi[cells], sle_group.scale))
            assert np.array_equal(parts[rows], engine.membership_parts(engine.membership_degrees(
                phi[cells], varphi[cells], weights, sle_group.scale)))

    def test_level_columns_and_weights(self, sle_case, sle_group):
        table = ScoredTable(sle_group, sle_case.attributes)
        for i, subset in enumerate(table.subsets, start=1):
            cols, z, weights, parts = table.level(i)
            assert table.level(i) is table.level(i)
            membership = engine.membership_degrees(table.phi[:, cols], table.varphi[:, cols],
                                                   weights, sle_group.scale)
            assert parts.shape == (len(sle_group.alternatives), 4)
            assert np.array_equal(parts, engine.membership_parts(membership))
            assert z == tuple(sle_group.attributes[j] for j in cols)
            assert set(z) == set(subset)
            assert list(cols) == sorted(cols)
            want = tables.renormalize_weights(sle_case.attributes, z)
            assert weights == [want[a] for a in z]
            assert math.isclose(sum(weights), 1.0)

    def test_refuses_attribute_weights_off_one(self, sle_case, sle_group):
        attrs = [replace(a, weight=2 * a.weight) for a in sle_case.attributes]
        with pytest.raises(ValueError, match="attribute weights sum to"):
            ScoredTable(sle_group, attrs)

    def test_run_level_points_match_one_point_runs(self, monkeypatch, sle_table, sle_params):
        rows = np.arange(len(sle_table.fused.alternatives))
        base_cfg, base = sle_params.levels[0], sle_params.params
        cfgs = [base_cfg, replace(base_cfg, kappa=0.5)]
        params = [base, replace(base, eta=0.25)]
        cfg_ids, param_ids = [0, 1, 0], [0, 0, 1]  # per point, into cfgs and params
        alone = [run_group(rows, sle_table, 1, [cfgs[c]], [params[p]], [0], [0])
                 for c, p in zip(cfg_ids, param_ids)]
        calls = dict.fromkeys(("shared_granule_statistics", "comprehensive_utilities"), 0)
        for name in calls:
            monkeypatch.setattr(engine, name, counting(calls, name, getattr(engine, name)))
        level = run_group(rows, sle_table, 1, cfgs, params, cfg_ids, param_ids)
        assert calls == {"shared_granule_statistics": 1, "comprehensive_utilities": 1}
        for g, want in enumerate(alone):
            for name in ("sizes", "pr", "utilities", "expected", "region"):
                assert np.array_equal(getattr(level, name)[level.cell_point == g],
                                      getattr(want, name)), name


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

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_report_with_non_finite_number_left_unchanged(self, capsys, tmp_path, number,
                                                         sle_case_path, sle_params_path):
        """A number the writer would refuse half way through the rewrite is
        refused as the report is read, before anything is written."""
        report_path = tmp_path / "report.json"
        run_cli(capsys, "decide", "--case", sle_case_path,
                "--params", sle_params_path, "--out", str(report_path))
        report = json.loads(report_path.read_text())
        report["metadata"]["note"] = "@"
        report_path.write_text(json.dumps(report, indent=2).replace('"@"', number))
        before = report_path.read_bytes()
        code, out, err = run_cli(capsys, "baseline", "--case", sle_case_path,
                                 "--out", str(report_path))
        assert code == 1
        assert out == ""
        assert f"report {report_path}: not a decide report: {number} is not a finite number" \
            in err
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
