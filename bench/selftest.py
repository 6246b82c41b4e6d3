"""Self-tests of the benchmark itself: ``python3 bench/selftest.py``.

They show that the generator is deterministic, that every output check
can fail (a corrupted output raises the error count), that the tracer
leaves no wrapper behind, and that BENCHMARK.json names what run.py
prints.  They use small cases and take a few seconds.
"""

import importlib
import json
import os
import shutil
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTED, TIMED, Tracer  # noqa: E402

import s3wgdm.cli as cli  # noqa: E402

SMALL_SEED = 7  # not the default seed, so pinned digests do not apply


class Scratch(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="bench-selftest-")
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def spec(self, workload: str, n: int = 40) -> dict:
        if workload == "sle-sweep":
            spec = run.make_inputs(workload, SMALL_SEED, self.tmp)
        else:
            case = gen.case_dict(n, 6, 3, 3, SMALL_SEED)
            path = os.path.join(self.tmp, "case.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case, fh)
            params = os.path.join(self.tmp, "params.json")
            with open(params, "w", encoding="utf-8") as fh:
                json.dump(workloads.SYNTH_PARAMS, fh)
            spec = {"case": path, "params": params,
                    "expect": {"n": n, "m": 6, "cells": n * 18,
                               "checksum": workloads.oracle_fused_checksum(case)[0]}}
        spec.update(workload=workload, seed=SMALL_SEED, tmp=self.tmp)
        return spec


def corrupting(runner: workloads.Runner, method: str, corrupt) -> None:
    """Make ``runner`` damage each output file before checking it."""
    check = getattr(runner, method)

    def damaged(path):
        corrupt(path)
        return check(path)

    setattr(runner, method, damaged)


def edit_json(path: str, change) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


class GeneratorTest(unittest.TestCase):
    @staticmethod
    def text(seed: int) -> str:
        return gen.case_text(gen.case_dict(50, 6, 3, 3, seed))

    def test_same_seed_same_bytes(self):
        self.assertEqual(self.text(11), self.text(11))

    def test_other_seed_other_case(self):
        self.assertNotEqual(self.text(11), self.text(12))

    def test_case_shape(self):
        case = gen.case_dict(30, 6, 3, 3, 11)
        weights = [a["weight"] for a in case["attributes"]]
        self.assertEqual(len(set(weights)), 6)  # six nested levels
        self.assertEqual(sum(not a["align_with_concept"] for a in case["attributes"]), 2)
        self.assertEqual([len(x["table"]) for x in case["experts"]], [30, 30, 30])


class CheckerTest(Scratch):
    """Each check passes a real output and fails a damaged one."""

    def run_call(self, workload: str, call: str, method: str = "", corrupt=None) -> tuple:
        runner = workloads.Runner(cli, self.spec(workload))
        if corrupt is not None:
            corrupting(runner, method, corrupt)
        getattr(runner, call)()
        return runner.failed, runner.attempted

    def assert_check(self, workload: str, call: str, method: str, corrupt) -> None:
        self.assertEqual(self.run_call(workload, call), (0, 1))
        self.assertEqual(self.run_call(workload, call, method, corrupt), (1, 1))

    def test_sle_report(self):
        def swap(data):
            regions = data["levels"][0]["regions"]
            regions["POS"], regions["NEG"] = regions["NEG"], regions["POS"]
        self.assert_check("sle-sweep", "decide", "check_sle_report",
                          lambda p: edit_json(p, swap))

    def test_sweep(self):
        def drop_row(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:-1])
        self.assert_check("sle-sweep", "sweep", "check_sweep", drop_row)

    def test_synth_report(self):
        def bad_probability(data):
            level = data["levels"][0]
            level["conditional_probability"][level["universe"][0]] = 1.5
        self.assert_check("synth-n1000", "decide", "check_synth_report",
                          lambda p: edit_json(p, bad_probability))

    def test_fused_table(self):
        def swap_cells(data):
            row = data["cells"][0]
            row[0], row[1] = row[1], row[0]
        self.assert_check("ingest-n5000", "fuse", "check_fused",
                          lambda p: edit_json(p, swap_cells))

    def test_baseline(self):
        runner = workloads.Runner(cli, self.spec("ingest-n5000"))
        runner.baseline()
        self.assertEqual(runner.failed, 0)
        self.assertNotEqual(runner.check_baseline("baseline ranking: x1 > x1 > x2\n"), [])

    def test_failed_call_counts(self):
        runner = workloads.Runner(cli, self.spec("sle-sweep"))
        runner.spec["case"] = os.path.join(self.tmp, "missing.json")
        runner.decide()
        self.assertEqual((runner.failed, runner.attempted), (1, 1))


class TracerTest(Scratch):
    def originals(self) -> dict:
        return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TIMED + COUNTED}

    def test_wrappers_removed(self):
        before = self.originals()
        runner = workloads.Runner(cli, self.spec("sle-sweep"))
        tracer = Tracer()
        runner.tracer = tracer
        with tracer:
            runner.decide()
        self.assertEqual(runner.failed, 0)
        self.assertGreater(len(tracer.spans), 10)
        self.assertTrue(all(before[k] is v for k, v in self.originals().items()))
        layers = tracer.layer_metrics()
        self.assertEqual(layers["engine.levels_run"], 4)
        self.assertGreater(layers["neighborhood.similarity_s"], 0)

    def test_wrappers_removed_after_error(self):
        before = self.originals()
        with self.assertRaises(RuntimeError):
            with Tracer(memory=True):
                raise RuntimeError("inside the traced block")
        self.assertTrue(all(before[k] is v for k, v in self.originals().items()))

    def test_self_time(self):
        tracer = Tracer()
        tracer.spans = [("outer", 0.0, 10.0, -1, 1), ("inner", 2.0, 5.0, 0, 1),
                        ("inner", 6.0, 7.0, 0, 1)]
        table = tracer.self_times()
        self.assertEqual(table["outer"], [1, 10.0, 6.0])
        self.assertEqual(table["inner"], [2, 4.0, 4.0])


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), workloads.WORKLOADS)

    def test_tail(self):
        self.assertIsNone(workloads.tail(list(range(10))))
        value, _, beyond = workloads.tail(list(range(100)))
        self.assertEqual((value, beyond), (89, 10))


if __name__ == "__main__":
    unittest.main()
