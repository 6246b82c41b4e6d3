"""Benchmark entry point.

    python3 bench/run.py --workload sle-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository.  With ``--trace 0``
it measures the end-to-end metrics, with ``--trace 1`` the per-layer
split.  Readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``.bench_out/`` in the checkout, which
also keeps the full result of each run and the spans of the last traced
run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
from workloads import (
    DEFAULT_SEED,
    INGEST_SHAPE,
    SYNTH_PARAMS,
    SYNTH_SHAPE,
    WORKLOADS,
    oracle_fused_checksum,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
DEADLINE_S = 170.0
SETUP_WORKERS = 2  # extra fresh processes timed for setup_s, besides the main worker

END_TO_END = {"setup_s": "s", "call_ref": "ref", "rate_per_ref": "1/ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    "caseio.load_case_s": "s", "caseio.cells_parsed": "count", "syntax.parse_calls": "count",
    "caseio.report_dict_s": "s", "caseio.write_json_s": "s", "caseio.output_bytes": "bytes",
    "syntax.format_s": "s",
    "tables.extract_s": "s", "tables.fuse_s": "s", "tables.orient_s": "s",
    "tables.fused_cells": "count", "tables.fuse_ratio": "ratio",
    "neighborhood.similarity_s": "s", "neighborhood.similarity_pairs": "count",
    "linguistic.gradus_calls": "count", "neighborhood.gradus_per_cell": "calls/cell",
    "neighborhood.cut_s": "s", "neighborhood.granule_members": "count",
    "neighborhood.cut_peak_mb": "MB", "neighborhood.probability_s": "s",
    "neighborhood.membership_s": "s",
    "regret.gains_s": "s", "regret.perceived_s": "s", "regret.comprehensive_s": "s",
    "engine.run_level_s": "s", "engine.levels_run": "count", "engine.universe_rows": "count",
    "engine.rank_s": "s", "engine.rank_calls": "count", "engine.baseline_s": "s",
    "cli.self_s": "s", "cli.sweep_point_s": "s",
    "trace.overhead_s": "s", "trace.peak_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    """nproc, the git commit if the checkout has one, and a digest of
    the program's sources (which identifies it when there is no git)."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=20, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "s3wgdm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def make_inputs(workload: str, seed: int, work: str) -> dict:
    """Write the workload's input files; returns the worker spec."""
    data = os.path.join(ROOT, "tests", "data")
    if workload == "sle-sweep":
        # the bundled case and a fixed grid: the seed changes nothing here
        return {"case": os.path.join(data, "sle_case.json"),
                "params": os.path.join(data, "sle_params.json"),
                "expect": {"n": 8, "m": 6, "cells": 8 * 6 * 3}}
    n, m, e, max_terms = SYNTH_SHAPE if workload == "synth-n1000" else INGEST_SHAPE
    case = gen.case_dict(n, m, e, max_terms, seed)
    case_path = os.path.join(work, "case.json")
    gen.write_case(case_path, case)
    expect = {"n": n, "m": m, "cells": n * m * e}
    if workload == "synth-n1000":
        params_path = os.path.join(work, "params.json")
        with open(params_path, "w", encoding="utf-8") as fh:
            json.dump(SYNTH_PARAMS, fh)
    else:
        params_path = os.path.join(data, "sle_params.json")  # loaded by set-up only
        expect["checksum"] = oracle_fused_checksum(case)[0]
    return {"case": case_path, "params": params_path, "expect": expect}


def _worker(args: list, env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for needed in ("src/s3wgdm/cli.py", "tests/data/sle_case.json", "tests/data/sle_params.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing: run from a checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".bench_out")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        spec = make_inputs(workload, seed, work)
        spec.update(workload=workload, seed=seed, seconds=seconds, trace=trace, tmp=work,
                    spans=os.path.join(results_dir, f"{workload}.spans.jsonl.gz"))
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setups = []
        if not trace:
            setups = [float(_worker([spec["case"], spec["params"]], env, deadline))
                      for _ in range(SETUP_WORKERS)]
        _worker([spec["case"], spec["params"], spec_path, result_path], env, deadline)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    result.update(environment(), workload=workload, seed=seed, seconds=seconds,
                  trace=trace, setup_samples=setups)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Readable lines, then the one-line JSON result."""
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"nproc {result['nproc']}, python {result['python']}, numpy {result['numpy']}, "
          f"commit {result['commit']}, src {result['src_sha256']}")
    units = PER_LAYER if result["trace"] else END_TO_END
    if not result["trace"]:
        for name, figure in result["info"].items():
            if figure is None:
                print(f"  {name:22s} n/a (fewer than 11 calls)")
            elif name == "decide_tail_s":
                value, pct, beyond = figure
                print(f"  {name:22s} {value:.6g} s (p{pct:.1f}, {beyond} calls beyond it)")
            else:
                value, unit, count = figure
                print(f"  {name:22s} {value:.6g} {unit} (from {count} samples)")
        for name, unit in units.items():
            print(f"  {name:22s} {result['metrics'][name]:.6g} {unit}")
    else:
        for name, unit in units.items():
            print(f"  {name:30s} {_fmt(result['metrics'][name])} {unit}")
        engine = result["spans"].get("engine.run_sequential", [0, 0.0, 0.0])[1]
        if engine:
            share = result["metrics"]["neighborhood.similarity_s"] / engine
            print(f"  similarity share of traced engine time: {share:.1%} of {engine:.4g} s")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'error_rate':22s} {rate:.6g} ({result['failed']} failed of "
          f"{result['attempted']} calls)")
    for error in result["errors"]:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description="s3wgdm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
