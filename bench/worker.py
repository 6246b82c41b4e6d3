"""One fresh process per measurement, so set-up time and peak memory
belong to that workload alone.

    python3 bench/worker.py CASE PARAMS                    print set-up seconds
    python3 bench/worker.py CASE PARAMS SPEC.json RESULT.json   run a workload

Only ``sys`` and ``time`` are imported before set-up is timed, so the
program's own imports are not paid for in advance.
"""

import sys
import time


def setup(root: str, case_path: str, params_path: str):
    """Import the CLI and load both input files; returns (seconds, cli)."""
    sys.path.insert(0, root + "/src")
    start = time.perf_counter()
    import s3wgdm.cli as cli
    cli.load_case(case_path)
    cli.load_params(params_path)
    return time.perf_counter() - start, cli


def run(spec: dict, cli, setup_s: float) -> dict:
    import numpy

    from tracer import Tracer
    from workloads import Runner, fixed_pass, measure, warm_up

    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    runner = Runner(cli, spec)
    if not spec["trace"]:
        metrics, info, samples = measure(runner, spec["seconds"])
        result.update(metrics=metrics, info=info, samples=samples)
    else:
        runner.probe = False  # the traced run reports seconds, not refs
        warm_up(runner)
        untraced = fixed_pass(runner)
        tracer = Tracer()
        runner.tracer = tracer
        with tracer:
            traced = fixed_pass(runner)
        memory = Tracer(memory=True)
        runner.tracer = memory
        with memory:
            fixed_pass(runner)
        runner.tracer = None
        layers = tracer.layer_metrics()
        layers["neighborhood.cut_peak_mb"] = memory.cut_peak_bytes / 2**20
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.peak_mb"] = memory.trace_peak_bytes / 2**20
        tracer.write_spans(spec["spans"])
        result.update(metrics=layers, spans=tracer.self_times(),
                      info={"untraced_s": untraced, "traced_s": traced,
                            "span_count": len(tracer.spans)})
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors)
    return result


def main() -> int:
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    seconds, cli = setup(root, sys.argv[1], sys.argv[2])
    if len(sys.argv) == 3:
        print(repr(seconds))
        return 0
    import json

    with open(sys.argv[3], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec, cli, seconds)
    with open(sys.argv[4], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
