"""Command-line front end.

Commands: ``validate``, ``decide``, ``fuse``, ``sweep``, ``baseline``.
Exit codes: 0 on success, 1 on input validation failure, 2 on runtime error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import replace
from operator import itemgetter

import numpy as np

from .caseio import (
    CaseFormatError,
    ParamsFile,
    RankOptions,
    case_summary,
    dump_json,
    fused_table_dict,
    load_case,
    load_params,
    report_dict,
    validate_params_dict,
    validate_report_dict,
    write_json,
)
from .engine import (
    NEG_DIRECTIONS,
    EngineParams,
    LevelConfig,
    ScoredTable,
    baseline_full_fusion,
    run_sequential,
    sweep_outcomes,
)
from .engine import rank  # noqa: F401  (bench/tracer.py times rank where cli looks it up)
from .neighborhood import similarity_blocks
from .regret import REGIONS
from .tables import fuse_dhhflmwa, orient_to_concept

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

# a sweep grid with more points than this is rejected before it is built
MAX_GRID_POINTS = 100_000
# one alternative's line of the text summary; "%.6g" writes what "{:.6g}" does
_ALTERNATIVE_LINE = "    %s: pr=%.6g accept=%.6g defer=%.6g reject=%.6g\n"


def _apply_overrides(spec: ParamsFile, args) -> ParamsFile:
    if args.levels is not None:
        if args.levels < 1 or args.levels > len(spec.levels):
            raise CaseFormatError(
                [f"--levels must be between 1 and {len(spec.levels)}"])
        spec = replace(spec, levels=spec.levels[:args.levels])
    if args.neg_direction:
        spec = replace(spec, rank=RankOptions(key=spec.rank.key,
                                              neg_direction=args.neg_direction))
    if args.override_monotonicity:
        spec = replace(spec, monotonicity_override=True)
    return spec


def _group_table(case) -> ScoredTable:
    """The scored group table every engine call of a command reads."""
    return ScoredTable(orient_to_concept(fuse_dhhflmwa(case.experts), case.attributes),
                       case.attributes)


def _print_report(out, data: dict) -> None:
    """Text summary of a report dict as ``report_dict`` built it: one
    write per level, each alternative's line filled from one template."""
    for level in data["levels"]:
        regions = level["regions"]
        pr = level["conditional_probability"]
        utilities = list(map(level["expected_utility"].__getitem__, pr))
        values = itertools.chain.from_iterable(zip(pr, pr.values(), *(
            map(itemgetter(action), utilities) for action in ("accept", "defer", "reject"))))
        out.write("level %s: attributes {%s} kappa=%.6g sigma=%.6g\n" % (
            level["index"], ", ".join(level["attributes"]), level["kappa"], level["sigma"])
            + f"  POS {regions['POS']}  BND {regions['BND']}  NEG {regions['NEG']}\n"
            + _ALTERNATIVE_LINE * len(pr) % tuple(values))
    final = data["final"]["regions"]
    out.write(f"final regions: POS {final['POS']}  BND {final['BND']}  NEG {final['NEG']}\n"
              "final ranking: " + " > ".join(data["final"]["ranking"]) + "\n")


def cmd_validate(args) -> int:
    try:
        case = load_case(args.case)
    except CaseFormatError as exc:
        print("case file is invalid:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_INVALID
    summary = case_summary(case)
    print(f"valid case: n={summary['alternatives']} m={summary['attributes']} "
          f"e={summary['experts']} k={summary['levels']}")
    for i, subset in enumerate(summary["nested_subsets"], start=1):
        print(f"  Z{i} = {{{', '.join(subset)}}}")
    return EXIT_OK


def cmd_decide(args) -> int:
    case = load_case(args.case)
    spec = _apply_overrides(load_params(args.params), args)
    started = time.perf_counter()
    table = _group_table(case)  # read by both rankings
    report = run_sequential(table, spec.levels, spec.params,
                            monotonicity_override=spec.monotonicity_override)
    baseline = baseline_full_fusion(table, spec.params)
    elapsed = time.perf_counter() - started
    metadata = {"deterministic": True, "elapsed_seconds": elapsed}
    data = report_dict(case, spec, report, baseline=baseline, metadata=metadata)
    problems = validate_report_dict(data)
    if problems:
        raise RuntimeError("report failed self-validation: " + "; ".join(problems))
    if args.out:
        write_json(args.out, data)
    if args.dump_similarity:
        _dump_similarity(args.dump_similarity, spec, report)
    _print_report(sys.stdout, data)
    return EXIT_OK


def _dump_similarity(prefix: str, spec: ParamsFile, report) -> None:
    """Each level's similarity matrix, from the scores and kernel it ran on."""
    for level in report.levels:
        ids = report.ids(level.rows)
        path = f"{prefix}.level{level.index}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + ids)
            sigma = spec.levels[level.index - 1].sigma
            for start, block in similarity_blocks(level.scores, sigma):
                for row_id, row in zip(ids[start:], block.tolist()):
                    writer.writerow([row_id] + [repr(v) for v in row])


def cmd_fuse(args) -> int:
    case = load_case(args.case)
    data = fused_table_dict(fuse_dhhflmwa(case.experts))
    if args.out:
        write_json(args.out, data)
    else:
        dump_json(data, sys.stdout)
    return EXIT_OK


# a grid value is valid when one of these builds with it; each field of
# EngineParams and LevelConfig is checked on its own, so any valid values
# of the others will do
_GRID_CHECKS = {
    "eta": lambda v: EngineParams(eta=v),
    "theta": lambda v: EngineParams(theta=v),
    "delta": lambda v: EngineParams(delta=v),
    "sigma": lambda v: LevelConfig(kappa=1.0, sigma=v),
    "kappa": lambda v: LevelConfig(kappa=v, sigma=1.0),
}


def _grid_spec(raw: str) -> tuple:
    """One ``--grid`` spec as (name, point count, build), where ``build()``
    returns its values, so nothing is built before the count is checked."""
    if "=" not in raw:
        raise CaseFormatError([f"grid spec {raw!r} must look like name=start:stop:step"])
    name, _, rest = raw.partition("=")
    name = name.strip()
    if name not in _GRID_CHECKS:
        raise CaseFormatError([f"grid parameter must be one of "
                               f"{', '.join(_GRID_CHECKS)}, got {name!r}"])
    parts = rest.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError("expected start:stop:step")
        values = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        if len(parts) == 1:
            return name, 1, lambda: values
        start, stop, step = values
        if step <= 0:
            raise ValueError("step must be positive")
    except ValueError as exc:
        raise CaseFormatError([f"grid spec {raw!r}: {exc}"]) from exc
    # stop is included up to a 1e-9 step tolerance; the span may overflow to
    # -inf or inf, so it is clamped first: no points, or one past the cap
    count = math.floor(min(max((stop - start) / step + 1e-9, -1), MAX_GRID_POINTS)) + 1
    return name, count, lambda: [float(f"{start + k * step:.12g}") for k in range(count)]


def _parse_grid(specs) -> dict:
    """``eta=0:1:0.1`` inclusive ranges or bare values; returns name -> values.
    A grid of more than ``MAX_GRID_POINTS`` points is rejected unbuilt; a
    parameter given twice, or any value outside its parameter's range, is
    rejected before any point runs."""
    parsed = {}
    points = 1
    for raw in specs or []:
        name, count, build = _grid_spec(raw)
        if name in parsed:
            raise CaseFormatError(
                [f"grid specs {parsed[name][0]!r} and {raw!r} both set {name}"])
        points *= count
        if points > MAX_GRID_POINTS:
            raise CaseFormatError(
                [f"grid spec {raw!r}: the grid would have more than {MAX_GRID_POINTS} points"])
        parsed[name] = (raw, build)
    if not parsed:
        raise CaseFormatError(["sweep needs at least one --grid specification"])
    grids, problems = {}, []
    for name, (raw, build) in parsed.items():
        grids[name] = build()
        if not grids[name]:
            raise CaseFormatError([f"grid spec {raw!r} produced no points"])
        for value in grids[name]:
            try:
                _GRID_CHECKS[name](value)
            except ValueError as exc:
                problems.append(f"grid spec {raw!r}: {exc}")
    if problems:
        raise CaseFormatError(problems)
    return grids


def _distinct_points(grids: dict, names: list, index: np.ndarray, fields: tuple) -> tuple:
    """The distinct combinations of the grid values of ``fields``, as
    ``{field: value}`` dicts, and each point's index into them, where
    ``index[a]`` holds each point's value index on grid ``names[a]``."""
    swept = [f for f in fields if f in grids]
    distinct, codes = [], []
    for field in swept:
        position: dict = {}  # value -> its index among the distinct values
        code = np.array([position.setdefault(v, len(position)) for v in grids[field]])
        distinct.append(list(position))
        codes.append(code[index[names.index(field)]])
    combos = [dict(zip(swept, values)) for values in itertools.product(*distinct)]
    ids = (np.ravel_multi_index(codes, [len(d) for d in distinct]) if swept
           else np.zeros(index.shape[1], dtype=np.intp))
    return combos, ids


def cmd_sweep(args) -> int:
    case = load_case(args.case)
    base_spec = _apply_overrides(load_params(args.params), args)
    grids = _parse_grid(args.grid)
    table = _group_table(case)  # scored once, read by every point
    names = sorted(grids)
    header = names + [f"{name.lower()}_{i}" for i in range(1, len(base_spec.levels) + 1)
                      for name in REGIONS] + ["final_ranking"]

    # each point's value index on each grid, the points in itertools.product order
    index = np.indices([len(grids[name]) for name in names]).reshape(len(names), -1)
    cuts, config_ids = _distinct_points(grids, names, index, ("sigma", "kappa"))
    utilities, param_ids = _distinct_points(grids, names, index, ("eta", "theta", "delta"))
    configs = [tuple(LevelConfig(kappa=cut.get("kappa", c.kappa), sigma=cut.get("sigma", c.sigma))
                     for c in base_spec.levels) for cut in cuts]
    base = base_spec.params
    params = [EngineParams(eta=u.get("eta", base.eta), theta=u.get("theta", base.theta),
                           delta=u.get("delta", base.delta)) for u in utilities]

    tallies, rankings, joined = [], [], {}  # each distinct ranking is joined once
    outcomes = sweep_outcomes(table, configs, params, config_ids, param_ids,
                              base_spec.rank.key, base_spec.rank.neg_direction,
                              base_spec.monotonicity_override)
    for counts, orders in outcomes:
        tallies.append(counts.reshape(len(counts), -1))
        for order in orders:
            key = order.tobytes()
            if key not in joined:
                joined[key] = ">".join(map(table.fused.alternatives.__getitem__, order.tolist()))
            rankings.append(joined[key])
    # the CSV's columns, each built in one pass over the points
    counts = np.concatenate(tallies)
    cells = list(map(str, counts.ravel().tolist()))
    columns = [list(map([repr(v) for v in grids[name]].__getitem__, index[a].tolist()))
               for a, name in enumerate(names)]
    columns += [cells[c::counts.shape[1]] for c in range(counts.shape[1])]
    columns.append(rankings)

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    finally:
        if args.out:
            out.close()
    print(f"swept {len(rankings)} grid points", file=sys.stderr)
    return EXIT_OK


def cmd_baseline(args) -> int:
    case = load_case(args.case)
    data, params = {}, None
    try:
        fh = open(args.out, "r", encoding="utf-8") if args.out else None
    except FileNotFoundError:  # a new file
        fh = None
    if fh is not None:  # an existing file must be a decide report to extend
        with fh:
            try:  # a non-finite number would stop the rewrite half way: refuse it here
                existing = json.load(fh, parse_float=_finite, parse_constant=_finite)
            except (RecursionError, ValueError) as exc:  # not JSON, not UTF-8, or too deep
                raise CaseFormatError(
                    [f"report {args.out}: not a decide report: {exc}"]) from exc
        if not isinstance(existing, dict) or "final" not in existing:
            raise CaseFormatError(
                [f"report {args.out}: not a decide report: no 'final' section"])
        # rank as decide ranked the report's baseline: with its parameters
        spec, problems = validate_params_dict(existing.get("parameters"))
        final = existing["final"]
        ids = final.get("exit_level") if isinstance(final, dict) else None
        if not isinstance(ids, dict) or sorted(ids) != sorted(case.alternatives):
            problems.append(f"final.exit_level does not list the case's "
                            f"{case.n} alternatives")
        if problems:
            raise CaseFormatError([f"report {args.out}: {p}" for p in problems])
        data, params = existing, spec.params
    order = baseline_full_fusion(_group_table(case), params)
    print("baseline ranking: " + " > ".join(order))
    if args.out:
        data["baseline_ranking"] = order
        write_json(args.out, data)
    return EXIT_OK


def _finite(text: str) -> float:
    """A JSON number's value, refused when it is not finite: ``NaN``,
    ``Infinity``, or a literal too large for a float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on its first use and kept: it holds
    only the options, and :func:`main` looks each command's function up
    as it runs it."""
    parser = argparse.ArgumentParser(
        prog="s3wgdm",
        description="Sequential three-way group decision-making over double "
                    "hierarchy hesitant fuzzy linguistic decision tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a case file and print its summary")
    p.add_argument("--case", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the options decide and sweep share
    run.add_argument("--case", required=True)
    run.add_argument("--params", required=True)
    run.add_argument("--levels", type=int, help="run only the first N levels")
    run.add_argument("--neg-direction", choices=NEG_DIRECTIONS, dest="neg_direction",
                     help="override the ranking direction inside the rejected block")
    run.add_argument("--override-monotonicity", action="store_true",
                     dest="override_monotonicity",
                     help="allow non-monotone kappa/sigma sequences")

    p = sub.add_parser("decide", parents=[run], help="run the sequential decision pipeline")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--dump-similarity", metavar="PREFIX",
                   help="write the per-level similarity matrices as CSV")

    p = sub.add_parser("fuse", help="emit the fused group table only")
    p.add_argument("--case", required=True)
    p.add_argument("--out")

    p = sub.add_parser("sweep", parents=[run], help="run a parameter grid and emit CSV")
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:STEP",
                   help="grid over eta, theta, delta, sigma or kappa (repeatable)")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("baseline", help="one-shot full-fusion comparison ranking")
    p.add_argument("--case", required=True)
    p.add_argument("--out", help="write or extend a JSON report here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CaseFormatError as exc:
        print("invalid input:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:  # configuration rejected before the run
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # engine/runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
