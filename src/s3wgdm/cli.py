"""Command-line front end.

Commands: ``validate``, ``decide``, ``fuse``, ``sweep``, ``baseline``.
Exit codes: 0 on success, 1 on input validation failure, 2 on runtime error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from dataclasses import replace

from .caseio import (
    CaseFormatError,
    ParamsFile,
    RankOptions,
    case_summary,
    fused_table_dict,
    load_case,
    load_params,
    report_dict,
    validate_report_dict,
    write_json,
)
from .engine import (
    LevelConfig,
    baseline_full_fusion,
    rank,
    run_sequential,
)
from .neighborhood import similarity_blocks
from .tables import fuse_dhhflmwa

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

# a sweep grid with more points than this is rejected before it is built
MAX_GRID_POINTS = 100_000


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _apply_overrides(spec: ParamsFile, args) -> ParamsFile:
    if getattr(args, "levels", None):
        if args.levels < 1 or args.levels > len(spec.levels):
            raise CaseFormatError(
                [f"--levels must be between 1 and {len(spec.levels)}"])
        spec = replace(spec, levels=spec.levels[:args.levels])
    if getattr(args, "neg_direction", None):
        spec = replace(spec, rank=RankOptions(key=spec.rank.key,
                                              neg_direction=args.neg_direction))
    if getattr(args, "override_monotonicity", False):
        spec = replace(spec, monotonicity_override=True)
    return spec


def _print_report(out, data: dict) -> None:
    """Text summary of a report dict as ``report_dict`` built it."""
    for level in data["levels"]:
        print(f"level {level['index']}: attributes {{{', '.join(level['attributes'])}}} "
              f"kappa={_sig6(level['kappa'])} sigma={_sig6(level['sigma'])}", file=out)
        regions = level["regions"]
        print(f"  POS {regions['POS']}  BND {regions['BND']}  "
              f"NEG {regions['NEG']}", file=out)
        for alt, pr in level["conditional_probability"].items():
            eu = level["expected_utility"][alt]
            print(f"    {alt}: pr={_sig6(pr)} accept={_sig6(eu['accept'])} "
                  f"defer={_sig6(eu['defer'])} reject={_sig6(eu['reject'])}",
                  file=out)
    final = data["final"]["regions"]
    print(f"final regions: POS {final['POS']}  BND {final['BND']}  "
          f"NEG {final['NEG']}", file=out)
    print("final ranking: " + " > ".join(data["final"]["ranking"]), file=out)


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
    report = run_sequential(
        case.experts, case.attributes, spec.levels, spec.params,
        monotonicity_override=spec.monotonicity_override)
    baseline = baseline_full_fusion(case.experts, case.attributes, spec.params)
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
        path = f"{prefix}.level{level.index}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + list(level.universe))
            sigma = spec.levels[level.index - 1].sigma
            for start, block in similarity_blocks(level.scores, sigma):
                for row_id, row in zip(level.universe[start:], block.tolist()):
                    writer.writerow([row_id] + [repr(v) for v in row])


def cmd_fuse(args) -> int:
    case = load_case(args.case)
    data = fused_table_dict(fuse_dhhflmwa(case.experts))
    if args.out:
        write_json(args.out, data)
    else:
        json.dump(data, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def _grid_spec(raw: str) -> tuple:
    """One ``--grid`` spec as (name, point count, values).  A range's values
    come as a generator, so nothing is built before the count is checked."""
    if "=" not in raw:
        raise CaseFormatError([f"grid spec {raw!r} must look like name=start:stop:step"])
    name, _, rest = raw.partition("=")
    name = name.strip()
    if name not in ("eta", "sigma", "kappa"):
        raise CaseFormatError([f"grid parameter must be eta, sigma or kappa, got {name!r}"])
    parts = rest.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError("expected start:stop:step")
        values = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        if len(parts) == 1:
            return name, 1, values
        start, stop, step = values
        if step <= 0:
            raise ValueError("step must be positive")
    except ValueError as exc:
        raise CaseFormatError([f"grid spec {raw!r}: {exc}"]) from exc
    # the points _grid_range yields, with its tolerance; inf on overflow
    span = (stop - start) / step + 1e-9
    count = max(0, math.floor(span) + 1) if span <= MAX_GRID_POINTS else math.inf
    return name, count, _grid_range(start, stop, step)


def _grid_range(start: float, stop: float, step: float):
    k = 0
    while True:
        v = start + k * step
        if v > stop + step * 1e-9:
            return
        yield round(v, 12)
        k += 1


def _parse_grid(specs) -> dict:
    """``eta=0:1:0.1`` inclusive ranges or bare values; returns name -> values.
    A grid of more than ``MAX_GRID_POINTS`` points is rejected unbuilt."""
    parsed = []
    points = 1
    for raw in specs or []:
        name, count, values = _grid_spec(raw)
        points *= count
        if points > MAX_GRID_POINTS:
            raise CaseFormatError(
                [f"grid spec {raw!r}: the grid would have more than {MAX_GRID_POINTS} points"])
        parsed.append((raw, name, values))
    if not parsed:
        raise CaseFormatError(["sweep needs at least one --grid specification"])
    grids = {}
    for raw, name, values in parsed:
        grids[name] = list(values)
        if not grids[name]:
            raise CaseFormatError([f"grid spec {raw!r} produced no points"])
    return grids


def cmd_sweep(args) -> int:
    case = load_case(args.case)
    base_spec = _apply_overrides(load_params(args.params), args)
    grids = _parse_grid(args.grid)
    names = sorted(grids)
    n_levels = len(base_spec.levels)
    header = names[:]
    for i in range(1, n_levels + 1):
        header += [f"pos_{i}", f"bnd_{i}", f"neg_{i}"]
    header.append("final_ranking")

    rows = []
    for values in itertools.product(*(grids[name] for name in names)):
        point = dict(zip(names, values))
        spec = base_spec
        if "eta" in point:
            spec = replace(spec, params=replace(spec.params, eta=point["eta"]))
        if "sigma" in point or "kappa" in point:
            levels = tuple(
                LevelConfig(kappa=point.get("kappa", c.kappa),
                            sigma=point.get("sigma", c.sigma))
                for c in spec.levels)
            spec = replace(spec, levels=levels)
        report = run_sequential(
            case.experts, case.attributes, spec.levels, spec.params,
            monotonicity_override=spec.monotonicity_override)
        row = [repr(point[name]) for name in names]
        for i in range(1, n_levels + 1):
            regions = report.regions_after(i)
            row += [str(len(regions[r])) for r in ("POS", "BND", "NEG")]
        order = rank(report, key=spec.rank.key, neg_direction=spec.rank.neg_direction)
        row.append(">".join(order))
        rows.append(row)

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    print(f"swept {len(rows)} grid points", file=sys.stderr)
    return EXIT_OK


def cmd_baseline(args) -> int:
    case = load_case(args.case)
    order = baseline_full_fusion(case.experts, case.attributes)
    print("baseline ranking: " + " > ".join(order))
    if args.out:
        data = {"baseline_ranking": list(order)}
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
            if isinstance(existing, dict) and "final" in existing:
                existing["baseline_ranking"] = list(order)
                data = existing
        except (OSError, json.JSONDecodeError):
            pass
        write_json(args.out, data)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3wgdm",
        description="Sequential three-way group decision-making over double "
                    "hierarchy hesitant fuzzy linguistic decision tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a case file and print its summary")
    p.add_argument("--case", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decide", help="run the sequential decision pipeline")
    p.add_argument("--case", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--levels", type=int, help="run only the first N levels")
    p.add_argument("--neg-direction", choices=("desc", "asc"), dest="neg_direction",
                   help="override the ranking direction inside the rejected block")
    p.add_argument("--override-monotonicity", action="store_true",
                   dest="override_monotonicity",
                   help="allow non-monotone kappa/sigma sequences")
    p.add_argument("--dump-similarity", metavar="PREFIX",
                   help="write the per-level similarity matrices as CSV")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("fuse", help="emit the fused group table only")
    p.add_argument("--case", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("sweep", help="run a parameter grid and emit CSV")
    p.add_argument("--case", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--grid", action="append", metavar="NAME=START:STOP:STEP",
                   help="grid over eta, sigma or kappa (repeatable)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--levels", type=int)
    p.add_argument("--neg-direction", choices=("desc", "asc"), dest="neg_direction")
    p.add_argument("--override-monotonicity", action="store_true",
                   dest="override_monotonicity")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="one-shot full-fusion comparison ranking")
    p.add_argument("--case", required=True)
    p.add_argument("--out", help="write or extend a JSON report here")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
