"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces attributes of the ``s3wgdm`` modules with
wrappers while it is installed and puts the originals back when it is
removed.  Wrapping happens on the module whose code makes the call
(``engine.build_similarity_matrix``, not ``neighborhood.build_...``),
because the program binds imported names into the caller's globals.

Timed wrappers record one span each: name, start, end, parent span and
run id.  Hot inner functions (``superior_gradus``, ``parse_dhhfle``) are
only counted, since timing each call would double the run it measures.
A wrapped attribute that no longer exists is skipped, and one that is
never called reports zero, so the benchmark keeps working after a
refactor removes a function.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
import tracemalloc

# (module, attribute, span name), wrapped where the caller looks them up
TIMED = (
    ("s3wgdm.cli", "cmd_decide", "cli.decide"),
    ("s3wgdm.cli", "cmd_fuse", "cli.fuse"),
    ("s3wgdm.cli", "cmd_sweep", "cli.sweep"),
    ("s3wgdm.cli", "cmd_baseline", "cli.baseline"),
    ("s3wgdm.cli", "load_case", "caseio.load_case"),
    ("s3wgdm.cli", "load_params", "caseio.load_params"),
    ("s3wgdm.cli", "report_dict", "caseio.report_dict"),
    ("s3wgdm.cli", "validate_report_dict", "caseio.validate_report_dict"),
    ("s3wgdm.cli", "fused_table_dict", "caseio.fused_table_dict"),
    ("s3wgdm.cli", "write_json", "caseio.write_json"),
    ("s3wgdm.cli", "run_sequential", "engine.run_sequential"),
    ("s3wgdm.cli", "baseline_full_fusion", "engine.baseline"),
    ("s3wgdm.cli", "rank", "engine.rank"),
    ("s3wgdm.cli", "fuse_dhhflmwa", "tables.fuse"),
    ("s3wgdm.caseio", "rank", "engine.rank"),
    ("s3wgdm.caseio", "format_dhhfle", "syntax.format"),
    ("s3wgdm.engine", "run_level", "engine.run_level"),
    ("s3wgdm.engine", "extract", "tables.extract"),
    ("s3wgdm.engine", "fuse_dhhflmwa", "tables.fuse"),
    ("s3wgdm.engine", "orient_to_concept", "tables.orient"),
    ("s3wgdm.engine", "build_similarity_matrix", "neighborhood.similarity"),
    ("s3wgdm.engine", "cut_granules", "neighborhood.cut"),
    ("s3wgdm.engine", "concept_membership", "neighborhood.membership"),
    ("s3wgdm.engine", "conditional_probability", "neighborhood.probability"),
    ("s3wgdm.engine", "direct_simplified_gains", "regret.gains"),
    ("s3wgdm.engine", "perceived_utility_units", "regret.perceived"),
    ("s3wgdm.engine", "comprehensive_utility", "regret.comprehensive"),
)

# (module, attribute, counter name): counted, never timed
COUNTED = (
    ("s3wgdm.caseio", "parse_dhhfle", "syntax.parse_dhhfle"),
    ("s3wgdm.neighborhood", "superior_gradus", "gradus.neighborhood"),
    ("s3wgdm.regret", "superior_gradus", "gradus.regret"),
    ("s3wgdm.engine", "superior_gradus", "gradus.engine"),
)

# per-layer metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "caseio.load_case_s": ("caseio.load_case",),
    "caseio.report_dict_s": ("caseio.report_dict", "caseio.validate_report_dict",
                             "caseio.fused_table_dict"),
    "caseio.write_json_s": ("caseio.write_json",),
    "syntax.format_s": ("syntax.format",),
    "tables.extract_s": ("tables.extract",),
    "tables.fuse_s": ("tables.fuse",),
    "tables.orient_s": ("tables.orient",),
    "neighborhood.similarity_s": ("neighborhood.similarity",),
    "neighborhood.cut_s": ("neighborhood.cut",),
    "neighborhood.probability_s": ("neighborhood.probability",),
    "neighborhood.membership_s": ("neighborhood.membership",),
    "regret.gains_s": ("regret.gains",),
    "regret.perceived_s": ("regret.perceived",),
    "regret.comprehensive_s": ("regret.comprehensive",),
    "engine.run_level_s": ("engine.run_level",),
    "engine.rank_s": ("engine.rank",),
    "engine.baseline_s": ("engine.baseline",),
    "cli.self_s": ("cli.decide", "cli.fuse", "cli.sweep", "cli.baseline"),
}


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`remove`.

    With ``memory=True`` tracemalloc runs while the tracer is installed
    and the cut step records the peak it allocates above its start.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []   # (name, start, end, parent index, run id)
        self.counts: dict = {}
        self.run_id = 0
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)
        self._peak_bytes = 0
        self.cut_peak_bytes = 0
        self.trace_peak_bytes = 0

    # -- wrappers -----------------------------------------------------

    def _add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _observe(self, span: str, parent: int, args: tuple, result) -> None:
        """Work counts read off a call's arguments and result."""
        try:
            if span == "caseio.load_case":
                self._add("caseio.cells_parsed", result.n * result.m * result.e)
                self.counts["case.cells_nm"] = result.n * result.m
            elif span == "tables.fuse":
                self._add("tables.fused_cells",
                          len(result.alternatives) * len(result.attributes))
            elif span == "neighborhood.similarity":
                rows = len(result.ids)
                self._add("neighborhood.similarity_pairs", rows * (rows - 1) // 2)
                self._add("neighborhood.similarity_cells", rows * len(args[1]))
            elif span == "neighborhood.cut":
                self._add("neighborhood.granule_members", sum(len(g) for g in result))
            elif span == "engine.run_level":
                self._add("engine.universe_rows", len(args[0]))
            elif span == "caseio.write_json":
                self._add("caseio.output_bytes", os.path.getsize(args[0]))
            elif span == "engine.run_sequential" and parent >= 0 \
                    and self.spans[parent][0] == "cli.sweep":
                self._add("cli.sweep_points", 1)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            pass  # a changed signature only loses this count

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack
        memory = self.memory and name == "neighborhood.cut"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self.run_id))  # completed below
            stack.append(index)
            if memory:
                self._peak_bytes = max(self._peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if memory:
                self.cut_peak_bytes = max(self.cut_peak_bytes,
                                          tracemalloc.get_traced_memory()[1] - before)
            self._observe(name, parent, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- life cycle ---------------------------------------------------

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))
        if self.memory:
            tracemalloc.start()
        return self

    def remove(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            self.trace_peak_bytes = max(self._peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of this tracer's spans and counts."""
        table = self.self_times()
        counts = self.counts
        out = {metric: sum(table.get(span, (0, 0.0, 0.0))[2] for span in spans)
               for metric, spans in SELF_TIME_METRICS.items()}

        def calls(span: str) -> int:
            return table.get(span, (0, 0.0, 0.0))[0]

        gradus_calls = sum(v for k, v in counts.items() if k.startswith("gradus."))
        sim_cells = counts.get("neighborhood.similarity_cells", 0)
        points = counts.get("cli.sweep_points", 0)
        entries = sum(calls(s) for s in ("cli.decide", "cli.fuse", "cli.baseline")) + points
        nm = counts.get("case.cells_nm", 0)
        fused = counts.get("tables.fused_cells", 0)
        out.update({
            "caseio.cells_parsed": counts.get("caseio.cells_parsed", 0),
            "syntax.parse_calls": counts.get("syntax.parse_dhhfle", 0),
            "caseio.output_bytes": counts.get("caseio.output_bytes", 0),
            "tables.fused_cells": fused,
            "tables.fuse_ratio": fused / (nm * entries) if nm and entries else 0.0,
            "neighborhood.similarity_pairs": counts.get("neighborhood.similarity_pairs", 0),
            "linguistic.gradus_calls": gradus_calls,
            "neighborhood.gradus_per_cell":
                counts.get("gradus.neighborhood", 0) / sim_cells if sim_cells else 0.0,
            "neighborhood.granule_members": counts.get("neighborhood.granule_members", 0),
            "engine.levels_run": calls("engine.run_level"),
            "engine.universe_rows": counts.get("engine.universe_rows", 0),
            "engine.rank_calls": calls("engine.rank"),
            "cli.sweep_point_s": table.get("cli.sweep", (0, 0.0, 0.0))[1] / points
                                 if points else 0.0,
        })
        return out

    def write_spans(self, path: str) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
