"""The three workloads: inputs, the calls they time, and output checks.

Every workload is a closed loop: one caller in one process, each call
starting after the previous one returned, so no call ever waits in a
queue.  Calls go through ``s3wgdm.cli.main`` only; the program sees
nothing but the case and params files.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import threading
import time

DEFAULT_SEED = 1

WORKLOADS = ("sle-sweep", "synth-n1000", "ingest-n5000")

# generated case shapes: n, m, e, max terms per cell
SYNTH_SHAPE = (1000, 6, 3, 3)
INGEST_SHAPE = (5000, 6, 3, 3)
SYNTH_PARAMS = {
    "eta": 0.6, "theta": 0.88, "delta": 0.3,
    "levels": [{"kappa": 0.9, "sigma": 0.7}] * 4,
}

# eta x sigma x kappa = 11 x 10 x 3 = 330 points, about a second a sweep,
# so a run times many sweeps; contains the bundled parameters (eta 0.6,
# sigma 0.7, kappa 1.0)
SWEEP_GRID = ("eta=0:1:0.1", "sigma=0.1:1:0.1", "kappa=0:1:0.5")
SWEEP_POINTS = 330
SWEEP_BUNDLED_POINT = ("0.6", "1.0", "0.7")  # eta, kappa, sigma: sorted column order

# Acceptance reference for the bundled case, as pinned by the acceptance
# suite: the per-level regions, and the ranking after each level (levels
# 1 and 4 carry the suite's documented single adjacent transposition).
SLE_REGIONS = {
    1: {"POS": ["x2"], "BND": ["x3", "x4", "x7", "x8"], "NEG": ["x1", "x5", "x6"]},
    2: {"POS": [], "BND": ["x3", "x4", "x7"], "NEG": ["x8"]},
    3: {"POS": ["x4"], "BND": ["x3", "x7"], "NEG": []},
    4: {"POS": [], "BND": ["x3", "x7"], "NEG": []},
}
SLE_RANKINGS = {
    1: ["x2", "x7", "x4", "x3", "x8", "x1", "x5", "x6"],
    2: ["x2", "x4", "x7", "x3", "x1", "x5", "x8", "x6"],
    3: ["x2", "x4", "x7", "x3", "x1", "x5", "x8", "x6"],
    4: ["x2", "x4", "x3", "x7", "x1", "x5", "x8", "x6"],
}

# Pinned outputs of the current program.  The sweep inputs are fixed, so
# its digest holds at every seed; the other two hold at DEFAULT_SEED.
SWEEP_SHA256 = "fbfae9f48f4f7d8a8ab089009c4a14bc6ee9ff1af8abedfa8f034dbb811d9871"
SYNTH_DIGEST_DEFAULT_SEED = "b7a6a2107b1252e393f16640c6e52001702c82772834f14b7ef6a5b67359fba6"
INGEST_CHECKSUM_DEFAULT_SEED = -1037.6296296296346

_CELL = re.compile(r"s_([^<,{}]+)<o_([^>]+)>")


def fused_checksum(cells) -> tuple:
    """Position-weighted sum of fused subscripts and its magnitude.

    ``cells[i][j]`` is a ``(phi, varphi)`` pair.  The weights make a
    permuted or transposed table change the sum.
    """
    total = 0.0
    magnitude = 0.0
    for i, row in enumerate(cells):
        for j, (phi, varphi) in enumerate(row):
            a = phi * (1 + (7 * i + 3 * j) % 11)
            b = varphi * (1 + (5 * i + j) % 13)
            total += a + b
            magnitude += abs(a) + abs(b)
    return total, magnitude


def oracle_fused_checksum(case: dict) -> tuple:
    """Fused-table checksum computed straight from a case document:
    mean subscripts per expert cell, then the expert-weighted sum."""
    experts = case["experts"]
    n, m = len(case["alternatives"]), len(case["attributes"])
    cells = []
    for i in range(n):
        row = []
        for j in range(m):
            phi = varphi = 0.0
            for expert in experts:
                terms = [(float(a), float(b)) for a, b in _CELL.findall(expert["table"][i][j])]
                phi += expert["weight"] * (sum(t[0] for t in terms) / len(terms))
                varphi += expert["weight"] * (sum(t[1] for t in terms) / len(terms))
            row.append((phi, varphi))
        cells.append(row)
    return fused_checksum(cells)


def synth_digest(report: dict) -> str:
    """Digest of the per-level regions and the final ranking."""
    key = [[level["regions"][r] for r in ("POS", "BND", "NEG")] for level in report["levels"]]
    key.append(report["final"]["ranking"])
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()


def _without_elapsed(report: dict) -> str:
    report = dict(report)
    report["metadata"] = {k: v for k, v in report.get("metadata", {}).items()
                          if k != "elapsed_seconds"}
    return json.dumps(report, sort_keys=True)


REF_REPS = 3  # reference timings taken before and after each call


def reference_work() -> float:
    """Fixed pure-Python work whose wall time is the unit ``ref``.

    On a shared host the speed drifts by up to half from one run to the
    next, and a call's wall time drifts with it.  Timed right before and
    after each call, and during long calls (:class:`SpeedProbe`), this
    loop drifts the same way, so a call's time in refs measures the
    program rather than its neighbours.  Changing this function changes
    the unit of every ``*_ref`` metric.
    """
    table = {}
    total = 0.0
    for i in range(2000):
        key = (i % 97, i)
        table[key] = math.exp(-(i % 13) / 7.0)
        total += table[key] * 0.5
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return total + ordered[0][1]


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Times :func:`reference_work` every ``period`` seconds on a side
    thread while a long call runs, so the call's reference time follows
    the host's speed through the whole call, not just at its ends.
    Each reference run is far shorter than the interpreter's switch
    interval, so it runs uninterrupted once the thread holds the lock."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.samples.append(time_reference())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed probe did not stop")


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond), or None below 11 samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


class Runner:
    """Runs CLI calls, checks each output and keeps the tallies."""

    def __init__(self, cli, spec: dict):
        self.cli = cli
        self.spec = spec
        self.tmp = spec["tmp"]
        self.tracer = None   # set while a traced pass runs
        self.probe = True    # time the host's speed during long calls
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.first: dict = {}   # first output of each call kind, for repeat checks
        self.last: dict = {}    # wall time of the latest call of each kind

    # -- one checked call ---------------------------------------------

    def call(self, kind: str, argv: list, check, out_path: str = "") -> tuple:
        """Time one in-process CLI call, then check its output.  Returns
        (wall seconds, median reference seconds around and during the
        call); a failure is tallied, not raised.  ``out_path`` is removed first,
        so a call that writes nothing cannot pass on a previous call's
        file."""
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        out, err = io.StringIO(), io.StringIO()
        # probe every call except those of a kind whose last call was short
        long_call = self.probe and self.last.get(kind, math.inf) > 0.2
        probe = SpeedProbe() if long_call else contextlib.nullcontext()
        gc.collect()
        refs = [time_reference() for _ in range(REF_REPS)]
        start = time.perf_counter()
        try:
            with probe, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        refs += [time_reference() for _ in range(REF_REPS)]
        refs += getattr(probe, "samples", [])
        self.last[kind] = seconds
        try:
            problems = ([f"exit {code}: {err.getvalue().strip()}"] if code != 0
                        else check(out.getvalue()))
        except Exception as exc:  # a malformed output must count, not crash the run
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{kind}: {'; '.join(problems)[:500]}")
        return seconds, statistics.median(refs)

    def _repeat(self, kind: str, value) -> list:
        first = self.first.setdefault(kind, value)
        return [] if value == first else [f"{kind} output differs from the first call"]

    # -- the calls ----------------------------------------------------

    def decide(self) -> tuple:
        path = os.path.join(self.tmp, "report.json")
        argv = ["decide", "--case", self.spec["case"], "--params", self.spec["params"],
                "--out", path]
        check = self.check_sle_report if self.spec["workload"] == "sle-sweep" \
            else self.check_synth_report
        return self.call("decide", argv, lambda _out: check(path), path)

    def sweep(self) -> tuple:
        path = os.path.join(self.tmp, "sweep.csv")
        argv = ["sweep", "--case", self.spec["case"], "--params", self.spec["params"],
                "--out", path]
        for grid in SWEEP_GRID:
            argv += ["--grid", grid]
        return self.call("sweep", argv, lambda _out: self.check_sweep(path), path)

    def fuse(self) -> tuple:
        path = os.path.join(self.tmp, "fused.json")
        argv = ["fuse", "--case", self.spec["case"], "--out", path]
        return self.call("fuse", argv, lambda _out: self.check_fused(path), path)

    def baseline(self) -> tuple:
        argv = ["baseline", "--case", self.spec["case"]]
        return self.call("baseline", argv, self.check_baseline)

    # -- checks: each returns a list of problems ----------------------

    def _load_report(self, path: str) -> tuple:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = list(self.cli.validate_report_dict(report))
        return report, problems + self._repeat("report", _without_elapsed(report))

    def check_sle_report(self, path: str) -> list:
        report, problems = self._load_report(path)
        levels = report["levels"]
        if [lvl["index"] for lvl in levels] != sorted(SLE_REGIONS):
            return problems + [f"levels run: {[lvl['index'] for lvl in levels]}"]
        for lvl in levels:
            if lvl["regions"] != SLE_REGIONS[lvl["index"]]:
                problems.append(f"level {lvl['index']} regions {lvl['regions']}")
            if lvl["ranking_after"] != SLE_RANKINGS[lvl["index"]]:
                problems.append(f"level {lvl['index']} ranking {lvl['ranking_after']}")
        if report["final"]["ranking"] != SLE_RANKINGS[4]:
            problems.append(f"final ranking {report['final']['ranking']}")
        return problems

    def check_synth_report(self, path: str) -> list:
        report, problems = self._load_report(path)
        previous_bnd = None
        for lvl in report["levels"]:
            universe = lvl["universe"]
            regions = [set(lvl["regions"][r]) for r in ("POS", "BND", "NEG")]
            if sum(map(len, regions)) != len(universe) or set().union(*regions) != set(universe):
                problems.append(f"level {lvl['index']}: regions do not partition the universe")
            if previous_bnd is not None and set(universe) != previous_bnd:
                problems.append(f"level {lvl['index']}: universe is not the previous boundary")
            previous_bnd = regions[1]
            bad = [a for a, pr in lvl["conditional_probability"].items() if not 0.0 <= pr <= 1.0]
            if bad:
                problems.append(f"level {lvl['index']}: pr outside [0, 1] for {bad[:3]}")
        if self.spec["seed"] == DEFAULT_SEED and synth_digest(report) != SYNTH_DIGEST_DEFAULT_SEED:
            problems.append(f"region/ranking digest {synth_digest(report)} is not the pinned one")
        return problems

    def check_sweep(self, path: str) -> list:
        with open(path, "rb") as fh:
            raw = fh.read()
        problems = self._repeat("sweep", raw)
        digest = hashlib.sha256(raw).hexdigest()
        if digest != SWEEP_SHA256:
            problems.append(f"sweep digest {digest} is not the pinned one")
        rows = raw.decode().splitlines()
        header, rows = rows[0].split(","), [r.split(",") for r in rows[1:]]
        if len(rows) != SWEEP_POINTS:
            problems.append(f"{len(rows)} sweep rows, expected {SWEEP_POINTS}")
        bundled = [r for r in rows if tuple(r[:3]) == SWEEP_BUNDLED_POINT]
        if len(bundled) != 1:
            return problems + ["the bundled parameters are not a grid point"]
        expected = []
        cumulative: dict = {}
        for index in sorted(SLE_REGIONS):
            for region in ("POS", "NEG"):
                for alt in SLE_REGIONS[index][region]:
                    cumulative[alt] = region
            counts = {r: sum(1 for v in cumulative.values() if v == r) for r in ("POS", "NEG")}
            counts["BND"] = self.spec["expect"]["n"] - counts["POS"] - counts["NEG"]
            expected += [str(counts[r]) for r in ("POS", "BND", "NEG")]
        expected.append(">".join(SLE_RANKINGS[4]))
        if header[3:] != [f"{r}_{i}" for i in range(1, 5) for r in ("pos", "bnd", "neg")] \
                + ["final_ranking"] or bundled[0][3:] != expected:
            problems.append(f"bundled grid point {bundled[0]} does not match decide")
        return problems

    def check_fused(self, path: str) -> list:
        with open(path, "rb") as fh:
            raw = fh.read()
        problems = self._repeat("fused", raw)
        data = json.loads(raw)
        expect = self.spec["expect"]
        if len(data["cells"]) != expect["n"] or any(len(r) != expect["m"] for r in data["cells"]):
            return problems + ["fused table has the wrong shape"]
        cells = [[tuple(float(x) for x in _CELL.fullmatch(c[1:-1]).groups()) for c in row]
                 for row in data["cells"]]
        total, magnitude = fused_checksum(cells)
        tol = 1e-12 * max(magnitude, 1.0)
        if abs(total - expect["checksum"]) > tol:
            problems.append(f"fused checksum {total!r}, oracle {expect['checksum']!r}")
        if self.spec["seed"] == DEFAULT_SEED and abs(total - INGEST_CHECKSUM_DEFAULT_SEED) > tol:
            problems.append(f"fused checksum {total!r} is not the pinned one")
        return problems

    def check_baseline(self, out: str) -> list:
        line = out.strip().splitlines()[-1]
        prefix = "baseline ranking: "
        if not line.startswith(prefix):
            return [f"unexpected baseline output {line[:80]!r}"]
        order = line[len(prefix):].split(" > ")
        problems = self._repeat("baseline", order)
        if len(order) != self.spec["expect"]["n"] or len(set(order)) != len(order) \
                or set(order) != {f"x{i + 1}" for i in range(self.spec["expect"]["n"])}:
            problems.append("baseline ranking is not a permutation of the alternatives")
        return problems


def _loop(budget: float, minimum: int, op) -> list:
    """Call ``op`` until ``budget`` seconds passed and at least
    ``minimum`` calls were made; returns what each call returned."""
    samples = []
    start = time.perf_counter()
    while len(samples) < minimum or time.perf_counter() - start < budget:
        samples.append(op())
    return samples


def _median_s(samples: list) -> float:
    return statistics.median(s for s, _ in samples)


def _median_ref(samples: list) -> float:
    return statistics.median(s / ref for s, ref in samples)


def measure(runner: Runner, seconds: float) -> tuple:
    """Warm up, then time the workload's calls for ``seconds``.  Returns
    the metrics, readable figures as (value, unit, samples), and every
    timed (seconds, reference seconds) pair."""
    workload = runner.spec["workload"]
    cells = runner.spec["expect"]["cells"]
    warm_up(runner)
    # Peak memory of set-up plus one call of each kind, which is what one
    # CLI process needs.  Later calls are left out: between calls the
    # harness's own allocations moved the whole-run peak by 5-10% at random.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "sle-sweep":
        decide = _loop(seconds / 2, 10, runner.decide)
        sweeps = _loop(seconds / 2, 2, runner.sweep)
        metrics = {"call_ref": _median_ref(decide),
                   "rate_per_ref": SWEEP_POINTS / _median_ref(sweeps)}
        info = {"decide_s": (_median_s(decide), "s", len(decide)),
                "decide_tail_s": tail([s for s, _ in decide]),
                "sweep_points_per_s": (SWEEP_POINTS / _median_s(sweeps), "1/s", len(sweeps))}
        timed = decide + sweeps
    elif workload == "synth-n1000":
        decide = _loop(seconds, 3, runner.decide)
        metrics = {"call_ref": _median_ref(decide), "rate_per_ref": cells / _median_ref(decide)}
        info = {"decide_s": (_median_s(decide), "s", len(decide)),
                "decide_tail_s": tail([s for s, _ in decide]),
                "decided_cells_per_s": (cells / _median_s(decide), "1/s", len(decide))}
        timed = decide
    else:
        fuse, baseline = [], []

        def both() -> None:
            fuse.append(runner.fuse())
            baseline.append(runner.baseline())

        _loop(seconds, 3, both)
        metrics = {"call_ref": _median_ref(baseline), "rate_per_ref": cells / _median_ref(fuse)}
        info = {"baseline_s": (_median_s(baseline), "s", len(baseline)),
                "ingest_cells_per_s": (cells / _median_s(fuse), "1/s", len(fuse))}
        timed = fuse + baseline
    info["ref_s"] = (statistics.median(ref for _, ref in timed), "s", len(timed))
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, info, timed


def warm_up(runner: Runner) -> None:
    """One call of each kind the workload makes (ten for tiny calls)."""
    workload = runner.spec["workload"]
    if workload == "sle-sweep":
        for _ in range(10):
            runner.decide()
        runner.sweep()
    elif workload == "synth-n1000":
        runner.decide()
    else:
        runner.fuse()
        runner.baseline()


def fixed_pass(runner: Runner) -> float:
    """The fixed call sequence the traced run repeats; returns its wall time."""
    workload = runner.spec["workload"]
    start = time.perf_counter()
    if workload == "sle-sweep":
        for _ in range(20):
            runner.decide()
        runner.sweep()
    elif workload == "synth-n1000":
        runner.decide()
    else:
        runner.fuse()
        runner.baseline()
    return time.perf_counter() - start
