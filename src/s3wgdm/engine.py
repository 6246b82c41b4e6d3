"""The multi-level sequential three-way decision loop and ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .linguistic import elementwise, superior_gradus_array
from .neighborhood import membership_degrees, shared_granule_statistics
from .regret import comprehensive_utilities
from .tables import (
    AttributeSpec,
    FusedDecisionTable,
    NestedSubsets,
    build_nested_subsets,
    check_attribute_weights,
    renormalize_weights,
)

# The scalar reference steps and the table steps stay importable from this
# module, where bench/tracer.py looks them up; the engine runs the array path.
from .linguistic import superior_gradus  # noqa: F401
from .neighborhood import (  # noqa: F401
    build_similarity_matrix,
    concept_membership,
    conditional_probability,
    cut_granules,
)
from .regret import (  # noqa: F401
    comprehensive_utility,
    direct_simplified_gains,
    perceived_utility_units,
)
from .tables import extract, fuse_dhhflmwa, orient_to_concept  # noqa: F401

REGIONS = ("POS", "BND", "NEG")  # region names; a region's code is its index
POS, BND, NEG = range(3)  # region codes
RANK_KEYS = ("accept", "defer")  # the expected utility a ranking sorts by
NEG_DIRECTIONS = ("desc", "asc")  # the order inside the rejected block
# the largest delta whose regret term exp(delta * (u_ref - u)), u in [0, 1], is finite
MAX_DELTA = math.log(sys.float_info.max)


@dataclass(frozen=True)
class LevelConfig:
    """Per-level cut threshold and kernel width."""

    kappa: float
    sigma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError(f"kappa {self.kappa} outside [0, 1]")
        if not math.isfinite(self.sigma) or self.sigma <= 0:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if 2.0 * self.sigma * self.sigma == 0.0:  # the kernel's denominator
            raise ValueError(f"sigma {self.sigma} is too small: 2 sigma^2 underflows to 0")


@dataclass(frozen=True)
class EngineParams:
    """Behavioral parameters shared by all levels."""

    eta: float = 0.6
    theta: float = 0.88
    delta: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta {self.eta} outside [0, 1]")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta {self.theta} outside (0, 1)")
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be non-negative and finite, got {self.delta}")
        if self.delta > MAX_DELTA:
            raise ValueError(f"delta {self.delta} is too large: regret exp overflows "
                             f"above {MAX_DELTA:.6g}")


def check_level_monotonicity(levels: Sequence[LevelConfig], override: bool = False) -> None:
    """Cut thresholds may only grow and kernel widths only shrink across
    levels, unless explicitly overridden."""
    if override:
        return
    for a, b in zip(levels, levels[1:]):
        if b.kappa < a.kappa - 1e-12:
            raise ValueError(
                "cut thresholds must be non-decreasing across levels "
                "(pass the monotonicity override to allow this)")
        if b.sigma > a.sigma + 1e-12:
            raise ValueError(
                "kernel widths must be non-increasing across levels "
                "(pass the monotonicity override to allow this)")


@dataclass(frozen=True, eq=False)
class GranularLevel:
    """Everything computed at one decision level: one row per universe row.

    It runs on its universe's rows of :meth:`ScoredTable.level`: the
    scores and concept membership, which no point's parameters change.
    A level that :func:`run_level` computed for a group of points holds
    each of ``sizes`` to ``region`` either once, shared by every point of
    the group, or with a leading point axis, so that it broadcasts over the
    points either way.
    """

    index: int  # 1-based
    rows: np.ndarray  # the universe, as row indices into the group table
    z: tuple
    scores: np.ndarray  # exponential scores the level ran on, universe x z
    sizes: np.ndarray  # granule sizes
    pr: np.ndarray  # conditional probabilities
    utilities: np.ndarray  # comprehensive utilities, (k, 6) in regret.CELLS order
    expected: np.ndarray  # expected utilities, (k, 3): accept, defer, reject
    region: np.ndarray  # int8 region codes: POS, BND or NEG


@dataclass(frozen=True, eq=False)
class DecisionReport:
    """Outcome of a full sequential run.  Each level's universe is the
    previous level's BND, so writing the levels' rows into one array in
    level order leaves each alternative with its value from the level that
    decided it, or from the last level it was in."""

    alternatives: tuple
    levels: tuple  # GranularLevel per executed level

    def state_after(self, upto: Optional[int] = None) -> tuple:
        """Per alternative, in table order, once ``upto`` levels ran (default
        all): its region code, the index of the level its values come from,
        and its (accept, defer, reject) expected utilities at that level.
        Before any level ran every alternative is deferred, at level 0."""
        n = len(self.alternatives)
        region = np.full(n, BND, dtype=np.int8)
        level = np.zeros(n, dtype=np.int64)
        expected = np.zeros((n, 3))
        for lvl in self.levels[:upto]:
            region[lvl.rows] = lvl.region
            level[lvl.rows] = lvl.index
            expected[lvl.rows] = lvl.expected
        return region, level, expected

    @cached_property
    def by_id(self) -> np.ndarray:
        """Table rows in the order of their sorted ids."""
        return _by_id(self.alternatives)

    def ids(self, rows: np.ndarray) -> list:
        """The alternative ids of table ``rows``."""
        return [self.alternatives[r] for r in rows.tolist()]

    def regions_after(self, upto: int) -> dict:
        """Cumulative regions once ``upto`` levels ran: region -> sorted ids."""
        region = self.state_after(upto)[0][self.by_id]
        return {name: self.ids(self.by_id[region == code]) for code, name in enumerate(REGIONS)}


def expected_perceived_utility(v, pr: float) -> tuple:
    """Expected perceived utility of accepting, deferring, rejecting (v: CellValues)."""
    if not (0.0 <= pr <= 1.0):
        raise ValueError(f"conditional probability {pr} outside [0, 1]")
    against = 1.0 - pr
    return (
        v.pp * pr + v.pn * against,
        v.bp * pr + v.bn * against,
        v.np * pr + v.nn * against,
    )


def classify(expected: tuple) -> str:
    """Region name of the first maximizing action in the order accept, defer, reject."""
    e_acc, e_def, e_rej = expected
    if e_acc >= e_def and e_acc >= e_rej:
        return REGIONS[POS]
    if e_def >= e_acc and e_def >= e_rej:
        return REGIONS[BND]
    return REGIONS[NEG]


# point x alternative cells one chunk of a sweep's points holds.  Per cell the
# walk keeps a region code and a rank-key value, and a level's broadcast over
# a group needs about 150 bytes more, so a chunk stays under 40 MB whatever
# the grid and case sizes.
SWEEP_CELLS = 1 << 18


class ScoredTable:
    """One oriented group table, scored once, with each level's columns,
    attribute ids, renormalised weights and every row's concept membership
    found once: what every run of a sweep reads."""

    def __init__(self, fused: FusedDecisionTable, attrs: Sequence[AttributeSpec],
                 subsets: Optional[NestedSubsets] = None):
        check_attribute_weights(attrs)
        self.fused, self.attrs = fused, tuple(attrs)
        self.subsets = build_nested_subsets(attrs) if subsets is None else subsets
        self.phi, self.varphi = fused.subscripts()
        self.scores = superior_gradus_array(self.phi, self.varphi, fused.scale)
        self._levels: dict = {}

    def level(self, index: int) -> tuple:
        """Column indices, attribute ids, renormalised weights (in column
        order) and every table row's concept membership of level ``index``,
        1-based: membership is per row, so one pass serves every universe."""
        found = self._levels.get(index)
        if found is None:
            order = self.fused.attributes
            cols = [j for j, a in enumerate(order) if a in self.subsets[index - 1]]
            z = tuple(order[j] for j in cols)
            renormalized = renormalize_weights(self.attrs, z)
            weights = [renormalized[a] for a in z]
            membership = membership_degrees(self.phi[:, cols], self.varphi[:, cols], weights,
                                            self.fused.scale)
            found = self._levels[index] = (cols, z, weights, membership)
        return found


def run_level(rows: np.ndarray, table: ScoredTable, index: int, cfgs: Sequence[LevelConfig],
              params: Sequence[EngineParams], cfg_ids: np.ndarray,
              param_ids: np.ndarray) -> GranularLevel:
    """Classify level ``index`` of ``table`` for a group of points that
    share its universe, the table's ``rows``.

    The level runs on the universe's (universe x z) exponential scores, its
    rows' concept membership and the renormalised attribute weights, all
    read from ``table.level(index)``; the group's ``g``-th point runs the
    level configuration ``cfgs[cfg_ids[g]]`` with parameters
    ``params[param_ids[g]]``.  The granule statistics of every
    configuration the points use are one pass, as are the utilities of
    every parameter set they use; the points' expected utilities and
    regions are then one broadcast over the points, and each returned
    array that all points share is held once, without the point axis.
    """
    if not len(rows):
        raise ValueError("empty universe")
    cols, z, weights, membership = table.level(index)
    scores, membership = table.scores[np.ix_(rows, cols)], membership[rows]
    used_cfgs, cut = _distinct(cfg_ids)
    used_params, util = _distinct(param_ids)
    sizes, pr = shared_granule_statistics(
        scores, membership, [(cfgs[c].sigma, cfgs[c].kappa) for c in used_cfgs.tolist()])
    if not ((pr >= 0.0) & (pr <= 1.0)).all():
        raise ValueError("conditional probability outside [0, 1]")
    sizes, pr = _per_point(sizes, cut), _per_point(pr, cut)
    v = _per_point(comprehensive_utilities(scores, weights, [
        (params[u].eta, params[u].theta, params[u].delta) for u in used_params.tolist()]), util)
    # accept, defer, reject: the concept-state cell weighted by pr, the other by 1 - pr
    expected = v[..., :3] * pr[..., None] + v[..., 3:] * (1.0 - pr)[..., None]
    acc, dfr, rej = expected[..., 0], expected[..., 1], expected[..., 2]
    region = np.where((acc >= dfr) & (acc >= rej), POS,
                      np.where((dfr >= acc) & (dfr >= rej), BND, NEG)).astype(np.int8)
    return GranularLevel(index=index, rows=rows, z=z, scores=scores, sizes=sizes,
                         pr=pr, utilities=v, expected=expected, region=region)


def _distinct(ids: np.ndarray) -> tuple:
    """The distinct values of the non-negative ``ids``, in increasing
    order, and each id's position among them."""
    ids = np.asarray(ids, dtype=np.intp)
    where = np.zeros(ids.max() + 1, dtype=np.intp)
    where[ids] = 1
    distinct = np.flatnonzero(where)
    where[distinct] = np.arange(len(distinct))
    return distinct, where[ids]


def _per_point(array: np.ndarray, which: np.ndarray) -> np.ndarray:
    """``array[which[g]]`` for each point ``g``, along the first axis; the
    one row itself when there is one, shared by every point."""
    return array[0] if len(array) == 1 else array[which]


def _run_group(table: ScoredTable, i: int, rows: np.ndarray, points: np.ndarray,
               cfgs: Sequence[LevelConfig], params: Sequence[EngineParams],
               config_ids: np.ndarray, param_ids: np.ndarray, failures: dict) -> list:
    """:func:`run_level` at level ``i`` for the ``points`` whose universe is
    ``rows``, as ``[(points, level)]``; ``cfgs`` holds each configuration's
    level ``i``.  A group of several points that fails runs again one point
    at a time, so that each failure is its own point's; a failing point
    goes into ``failures`` with its level named."""
    try:
        # the universe goes first and positionally: bench/tracer.py reads it
        level = run_level(rows, table, i, cfgs, params, config_ids[points], param_ids[points])
    except Exception as exc:
        if len(points) > 1:
            return [run for g in range(len(points))
                    for run in _run_group(table, i, rows, points[g:g + 1], cfgs, params,
                                          config_ids, param_ids, failures)]
        # an input problem stays one, naming its level
        failure = (ValueError(f"decision level {i}: {exc}") if isinstance(exc, ValueError)
                   else RuntimeError(f"decision level {i} failed: {exc}"))
        failure.__cause__ = exc
        failures[int(points[0])] = failure
        return []
    return [(points, level)]


def walk(table: ScoredTable, configs: Sequence[tuple], params: Sequence[EngineParams],
         config_ids: np.ndarray, param_ids: np.ndarray,
         monotonicity_override: bool = False) -> Iterator[tuple]:
    """The level loop of a set of runs ("points") over one group table.

    Point ``p`` runs the levels ``configs[config_ids[p]]``, a tuple of
    :class:`LevelConfig` as long as every other, with parameters
    ``params[param_ids[p]]``.  At each level the points still running are
    grouped by universe: points whose universes hold the same rows form one
    group, whichever group they came from, and :func:`run_level` classifies
    each group once.  Each point of a group then goes straight into its
    next-level group, keyed by its own BND rows.  Yields ``(level index,
    [(points, level), ...])`` for each level that some point ran, as
    :func:`run_level` returned each level.

    A configuration that fails the monotonicity check, or has more levels
    than nested subsets, is found once, and its points run none; a point
    whose level fails stops there.  Once the walk ends, the failure of the
    first failed point is raised: the one a run of the points one at a time
    would stop at.
    """
    config_ids = np.asarray(config_ids, dtype=np.intp)
    param_ids = np.asarray(param_ids, dtype=np.intp)
    problems = []  # per configuration, its problem or None
    for levels in configs:
        try:
            check_level_monotonicity(levels, monotonicity_override)
            if len(levels) > len(table.subsets):
                raise ValueError(f"{len(levels)} levels configured but only "
                                 f"{len(table.subsets)} nested subsets exist")
            problems.append(None)
        except ValueError as exc:
            problems.append(exc)
    refused = np.array([problem is not None for problem in problems])[config_ids]
    failures = {p: problems[config_ids[p]] for p in np.flatnonzero(refused).tolist()}
    universe = np.arange(len(table.fused.alternatives))
    running = np.flatnonzero(~refused)
    groups = {universe.tobytes(): (universe, running)} if len(running) else {}
    for i in range(1, len(configs[0]) + 1):
        cfgs = [levels[i - 1] for levels in configs]
        ran, after = [], {}
        for rows, points in groups.values():
            for points, level in _run_group(table, i, rows, np.asarray(points, dtype=np.intp),
                                            cfgs, params, config_ids, param_ids, failures):
                ran.append((points, level))
                # each point's BND rows key it into its next-level group
                bnd = np.broadcast_to(level.region == BND, (len(points), len(rows)))
                for p, mask in zip(points.tolist(), bnd):
                    nxt = rows[mask]
                    if len(nxt):
                        after.setdefault(nxt.tobytes(), (nxt, []))[1].append(p)
        if not ran:
            break
        yield i, ran
        groups = after
    if failures:
        raise failures[min(failures)]


def run_sequential(table: ScoredTable, levels: Sequence[LevelConfig], params: EngineParams,
                   monotonicity_override: bool = False) -> DecisionReport:
    """Run the level-by-level loop; the boundary of each level feeds the next.

    ``table`` is the scored group table, whose attributes and nested
    subsets the levels take in order; a level reads its scores and
    membership on its universe from it.  This is the one-point case of
    :func:`walk`.
    """
    if not table.fused.alternatives:  # every report has at least one level
        raise ValueError("no alternatives")
    if not levels:
        raise ValueError("no level configuration")
    # one point is one group, so its levels hold one row per universe row
    executed = [ran[0][1] for _, ran in walk(table, [tuple(levels)], [params], [0], [0],
                                             monotonicity_override)]
    return DecisionReport(alternatives=table.fused.alternatives, levels=tuple(executed))


def sweep_outcomes(table: ScoredTable, configs: Sequence[tuple],
                   params: Sequence[EngineParams], config_ids: np.ndarray,
                   param_ids: np.ndarray, key: str = "accept", neg_direction: str = "desc",
                   monotonicity_override: bool = False) -> Iterator[tuple]:
    """The outcome of every point of a sweep, walked in chunks of at most
    ``SWEEP_CELLS`` point x alternative cells (at least one point each).

    Points are given as :func:`walk` takes them.  Per point the walk keeps
    only each alternative's region code and rank-key value.  Yields per
    chunk ``(counts, order)``: ``counts[p, i]`` holds point ``p``'s
    cumulative region counts in ``REGIONS`` order once level ``i + 1``
    ran, and ``order[p]`` its ranking as table rows, as :func:`rank` ranks.
    """
    n = len(table.fused.alternatives)
    column = RANK_KEYS.index(key)
    id_order = np.argsort(_by_id(table.fused.alternatives))
    step = max(1, SWEEP_CELLS // n)
    for start in range(0, len(config_ids), step):
        chunk = slice(start, start + step)
        size = len(config_ids[chunk])
        region = np.full((size, n), BND, dtype=np.int8)
        value = np.zeros((size, n))
        counts = np.zeros((size, len(configs[0]), len(REGIONS)), dtype=np.int64)
        offsets = len(REGIONS) * np.arange(size)[:, None]
        for i, ran in walk(table, configs, params, config_ids[chunk], param_ids[chunk],
                           monotonicity_override):
            for points, level in ran:
                cells = np.ix_(points, level.rows)
                region[cells] = level.region
                value[cells] = level.expected[..., column]
            # the state after level i stands until a later level changes it
            counts[:, i - 1:] = np.bincount((region + offsets).ravel(),
                                            minlength=size * len(REGIONS)).reshape(size, 1, -1)
        yield counts, _ranked(region, value, np.broadcast_to(id_order, region.shape),
                              neg_direction)


def _by_id(alternatives: Sequence[str]) -> np.ndarray:
    """Table rows in the order of their sorted ids."""
    return np.array(sorted(range(len(alternatives)), key=alternatives.__getitem__),
                    dtype=np.intp)


def _ranked(region: np.ndarray, value: np.ndarray, id_order: np.ndarray,
            neg_direction: str) -> np.ndarray:
    """Table rows in ranking order along the last axis: by region, then by
    rank-key value (descending, or ascending inside NEG for "asc"), then
    by id; ``id_order``, shaped like ``region``, holds each row's position
    among the sorted ids."""
    signed = np.where((region == NEG) & (neg_direction == "asc"), value, -value)
    return np.lexsort((id_order, signed, region), axis=-1)


def rank(report: DecisionReport, key: str = "accept",
         neg_direction: str = "desc", upto: Optional[int] = None) -> list:
    """Total order: accepted, then deferred, then rejected alternatives.

    Accepted and rejected alternatives keep the expected utility from the
    level that decided them; deferred ones use the latest level at which
    they were evaluated.  ``upto`` ranks the state after that many levels.
    ``neg_direction`` flips the order inside the rejected block.
    """
    if key not in RANK_KEYS:
        raise ValueError(f"rank key must be one of {RANK_KEYS}, got {key!r}")
    if neg_direction not in NEG_DIRECTIONS:
        raise ValueError(f"neg_direction must be {' or '.join(map(repr, NEG_DIRECTIONS))}, "
                         f"got {neg_direction!r}")
    upto = len(report.levels) if upto is None else max(1, min(upto, len(report.levels)))
    region, _, expected = report.state_after(upto)
    value = expected[:, RANK_KEYS.index(key)]
    return report.ids(_ranked(region, value, np.argsort(report.by_id), neg_direction))


def baseline_full_fusion(table: ScoredTable, params: Optional[EngineParams] = None) -> list:
    """One-shot comparator on the scored group table: score each
    alternative by the weighted utility of its per-attribute scores (the
    table's, clipped to [0, 1]), rank descending.

    Without parameters the raw scores are averaged (utility exponent 1);
    with parameters the same risk-averse utility as the engine applies.
    """
    scores = np.clip(table.scores, 0.0, 1.0)
    if params is not None:
        scores = elementwise(math.pow, scores, params.theta)
    weight = {a.id: a.weight for a in table.attrs}
    total = np.zeros(len(scores))
    for j, attr_id in enumerate(table.fused.attributes):  # attribute order, as a scalar sum
        total += weight[attr_id] * scores[:, j]
    scored = sorted(zip(total.tolist(), table.fused.alternatives), key=lambda t: (-t[0], t[1]))
    return [alt for _, alt in scored]
