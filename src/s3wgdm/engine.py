"""The multi-level sequential three-way decision loop and ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .linguistic import DHLTScale, elementwise, superior_gradus_array
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


# array bytes one SweepMemo stores; past it results are computed and returned
# but not stored, so no output depends on it.  Stores grow about linearly in
# n: a 6-point sweep of the generated seed-1 n=10^4 case stores 8.1 MiB, the
# 330-point benchmark grid on the n=10^3 case 12.7 MiB.
MEMO_BYTES = 128 << 20


# point x alternative cells one chunk of a sweep's points holds.  Per cell the
# walk keeps a region code and a rank-key value, and a level's broadcast over
# a group needs about 150 bytes more, so a chunk stays under 40 MB whatever
# the grid and case sizes.
SWEEP_CELLS = 1 << 18


class SweepMemo:
    """What the runs of one sweep share over one oriented group table.

    The table is scored once, and each level's columns, attribute ids and
    renormalised weights are found once.  :meth:`get` maps each pure level
    input to its arrays: the level's subscripts and scores, and its
    membership, by (level, universe rows); its granule statistics by those
    plus (sigma, kappa); its utilities by those plus (eta, theta, delta).
    A level index fixes its columns.  Universes are keyed by the bytes of
    their row-index arrays, parameters by their exact float values (-0.0
    and 0.0 share a key and give the same arrays).  Stored arrays are made
    read-only, since every run that hits them shares them.
    """

    def __init__(self, fused: FusedDecisionTable, attrs: Sequence[AttributeSpec],
                 subsets: Optional[NestedSubsets] = None):
        check_attribute_weights(attrs)
        self.fused, self.attrs = fused, tuple(attrs)
        self.subsets = build_nested_subsets(attrs) if subsets is None else subsets
        self.phi, self.varphi = fused.subscripts()
        self.scores = superior_gradus_array(self.phi, self.varphi, fused.scale)
        self.free = MEMO_BYTES  # bytes left to store
        self._levels: dict = {}
        self._arrays: dict = {}

    def level(self, index: int) -> tuple:
        """Column indices, attribute ids and renormalised weights (in column
        order) of level ``index``, 1-based."""
        found = self._levels.get(index)
        if found is None:
            order = self.fused.attributes
            cols = [j for j, a in enumerate(order) if a in self.subsets[index - 1]]
            z = tuple(order[j] for j in cols)
            weights = renormalize_weights(self.attrs, z)
            found = self._levels[index] = (cols, z, [weights[a] for a in z])
        return found

    def restrict(self, rows: np.ndarray, cols: Sequence[int]) -> tuple:
        """The subscripts and scores of the table's ``rows`` on ``cols``."""
        cells = np.ix_(rows, cols)
        return self.phi[cells], self.varphi[cells], self.scores[cells]

    def get(self, key: tuple, compute: Callable):
        """The array, or tuple of arrays, stored under ``key``; else
        ``compute()``'s, stored if it fits in the bytes left."""
        return self.get_many([key], lambda missing: [compute()])[0]

    def get_many(self, keys: Sequence[tuple], compute: Callable) -> list:
        """:meth:`get` of each of the distinct ``keys``: those not stored
        come from one ``compute(missing keys)`` call, in that order."""
        found = {key: self._arrays.get(key) for key in keys}
        missing = [key for key, value in found.items() if value is None]
        if not missing:
            return list(found.values())
        for key, value in zip(missing, compute(missing)):
            found[key] = value
            arrays = value if isinstance(value, tuple) else (value,)
            size = sum(a.nbytes for a in arrays)
            if size <= self.free:
                for a in arrays:
                    a.flags.writeable = False
                self._arrays[key] = value
                self.free -= size
        return [found[key] for key in keys]


class _Unstored(SweepMemo):
    """The memo of a run given none: the table's scores and level columns,
    and no arrays stored."""

    def get_many(self, keys: Sequence[tuple], compute: Callable) -> list:
        return compute(keys)


def run_level(rows: np.ndarray, z: Sequence[str], phi: np.ndarray,
              varphi: np.ndarray, scores: np.ndarray, scale: DHLTScale,
              weights: Sequence[float], cfgs: Sequence[LevelConfig],
              params: Sequence[EngineParams], index: int = 1,
              memo: Optional[SweepMemo] = None, key: tuple = ()) -> GranularLevel:
    """Classify one level for a group of points that share its universe.

    The level runs on the universe's (universe x z) fused subscripts and
    their exponential scores; ``rows`` index the universe in the group
    table, ``weights`` are the renormalised attribute weights in column
    order, and ``cfgs[g]`` and ``params[g]`` are the level configuration
    and parameters of the group's ``g``-th point.  Membership is computed
    once, granule statistics once per distinct (sigma, kappa), utilities
    once per distinct (eta, theta, delta); the points' expected utilities
    and regions are then one broadcast over the points, and each returned
    array that all points share is held once, without the point axis.
    With a ``memo``, membership, granule statistics and utilities are
    looked up under ``key``, which names the level and its universe rows,
    plus the parameters each depends on.
    """
    if not len(rows):
        raise ValueError("empty universe")
    find = (lambda keys, compute: compute(keys)) if memo is None else memo.get_many
    cut_of: dict = {}  # distinct (sigma, kappa) -> its index
    cut = [cut_of.setdefault((c.sigma, c.kappa), len(cut_of)) for c in cfgs]
    util_of: dict = {}  # distinct (eta, theta, delta) -> its index
    util = [util_of.setdefault((p.eta, p.theta, p.delta), len(util_of)) for p in params]

    def granules(missing: list) -> list:
        (membership,) = find([("membership",) + key],
                             lambda _: [membership_degrees(phi, varphi, weights, scale)])
        return shared_granule_statistics(scores, membership, [m[1:3] for m in missing])

    stats = find([("granules",) + c + key for c in cut_of], granules)
    pr = _gathered([p for _, p in stats], cut)
    if not ((pr >= 0.0) & (pr <= 1.0)).all():
        raise ValueError("conditional probability outside [0, 1]")
    v = _gathered(find([("utilities",) + u + key for u in util_of],
                       lambda missing: [comprehensive_utilities(scores, weights, *m[1:4])
                                        for m in missing]), util)
    # accept, defer, reject: the concept-state cell weighted by pr, the other by 1 - pr
    expected = v[..., :3] * pr[..., None] + v[..., 3:] * (1.0 - pr)[..., None]
    acc, dfr, rej = expected[..., 0], expected[..., 1], expected[..., 2]
    region = np.where((acc >= dfr) & (acc >= rej), POS,
                      np.where((dfr >= acc) & (dfr >= rej), BND, NEG)).astype(np.int8)
    return GranularLevel(index=index, rows=rows, z=tuple(z), scores=scores,
                         sizes=_gathered([s for s, _ in stats], cut), pr=pr, utilities=v,
                         expected=expected, region=region)


def _gathered(arrays: list, which: list) -> np.ndarray:
    """``arrays[which[g]]`` for each point ``g``, along a new first axis;
    the one array itself when there is one, shared by every point."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)[which]


def _run_group(memo: SweepMemo, i: int, rows: np.ndarray, points: np.ndarray,
               configs: Sequence[tuple], params: Sequence[EngineParams],
               failures: dict) -> list:
    """:func:`run_level` at level ``i`` for the ``points`` whose universe is
    ``rows``, as ``[(points, level)]``.  A group of several points that
    fails runs again one point at a time, so that each failure is its own
    point's; a failing point goes into ``failures`` with its level named."""
    key = (i, rows.tobytes())
    try:
        cols, z, weights = memo.level(i)
        phi, varphi, scores = memo.get(("cells",) + key, lambda: memo.restrict(rows, cols))
        # the universe goes first and positionally: bench/tracer.py reads it
        level = run_level(rows, z, phi, varphi, scores, memo.fused.scale, weights,
                          [configs[p][i - 1] for p in points.tolist()],
                          [params[p] for p in points.tolist()], i, memo, key)
    except Exception as exc:
        if len(points) > 1:
            return [run for g in range(len(points))
                    for run in _run_group(memo, i, rows, points[g:g + 1], configs, params,
                                          failures)]
        # an input problem stays one, naming its level
        failure = (ValueError(f"decision level {i}: {exc}") if isinstance(exc, ValueError)
                   else RuntimeError(f"decision level {i} failed: {exc}"))
        failure.__cause__ = exc
        failures[int(points[0])] = failure
        return []
    return [(points, level)]


def walk(memo: SweepMemo, configs: Sequence[tuple], params: Sequence[EngineParams],
         monotonicity_override: bool = False) -> Iterator[tuple]:
    """The level loop of a set of runs ("points") over one group table.

    Point ``p`` runs the levels ``configs[p]``, a tuple of
    :class:`LevelConfig` as long as every other point's, with parameters
    ``params[p]``.  At each level the points still running are grouped by
    universe: points whose universes hold the same rows form one group,
    whichever group they came from, and :func:`run_level` classifies each
    group once.  A group's points split into next-level groups by their
    BND rows.  Yields ``(level index, [(points, level), ...])`` for each
    level that some point ran, as :func:`run_level` returned each level.

    A point whose configuration fails the monotonicity check, or has more
    levels than nested subsets, runs none; a point whose level fails stops
    there.  Once the walk ends, the failure of the first failed point is
    raised: the one a run of the points one at a time would stop at.
    """
    failures: dict = {}
    checked: dict = {}  # distinct level configurations -> their problem, or None
    for p, levels in enumerate(configs):
        if levels not in checked:
            checked[levels] = None
            try:
                check_level_monotonicity(levels, monotonicity_override)
                if len(levels) > len(memo.subsets):
                    raise ValueError(f"{len(levels)} levels configured but only "
                                     f"{len(memo.subsets)} nested subsets exist")
            except ValueError as exc:
                checked[levels] = exc
        if checked[levels] is not None:
            failures[p] = checked[levels]
    universe = np.arange(len(memo.fused.alternatives))
    running = np.array([p for p in range(len(configs)) if p not in failures], dtype=np.intp)
    groups = {universe.tobytes(): (universe, [running])} if len(running) else {}
    for i in range(1, len(configs[0]) + 1):
        ran, after = [], {}
        for rows, parts in groups.values():
            points = parts[0] if len(parts) == 1 else np.concatenate(parts)
            for points, level in _run_group(memo, i, rows, points, configs, params, failures):
                ran.append((points, level))
                bnd = level.region == BND
                if bnd.ndim == 1:  # every point of the group has these regions
                    splits = [(bnd, points)]
                else:
                    masks, which = np.unique(bnd, axis=0, return_inverse=True)
                    splits = [(mask, points[which.reshape(-1) == j])
                              for j, mask in enumerate(masks)]
                for mask, members in splits:
                    nxt = rows[mask]
                    if len(nxt):
                        after.setdefault(nxt.tobytes(), (nxt, []))[1].append(members)
        if not ran:
            break
        yield i, ran
        groups = after
    if failures:
        raise failures[min(failures)]


def run_sequential(fused: FusedDecisionTable,
                   attrs: Sequence[AttributeSpec],
                   levels: Sequence[LevelConfig],
                   params: EngineParams,
                   subsets: Optional[NestedSubsets] = None,
                   monotonicity_override: bool = False,
                   memo: Optional[SweepMemo] = None) -> DecisionReport:
    """Run the level-by-level loop; the boundary of each level feeds the next.

    ``fused`` is the oriented group table, as :func:`baseline_full_fusion`
    takes it.  It is scored once; each level restricts those arrays to its
    universe (rows) and attribute subset (columns).  This is the one-point
    case of :func:`walk`.  A ``memo`` built from the same table and
    attributes carries the scores, level columns and level arrays over from
    earlier runs; without one nothing is kept.
    """
    if not fused.alternatives:  # every report has at least one level
        raise ValueError("no alternatives")
    if not levels:
        raise ValueError("no level configuration")
    if memo is not None and (memo.fused is not fused or memo.attrs != tuple(attrs)
                             or subsets not in (None, memo.subsets)):
        raise ValueError("the memo was built for another group table, "
                         "attribute list or subset chain")
    memo = _Unstored(fused, attrs, subsets) if memo is None else memo
    # one point is one group, so its levels hold one row per universe row
    executed = [ran[0][1]
                for _, ran in walk(memo, [tuple(levels)], [params], monotonicity_override)]
    return DecisionReport(alternatives=fused.alternatives, levels=tuple(executed))


def sweep_outcomes(memo: SweepMemo, configs: Sequence[tuple],
                   params: Sequence[EngineParams], key: str = "accept",
                   neg_direction: str = "desc",
                   monotonicity_override: bool = False) -> Iterator[tuple]:
    """The outcome of every point of a sweep, walked in chunks of at most
    ``SWEEP_CELLS`` point x alternative cells (at least one point each).

    Points are given as :func:`walk` takes them.  Per point the walk keeps
    only each alternative's region code and rank-key value.  Yields per
    chunk ``(counts, order)``: ``counts[p, i]`` holds point ``p``'s
    cumulative region counts in ``REGIONS`` order once level ``i + 1``
    ran, and ``order[p]`` its ranking as table rows, as :func:`rank` ranks.
    """
    n = len(memo.fused.alternatives)
    column = RANK_KEYS.index(key)
    id_order = np.argsort(_by_id(memo.fused.alternatives))
    step = max(1, SWEEP_CELLS // n)
    for start in range(0, len(configs), step):
        chunk = slice(start, start + step)
        size = len(configs[chunk])
        region = np.full((size, n), BND, dtype=np.int8)
        value = np.zeros((size, n))
        counts = np.zeros((size, len(configs[0]), len(REGIONS)), dtype=np.int64)
        offsets = len(REGIONS) * np.arange(size)[:, None]
        for i, ran in walk(memo, configs[chunk], params[chunk], monotonicity_override):
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


def baseline_full_fusion(fused: FusedDecisionTable, attrs: Sequence[AttributeSpec],
                         params: Optional[EngineParams] = None) -> list:
    """One-shot comparator on the oriented group table: score each
    alternative by the weighted utility of its per-attribute scores, rank
    descending.

    Without parameters the raw scores are averaged (utility exponent 1);
    with parameters the same risk-averse utility as the engine applies.
    """
    check_attribute_weights(attrs)
    phi, varphi = fused.subscripts()
    scores = np.clip(superior_gradus_array(phi, varphi, fused.scale), 0.0, 1.0)
    if params is not None:
        scores = elementwise(math.pow, scores, params.theta)
    weight = {a.id: a.weight for a in attrs}
    total = np.zeros(len(scores))
    for j, attr_id in enumerate(fused.attributes):  # attribute order, as a scalar sum
        total += weight[attr_id] * scores[:, j]
    scored = sorted(zip(total.tolist(), fused.alternatives), key=lambda t: (-t[0], t[1]))
    return [alt for _, alt in scored]
