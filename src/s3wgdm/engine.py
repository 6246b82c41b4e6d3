"""The multi-level sequential three-way decision loop and ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .linguistic import elementwise, superior_gradus_array
from .neighborhood import membership_degrees, membership_parts, ranges, shared_granule_statistics
from .regret import BND, NEG, REGIONS, comprehensive_utilities
from .tables import (
    AttributeSpec,
    FusedDecisionTable,
    NestedSubsets,
    build_nested_subsets,
    check_attribute_weights,
    renormalize_weights,
)

# bench/tracer.py looks these up here; the engine runs the array path instead
from .linguistic import superior_gradus  # noqa: F401
from .reference import (  # noqa: F401
    build_similarity_matrix,
    comprehensive_utility,
    concept_membership,
    conditional_probability,
    cut_granules,
    direct_simplified_gains,
    extract,
    perceived_utility_units,
)
from .tables import fuse_dhhflmwa, orient_to_concept  # noqa: F401

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
        denom = 2.0 * self.sigma * self.sigma  # the kernel's denominator
        if denom == 0.0:
            raise ValueError(f"sigma {self.sigma} is too small: 2 sigma^2 underflows to 0")
        if denom == math.inf:  # every pair would score exactly 1.0
            raise ValueError(f"sigma {self.sigma} is too large: 2 sigma^2 overflows to inf")


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
    levels, compared exactly, unless explicitly overridden."""
    if override:
        return
    for a, b in zip(levels, levels[1:]):
        if b.kappa < a.kappa:
            raise ValueError(
                "cut thresholds must be non-decreasing across levels "
                "(pass the monotonicity override to allow this)")
        if b.sigma > a.sigma:
            raise ValueError(
                "kernel widths must be non-increasing across levels "
                "(pass the monotonicity override to allow this)")


@dataclass(frozen=True, eq=False)
class GranularLevel:
    """Everything computed at one decision level for a set of points.

    Each point runs on its universe's rows of :meth:`ScoredTable.level`:
    the scores and membership limbs, which no point's parameters change.
    ``rows`` holds the universes one after another; the other arrays from
    ``sizes`` on hold one entry per cell, a (point, universe row) pair.  A
    level run for one point holds one cell per universe row, in order.
    """

    index: int  # 1-based
    rows: np.ndarray  # the universes, as row indices into the group table
    z: tuple
    scores: np.ndarray  # exponential scores the level ran on, rows x z
    cell_point: np.ndarray  # each cell's point, by position among the points run
    cell_row: np.ndarray  # each cell's universe row, by position in ``rows``
    sizes: np.ndarray  # granule sizes
    pr: np.ndarray  # conditional probabilities
    utilities: np.ndarray  # comprehensive utilities, (cells, 6) in regret.CELLS order
    expected: np.ndarray  # expected utilities, (cells, 3): accept, defer, reject
    region: np.ndarray  # int8 region codes: POS, BND or NEG


@dataclass(frozen=True, eq=False)
class DecisionReport:
    """Outcome of a full sequential run: one point, so each level holds
    one cell per universe row.  Each level's universe is the previous
    level's BND, so writing the levels' rows into one array in level order
    leaves each alternative with its value from the level that decided it,
    or from the last level it was in."""

    alternatives: tuple
    levels: tuple  # GranularLevel per executed level

    def state_after(self, upto: Optional[int] = None) -> tuple:
        """Per alternative, in table order, once ``upto`` levels ran (default
        all): its region code, the index of the level its values come from,
        and its (accept, defer, reject) expected utilities at that level.
        Before any level ran every alternative is deferred, at level 0.
        The arrays are read-only and shared by every caller."""
        return self._states[len(self.levels[:upto])]

    @cached_property
    def _states(self) -> tuple:
        """The state after each number of levels, 0 to all, each built
        once from the one before it."""
        n = len(self.alternatives)
        state = (np.full(n, BND, dtype=np.int8), np.zeros(n, dtype=np.int64), np.zeros((n, 3)))
        states = [state]
        for lvl in self.levels:
            state = tuple(a.copy() for a in state)
            for array, value in zip(state, (lvl.region, lvl.index, lvl.expected)):
                array[lvl.rows] = value
            states.append(state)
        for array in chain.from_iterable(states):
            array.flags.writeable = False
        return tuple(states)

    @cached_property
    def by_id(self) -> np.ndarray:
        """Table rows in the order of their sorted ids."""
        return _by_id(self.alternatives)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Each table row's position among the sorted ids."""
        return np.argsort(self.by_id)

    def ids(self, rows: np.ndarray) -> list:
        """The alternative ids of table ``rows``."""
        return list(map(self.alternatives.__getitem__, rows.tolist()))

    def regions(self, rows: np.ndarray, codes: np.ndarray) -> dict:
        """Region name -> the sorted ids of table ``rows`` whose region
        ``codes`` name it."""
        named = self.ids(rows[np.lexsort((self.id_order[rows], codes))])
        ends = np.cumsum(np.bincount(codes, minlength=len(REGIONS))).tolist()
        return {name: named[start:end] for name, start, end in zip(REGIONS, [0] + ends, ends)}

    def regions_after(self, upto: int) -> dict:
        """Cumulative regions once ``upto`` levels ran: region -> sorted ids."""
        return self.regions(self.by_id, self.state_after(upto)[0][self.by_id])


# point x alternative cells one chunk of a sweep's points holds.  Per cell the
# walk keeps a region code, a rank-key value and a BND bit, and a level's
# broadcast over its cells needs about 150 bytes more, so a chunk stays under
# 40 MB whatever the grid and case sizes.
SWEEP_CELLS = 1 << 18


class ScoredTable:
    """One oriented group table, scored once, with each level's columns,
    attribute ids, renormalised weights and the limbs of every row's concept
    membership found once, when a run first asks for them: what every run
    of a sweep reads."""

    def __init__(self, fused: FusedDecisionTable, attrs: Sequence[AttributeSpec],
                 subsets: Optional[NestedSubsets] = None):
        check_attribute_weights(attrs)
        self.fused, self.attrs = fused, tuple(attrs)
        self.subsets = build_nested_subsets(attrs) if subsets is None else subsets
        self.phi, self.varphi = fused.subscripts()
        self.scores = superior_gradus_array(self.phi, self.varphi, fused.scale)
        self._levels: tuple = ()  # levels 1 to len(_levels), as found

    def level(self, index: int) -> tuple:
        """Column indices, attribute ids, renormalised weights (in column order), and
        the limbs (:func:`membership_parts`) of every table row's concept membership of
        level ``index``, 1-based: found once per table, read-only, for every run on it.
        The levels up to ``index`` not yet found are found together, in one
        :func:`membership_degrees` call on their (levels, m) weight matrix."""
        if index > len(self._levels):
            order = self.fused.attributes
            subsets = self.subsets.levels[len(self._levels):index]
            weights = np.zeros((len(subsets), len(order)))  # absent columns weigh 0.0
            found = []
            for row, subset in zip(weights, subsets):
                cols = np.flatnonzero([a in subset for a in order])
                z = tuple(order[j] for j in cols)
                renormalized = renormalize_weights(self.attrs, z)
                row[cols] = [renormalized[a] for a in z]
                found.append((cols, z, row[cols].tolist()))
            parts = membership_parts(membership_degrees(self.phi, self.varphi, weights,
                                                        self.fused.scale))
            parts.flags.writeable = False
            self._levels += tuple((*level, p) for level, p in zip(found, parts))
        return self._levels[index - 1]


def run_level(rows: np.ndarray, table: ScoredTable, index: int, cfgs: Sequence[LevelConfig],
              params: Sequence[EngineParams], cfg_ids: np.ndarray, param_ids: np.ndarray,
              bounds: np.ndarray, groups: np.ndarray) -> GranularLevel:
    """Classify level ``index`` of ``table`` for a set of points in one pass.

    The points' universes, groups of table rows, run one after another in
    ``rows``: group ``g``'s universe is ``rows[bounds[g]:bounds[g + 1]]``.
    Point ``p`` is in group ``groups[p]`` and runs the level configuration
    ``cfgs[cfg_ids[p]]`` with parameters ``params[param_ids[p]]``.  The
    universes' scores, column by column, and membership limbs are gathered
    from ``table.level(index)``, which splits the limbs once per table.

    One :func:`shared_granule_statistics` call finds the granule statistics
    of every distinct (group, configuration) pair the points use, and one
    :func:`comprehensive_utilities` call the utilities of every distinct
    (group, parameter set) pair; a lone point's pairs are its own, so it
    neither sorts nor gathers them.  The points' expected utilities and
    regions are one broadcast over all (point, universe row) cells.
    """
    if not len(rows):
        raise ValueError("empty universe")
    cols, z, weights, parts = table.level(index)
    scores, parts = table.scores.T[cols[:, None], rows].T, parts[rows]
    if len(groups) > 1:  # the distinct (group, configuration) and (group, parameter set) pairs
        cuts, cut_use = _uses(groups, cfg_ids, len(cfgs))
        sets, set_use = _uses(groups, param_ids, len(params))
    else:  # a lone point's two pairs are its own: sorting one key is the identity
        cuts, sets = (groups, np.asarray(cfg_ids)), (groups, np.asarray(param_ids))
    sizes, pr, cut_first = shared_granule_statistics(
        scores, parts, [(c.sigma, c.kappa) for c in cfgs], bounds, cuts)
    if not (0.0 <= pr.min() and pr.max() <= 1.0):  # a NaN fails too
        raise ValueError("conditional probability outside [0, 1]")
    v, set_first = comprehensive_utilities(
        scores, weights, [(p.eta, p.theta, p.delta) for p in params], bounds, sets)
    count = (bounds[1:] - bounds[:-1])[groups]  # each point's universe size
    if len(groups) > 1:  # one point's cells are its two pairs' entries, in order
        at = ranges(cut_first[cut_use], count)
        sizes, pr = sizes[at], pr[at]
        v = v[ranges(set_first[set_use], count)]
    # accept, defer, reject: the concept-state cell weighted by pr, the other by 1 - pr
    expected = v[:, :3] * pr[:, None]
    expected += v[:, 3:] * (1.0 - pr)[:, None]
    # the first maximizing action, in the order accept, defer, reject
    region = expected.argmax(axis=1).astype(np.int8)
    return GranularLevel(index=index, rows=rows, z=z, scores=scores,
                         cell_point=np.arange(len(groups)).repeat(count),
                         cell_row=ranges(bounds[groups], count),
                         sizes=sizes, pr=pr, utilities=v, expected=expected, region=region)


def _uses(groups: np.ndarray, ids: np.ndarray, count: int) -> tuple:
    """The distinct (group, id) pairs of the points, ids below ``count``, in
    increasing order, as (their groups, their ids), and each point's pair's
    position among them."""
    keys = groups * count + ids
    order = keys.argsort()
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)  # new[i]: sorted key i starts a distinct pair
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    use = np.empty(len(keys), dtype=np.intp)
    use[order] = new.cumsum() - 1
    return np.divmod(keys[new], count), use


def walk(table: ScoredTable, configs: Sequence[tuple], params: Sequence[EngineParams],
         config_ids: np.ndarray, param_ids: np.ndarray,
         monotonicity_override: bool = False) -> Iterator[tuple]:
    """The level loop of a set of runs ("points") over one group table.

    Point ``p`` runs the levels ``configs[config_ids[p]]``, a tuple of
    :class:`LevelConfig` as long as ``configs[0]``, with parameters
    ``params[param_ids[p]]``.  At each level the points still running are
    grouped by universe: points whose universes hold the same rows form one
    group, whichever group they came from.  A level is one pass: one
    :func:`run_level` call classifies every group of the level at once.
    The points' BND rows, as bit masks over the table rows, then regroup
    every point in one step; a lone point's BND rows are its next universe.
    Yields ``(level index, points, level)`` for each level that some point
    ran, ``level`` the :class:`GranularLevel` of those ``points``, whose
    cells' ``cell_point`` index into ``points``.

    Before any level runs, each configuration a point uses is checked, in
    point order, and the first that fails the monotonicity check, has more
    levels than nested subsets or differs in length from ``configs[0]`` is
    raised.  A level that raises ends the walk with its error, naming the
    level.
    """
    config_ids = np.asarray(config_ids, dtype=np.intp)
    param_ids = np.asarray(param_ids, dtype=np.intp)
    for levels in map(configs.__getitem__, dict.fromkeys(config_ids.tolist())):
        check_level_monotonicity(levels, monotonicity_override)
        if len(levels) > len(table.subsets):
            raise ValueError(f"{len(levels)} levels configured but only "
                             f"{len(table.subsets)} nested subsets exist")
        if len(levels) != len(configs[0]):
            raise ValueError("level configurations differ in length: "
                             f"{len(levels)} against {len(configs[0])}")
    n = len(table.fused.alternatives)
    points = np.arange(len(config_ids))
    rows, bounds, groups = np.arange(n), np.array([0, n]), np.zeros(len(points), dtype=np.intp)
    for i in range(1, len(configs[0]) + 1):
        if not len(points):
            break
        cfgs = [levels[i - 1] for levels in configs]
        try:
            table.level(len(configs[0]))  # the first call finds every level the walk may run
            # the universes go first and positionally: bench/tracer.py reads them
            level = run_level(rows, table, i, cfgs, params, config_ids[points],
                              param_ids[points], bounds, groups)
        except ValueError as exc:  # an input problem stays one, naming its level
            raise ValueError(f"decision level {i}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"decision level {i} failed: {exc}") from exc
        yield i, points, level
        if len(points) == 1:  # a lone point's cells are its universe rows, in order
            rows = level.rows[level.region == BND]
            del level  # the next level runs without this one held
            points, bounds = points[:min(1, len(rows))], np.array([0, len(rows)])
            continue
        # each point's BND rows, packed into bytes, key it into its next-level group
        bnd = np.zeros((len(points), n), dtype=bool)
        bnd[level.cell_point, level.rows[level.cell_row]] = level.region == BND
        del level  # the next level runs without this one held
        running = bnd.any(axis=1)
        points, bnd = points[running], bnd[running]
        if len(points) > 1:
            keys = np.packbits(bnd, axis=1)
            _, first, groups = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                         return_index=True, return_inverse=True)
            bnd = bnd[first]
        else:  # no point, or a lone point in a group of its own
            groups = np.zeros(len(points), dtype=np.intp)
        owner, rows = bnd.nonzero()
        bounds = owner.searchsorted(np.arange(len(bnd) + 1))


def run_sequential(table: ScoredTable, levels: Sequence[LevelConfig], params: EngineParams,
                   monotonicity_override: bool = False) -> DecisionReport:
    """Run the level-by-level loop; the boundary of each level feeds the next.

    ``table`` is the scored group table, whose attributes and nested
    subsets the levels take in order; a level reads its scores and
    membership on its universe from it.  This is the one-point case of
    :func:`walk`: each level it yields is one of the report's levels, and
    a level that fails raises its error, naming the level.
    """
    if not table.fused.alternatives:  # every report has at least one level
        raise ValueError("no alternatives")
    if not levels:
        raise ValueError("no level configuration")
    # one point is one group, so its levels hold one row per universe row
    executed = [level for _, _, level in walk(table, [tuple(levels)], [params], [0], [0],
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
        for i, points, level in walk(table, configs, params, config_ids[chunk],
                                     param_ids[chunk], monotonicity_override):
            cells = points[level.cell_point], level.rows[level.cell_row]
            region[cells] = level.region
            value[cells] = level.expected[:, column]
            del level  # the walk runs the next level without this one held
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
    return report.ids(_ranked(region, value, report.id_order, neg_direction))


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
    # descending by total, ties by id; -0.0 and 0.0 compare equal
    return [alt for _, alt in sorted(zip((-total).tolist(), table.fused.alternatives))]
