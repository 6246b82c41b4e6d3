"""The multi-level sequential three-way decision loop and ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .linguistic import DHLTScale, elementwise, superior_gradus_array
from .neighborhood import granule_statistics, membership_degrees
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
    """Everything computed at one decision level: one row per universe row."""

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
        ids = self.alternatives
        return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)

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


def _computed(key: tuple, compute: Callable):
    """:meth:`SweepMemo.get` for a caller with no memo."""
    return compute()


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
    read-only, since every run that hits them shares them.  A run given no
    memo builds one for the scores and level columns and stores nothing.
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
        found = self._arrays.get(key)
        if found is None:
            found = compute()
            arrays = found if isinstance(found, tuple) else (found,)
            size = sum(a.nbytes for a in arrays)
            if size <= self.free:
                for a in arrays:
                    a.flags.writeable = False
                self._arrays[key] = found
                self.free -= size
        return found


def run_level(rows: np.ndarray, z: Sequence[str], phi: np.ndarray,
              varphi: np.ndarray, scores: np.ndarray, scale: DHLTScale,
              weights: Sequence[float], cfg: LevelConfig, params: EngineParams,
              index: int = 1, memo: Optional[SweepMemo] = None,
              key: tuple = ()) -> GranularLevel:
    """Classify one level from its (universe x z) fused subscripts and
    their exponential scores; ``rows`` index the universe in the group
    table, ``weights`` are the renormalised attribute weights in column
    order.  With a ``memo``, membership, granule statistics and utilities
    are looked up under ``key``, which names the level and its universe
    rows, plus the parameters each depends on."""
    if not len(rows):
        raise ValueError("empty universe")
    reuse = _computed if memo is None else memo.get

    def granules() -> tuple:
        membership = reuse(("membership",) + key,
                           lambda: membership_degrees(phi, varphi, weights, scale))
        return granule_statistics(scores, membership, cfg.sigma, cfg.kappa)

    sizes, pr = reuse(("granules", cfg.sigma, cfg.kappa) + key, granules)
    if not ((pr >= 0.0) & (pr <= 1.0)).all():
        raise ValueError("conditional probability outside [0, 1]")
    v = reuse(("utilities", params.eta, params.theta, params.delta) + key,
              lambda: comprehensive_utilities(scores, weights, params.eta, params.theta,
                                              params.delta))
    # accept, defer, reject: the concept-state cell weighted by pr, the other by 1 - pr
    expected = v[:, :3] * pr[:, None] + v[:, 3:] * (1.0 - pr)[:, None]
    acc, dfr, rej = expected.T
    region = np.where((acc >= dfr) & (acc >= rej), POS,
                      np.where((dfr >= acc) & (dfr >= rej), BND, NEG)).astype(np.int8)
    return GranularLevel(index=index, rows=rows, z=tuple(z), scores=scores, sizes=sizes,
                         pr=pr, utilities=v, expected=expected, region=region)


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
    universe (rows) and attribute subset (columns).  A ``memo`` built from
    the same table and attributes carries the scores, level columns and
    level arrays over from earlier runs; without one nothing is kept.
    """
    if not fused.alternatives:  # every report has at least one level
        raise ValueError("no alternatives")
    if not levels:
        raise ValueError("no level configuration")
    if memo is not None and (memo.fused is not fused or memo.attrs != tuple(attrs)
                             or subsets not in (None, memo.subsets)):
        raise ValueError("the memo was built for another group table, "
                         "attribute list or subset chain")
    shared = SweepMemo(fused, attrs, subsets) if memo is None else memo
    reuse = _computed if memo is None else memo.get
    check_level_monotonicity(levels, monotonicity_override)
    if len(levels) > len(shared.subsets):
        raise ValueError(f"{len(levels)} levels configured but only "
                         f"{len(shared.subsets)} nested subsets exist")

    rows = np.arange(len(fused.alternatives))
    executed = []
    for i, cfg in enumerate(levels, start=1):
        if not len(rows):
            break
        key = (i, rows.tobytes())
        try:
            cols, z, weights = shared.level(i)
            phi, varphi, scores = reuse(("cells",) + key, lambda: shared.restrict(rows, cols))
            # the universe goes first and positionally: bench/tracer.py reads it
            level = run_level(rows, z, phi, varphi, scores, fused.scale, weights, cfg,
                              params, i, memo, key)
        except ValueError as exc:  # an input problem stays one, naming its level
            raise ValueError(f"decision level {i}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"decision level {i} failed: {exc}") from exc
        executed.append(level)
        rows = level.rows[level.region == BND]
    return DecisionReport(alternatives=fused.alternatives, levels=tuple(executed))


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
    signed = np.where((region == NEG) & (neg_direction == "asc"), value, -value)
    id_order = np.argsort(report.by_id)  # each row's position among the sorted ids
    return report.ids(np.lexsort((id_order, signed, region)))  # region, signed key, id


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
