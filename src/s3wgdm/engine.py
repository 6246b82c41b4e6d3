"""The multi-level sequential three-way decision loop and ranking."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .linguistic import DHLTScale, elementwise, superior_gradus_array
from .neighborhood import granule_statistics, membership_degrees
from .regret import CellValues, comprehensive_utilities
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

POS, BND, NEG = "POS", "BND", "NEG"
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


@dataclass(frozen=True)
class GranularLevel:
    """Everything computed at one decision level."""

    index: int  # 1-based
    universe: tuple
    z: tuple
    scores: np.ndarray  # exponential scores the level ran on, universe x z
    granule_size: Mapping[str, int]
    probability: Mapping[str, float]
    utilities: Mapping[str, CellValues]
    expected: Mapping[str, tuple]  # id -> (accept, defer, reject)
    pos: frozenset
    bnd: frozenset
    neg: frozenset

    def region_of(self, alternative: str) -> str:
        if alternative in self.pos:
            return POS
        if alternative in self.neg:
            return NEG
        if alternative in self.bnd:
            return BND
        raise KeyError(f"{alternative} was not classified at level {self.index}")


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of a full sequential run."""

    alternatives: tuple
    levels: tuple  # GranularLevel per executed level
    exit_level: Mapping[str, int]

    def accept_key(self, alternative: str) -> float:
        """Expected accept utility at the level where the alternative left
        the boundary (survivors: the last executed level)."""
        lvl = self.exit_level[alternative]
        return self.levels[lvl - 1].expected[alternative][0]

    def regions_after(self, upto: int) -> dict:
        """Cumulative regions once ``upto`` levels ran: region -> sorted ids."""
        pos = set().union(*(level.pos for level in self.levels[:upto]))
        neg = set().union(*(level.neg for level in self.levels[:upto]))
        bnd = [a for a in self.alternatives if a not in pos and a not in neg]
        return {POS: sorted(pos), BND: sorted(bnd), NEG: sorted(neg)}


def expected_perceived_utility(v: CellValues, pr: float) -> tuple:
    """Expected perceived utility of accepting, deferring, rejecting."""
    if not (0.0 <= pr <= 1.0):
        raise ValueError(f"conditional probability {pr} outside [0, 1]")
    against = 1.0 - pr
    return (
        v.pp * pr + v.pn * against,
        v.bp * pr + v.bn * against,
        v.np * pr + v.nn * against,
    )


def classify(expected: tuple) -> str:
    """First maximizing action in the order accept, defer, reject."""
    e_acc, e_def, e_rej = expected
    if e_acc >= e_def and e_acc >= e_rej:
        return POS
    if e_def >= e_acc and e_def >= e_rej:
        return BND
    return NEG


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


def run_level(universe: Sequence[str], z: Sequence[str], phi: np.ndarray,
              varphi: np.ndarray, scores: np.ndarray, scale: DHLTScale,
              weights: Sequence[float], cfg: LevelConfig, params: EngineParams,
              index: int = 1, memo: Optional[SweepMemo] = None,
              key: tuple = ()) -> GranularLevel:
    """Classify one level from its (universe x z) fused subscripts and
    their exponential scores; ``weights`` are the renormalised attribute
    weights in column order.  With a ``memo``, membership, granule
    statistics and utilities are looked up under ``key``, which names the
    level and its universe rows, plus the parameters each depends on."""
    if not len(universe):
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
    pos = (acc >= dfr) & (acc >= rej)
    bnd = ~pos & (dfr >= acc) & (dfr >= rej)
    ids = tuple(universe)
    return GranularLevel(
        index=index,
        universe=ids,
        z=tuple(z),
        scores=scores,
        granule_size=dict(zip(ids, sizes.tolist())),
        probability=dict(zip(ids, pr.tolist())),
        utilities={a: CellValues(*row) for a, row in zip(ids, v.tolist())},
        expected=dict(zip(ids, map(tuple, expected.tolist()))),
        pos=frozenset(a for a, keep in zip(ids, pos) if keep),
        bnd=frozenset(a for a, keep in zip(ids, bnd) if keep),
        neg=frozenset(a for a, keep in zip(ids, ~(pos | bnd)) if keep),
    )


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

    alternatives, scale = fused.alternatives, fused.scale
    rows = np.arange(len(alternatives))
    executed = []
    exit_level = {}
    for i, cfg in enumerate(levels, start=1):
        if not len(rows):
            break
        key = (i, rows.tobytes())
        try:
            cols, z, weights = shared.level(i)
            phi, varphi, scores = reuse(("cells",) + key, lambda: shared.restrict(rows, cols))
            # the universe goes first and positionally: bench/tracer.py reads it
            level = run_level([alternatives[r] for r in rows], z, phi, varphi, scores,
                              scale, weights, cfg, params, i, memo, key)
        except Exception as exc:
            raise RuntimeError(f"decision level {i} failed: {exc}") from exc
        executed.append(level)
        for alt in level.pos | level.neg:
            exit_level[alt] = i
        rows = rows[[alt in level.bnd for alt in level.universe]]
    for r in rows:  # survivors stay deferred
        exit_level[alternatives[r]] = executed[-1].index

    return DecisionReport(
        alternatives=alternatives,
        levels=tuple(executed),
        exit_level=exit_level,
    )


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
    regions = report.regions_after(upto)
    idx = 0 if key == "accept" else 1

    def level_key(alt: str) -> float:
        lvl = min(report.exit_level[alt], upto)
        # a deferred alternative's value comes from the last level it was in
        values = report.levels[lvl - 1].expected
        return values[alt][idx]

    pos = sorted(regions[POS], key=lambda a: (-level_key(a), a))
    bnd = sorted(regions[BND], key=lambda a: (-level_key(a), a))
    neg = sorted(regions[NEG],
                 key=lambda a: (level_key(a) if neg_direction == "asc" else -level_key(a), a))
    return pos + bnd + neg


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
