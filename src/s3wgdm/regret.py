"""Relative gains, risk-averse utility, and regret-adjusted perceived utility.

Action/state cells follow the accept/defer/reject x concept/not-concept
layout: ``pp, bp, np`` are the gains of the three actions when the
alternative fits the concept, ``pn, bn, nn`` when it does not.  The
``np`` and ``pn`` cells carry no gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linguistic import DHHFLE, DHLTScale, elementwise, superior_gradus
from .neighborhood import BLOCK_CELLS

CELLS = ("pp", "bp", "np", "pn", "bn", "nn")


@dataclass(frozen=True)
class CellValues:
    """One value per action/state cell, in ``CELLS`` order: the gains,
    the perceived utilities, or their weighted average over attributes."""

    pp: float
    bp: float
    np: float
    pn: float
    bn: float
    nn: float

    def cell(self, name: str) -> float:
        return getattr(self, name)


def direct_simplified_gains(cell: DHHFLE, eta: float,
                            scale: DHLTScale) -> CellValues:
    """The six gains of one evaluation, computed on the score scale.

    The evaluation is scored and clipped into [0, 1] first; the deferral
    and rejection gains are then related linearly on that scale:
    ``bp = eta * pp``, ``nn = 1 - pp``, ``bn = eta * nn``; ``np`` and
    ``pn`` are 0.  The scalar reference for the gains inside
    :func:`comprehensive_utilities`.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"gain fraction eta must lie in [0, 1], got {eta}")
    b = min(1.0, max(0.0, superior_gradus(cell, scale)))
    return CellValues(
        pp=b, bp=eta * b, np=0.0, pn=0.0, bn=eta * (1.0 - b), nn=1.0 - b)


def utility(b: float, theta: float) -> float:
    """Concave power utility of a score."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"risk aversion theta must lie in (0, 1), got {theta}")
    if not (0.0 <= b <= 1.0):
        raise ValueError(f"score {b} outside [0, 1]")
    return b ** theta


def regret_rejoice(delta_u: float, delta: float) -> float:
    """Anticipated regret (negative) or rejoice (positive) for a utility gap."""
    if delta < 0:
        raise ValueError(f"regret aversion delta must be non-negative, got {delta}")
    return 1.0 - math.exp(-delta * delta_u)


def perceived_utility_units(units: Sequence[CellValues], theta: float,
                            delta: float) -> list:
    """Perceived utilities for all alternatives under one attribute.

    The reference point is the best full gain across the alternatives
    still under comparison; every cell's utility is compared against it,
    so giving up a strong evaluation is felt as regret while a rejection
    gain that beats every full gain registers as rejoice.
    """
    if not units:
        raise ValueError("no alternatives to compare")
    u_ref = max(utility(unit.pp, theta) for unit in units)
    out = []
    for unit in units:
        values = {}
        for name in CELLS:
            u = utility(unit.cell(name), theta)
            values[name] = u + regret_rejoice(u - u_ref, delta)
        out.append(CellValues(**values))
    return out


def comprehensive_utility(per_attribute: Mapping[str, CellValues],
                          weights: Mapping[str, float]) -> CellValues:
    if set(per_attribute) != set(weights):
        raise ValueError("utility units and weights cover different attributes")
    values = {}
    for name in CELLS:
        values[name] = sum(weights[a] * per_attribute[a].cell(name)
                           for a in per_attribute)
    return CellValues(**values)


def comprehensive_utilities(scores: np.ndarray, weights: Sequence[float],
                            utilities: Sequence[tuple]) -> np.ndarray:
    """Comprehensive utilities of k alternatives scored on an attribute
    subset, under each ``(eta, theta, delta)`` of ``utilities``: a
    (U, k, 6) array in ``CELLS`` order.

    :func:`direct_simplified_gains`, :func:`perceived_utility_units` and
    :func:`comprehensive_utility` as one (k, |Z|, 6, U) broadcast, with the
    attribute weights given in column order.  The parameter sets run along
    the last axis, where :func:`elementwise` repeats theta without copying
    it, and go in blocks whose broadcast holds at most ``BLOCK_CELLS``
    entries (one set at least), so memory does not grow with U.
    """
    b = np.clip(scores, 0.0, 1.0)[..., None]
    sets = np.array(utilities, dtype=float).reshape(-1, 3)
    out = np.empty((len(sets), len(b), len(CELLS)))
    step = max(1, BLOCK_CELLS // max(1, b.size * len(CELLS)))
    for start in range(0, len(sets), step):
        eta, theta, delta = sets[start:start + step].T
        gains = np.zeros(b.shape[:2] + (len(CELLS), len(eta)))
        gains[:, :, 0] = b
        gains[:, :, 1] = eta * b
        gains[:, :, 4] = eta * (1.0 - b)
        gains[:, :, 5] = 1.0 - b
        u = elementwise(math.pow, gains, theta)
        u_ref = u[:, :, 0].max(axis=0)  # best full gain per attribute
        perceived = u + (1.0 - elementwise(math.exp, -delta * (u - u_ref[:, None])))
        total = sum(w * perceived[:, j] for j, w in enumerate(weights))
        out[start:start + step] = np.moveaxis(total, -1, 0)
    return out
