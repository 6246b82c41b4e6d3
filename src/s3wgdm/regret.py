"""Relative gains, risk-averse utility, and regret-adjusted perceived utility.

Action/state cells follow the accept/defer/reject x concept/not-concept
layout: ``pp, bp, np`` are the gains of the three actions when the
alternative fits the concept, ``pn, bn, nn`` when it does not.  The
``np`` and ``pn`` cells carry no gain.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linguistic import DHHFLE, DHLTScale, elementwise, superior_gradus
from .neighborhood import BLOCK_CELLS, ranges

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
                            utilities: Sequence[tuple], bounds: np.ndarray,
                            uses: tuple) -> tuple:
    """Comprehensive utilities of the rows of several universes scored on
    an attribute subset, each under the ``(eta, theta, delta)`` sets of
    ``utilities`` it uses, as ``(values, first)``: ``values`` is an
    (entries, 6) array in ``CELLS`` order, and use ``u`` holds its
    universe's k rows, in order, at ``first[u]:first[u] + k`` of it.

    The universes' rows of ``scores`` run one universe after another:
    universe ``u`` is rows ``bounds[u]:bounds[u + 1]``.  ``uses`` pairs
    universes with parameter sets, as two arrays: universe ids and indices
    into ``utilities``.

    :func:`direct_simplified_gains`, :func:`perceived_utility_units` and
    :func:`comprehensive_utility` as one broadcast over the (use, row)
    entries, with the attribute weights given in column order and each
    use's reference utility the best full gain over its own universe.  The
    ``np`` and ``pn`` cells carry no gain, so their utility is 0.0 (as
    ``math.pow(0.0, theta)`` is) and their perceived utility one regret
    term per (use, attribute).  Uses go in blocks whose broadcast holds at
    most ``BLOCK_CELLS`` entries (one use at least), so memory does not
    grow with the number of uses.
    """
    b = np.clip(scores, 0.0, 1.0)
    sets = np.array(utilities, dtype=float).reshape(-1, 3)
    universe, used = uses
    k = (bounds[1:] - bounds[:-1])[universe]  # each use's universe size
    ends = k.cumsum()
    first = ends - k
    out = np.empty((int(ends[-1]), len(CELLS)))
    sizes, ends = k.tolist(), ends.tolist()
    per = max(1, BLOCK_CELLS // max(1, 4 * b.shape[1]))  # entries a block may take
    start = 0
    while start < len(sizes):
        lo = ends[start] - sizes[start]
        stop = max(start + 1, bisect.bisect_right(ends, lo + per))
        count, entries = k[start:stop], ends[stop - 1] - lo
        eta, theta, delta = np.repeat(sets[used[start:stop]], count, axis=0).T
        g = b[ranges(bounds[universe[start:stop]], count)].T
        # the cells with a gain, per attribute: pp, bp, bn, nn, each over the entries
        gains = np.empty((len(g), 4, entries))
        gains[:, 0] = g
        np.multiply(eta, g, out=gains[:, 1])
        np.subtract(1.0, g, out=gains[:, 3])
        np.multiply(eta, gains[:, 3], out=gains[:, 2])
        u = elementwise(math.pow, gains, theta)
        u_ref = np.maximum.reduceat(u[:, 0], first[start:stop] - lo, axis=1)  # per attribute and use
        # the regret exponents -delta * (u - u_ref), per attribute: of the gain
        # cells, then of np and pn (u = 0.0) once per use; delta * (u_ref - u)
        # and delta * u_ref are those bit for bit, as only signs flip
        exponent = np.concatenate((
            (delta * (np.repeat(u_ref, count, axis=1)[:, None] - u)).reshape(len(g), -1),
            sets[used[start:stop], 2] * u_ref), axis=1)
        perceived = 1.0 - elementwise(math.exp, exponent)
        perceived[:, :4 * entries] += u.reshape(len(g), -1)
        total = sum(w * perceived[j] for j, w in enumerate(weights))
        gained = total[:4 * entries].reshape(4, entries)
        block = out[lo:lo + entries]
        block[:, :2], block[:, 4:] = gained[:2].T, gained[2:].T
        block[:, 2:4] = np.repeat(total[4 * entries:], count)[:, None]
        start = stop
    return out, first
