"""Relative gains, risk-averse utility, and regret-adjusted perceived utility.

Action/state cells follow the accept/defer/reject x concept/not-concept
layout: ``pp, bp, np`` are the gains of the three actions when the
alternative fits the concept, ``pn, bn, nn`` when it does not.  The
``np`` and ``pn`` cells carry no gain.  Regions follow the action order:
accept ``POS``, defer ``BND``, reject ``NEG``.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .linguistic import elementwise
from .neighborhood import BLOCK_CELLS, ranges

from .linguistic import superior_gradus  # noqa: F401  (bench/tracer.py counts its calls here)

CELLS = ("pp", "bp", "np", "pn", "bn", "nn")
REGIONS = ("POS", "BND", "NEG")  # region names; a region's code is its index
POS, BND, NEG = range(3)  # region codes


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

    :func:`reference.direct_simplified_gains`,
    :func:`reference.perceived_utility_units` and
    :func:`reference.comprehensive_utility` as one broadcast over the (use, row)
    entries, with the attribute weights given in column order and each
    use's reference utility the best full gain over its own universe.  The
    ``np`` and ``pn`` cells carry no gain, so their utility is 0.0 (as
    ``math.pow(0.0, theta)`` is) and their perceived utility one regret
    term per (use, attribute).  Uses go in blocks whose broadcast holds at
    most ``BLOCK_CELLS`` entries (one use at least), so memory does not
    grow with the number of uses.
    """
    b = scores.clip(0.0, 1.0)
    sets = np.array(utilities, dtype=float).reshape(-1, 3)
    universe, used = uses
    k = (bounds[1:] - bounds[:-1])[universe]  # each use's universe size
    ends = k.cumsum()
    first = ends - k
    out = np.empty((len(CELLS), int(ends[-1])))  # cell by cell: returned transposed
    sizes, ends = k.tolist(), ends.tolist()
    per = max(1, BLOCK_CELLS // max(1, 4 * b.shape[1]))  # entries a block may take
    start = 0
    while start < len(sizes):
        lo = ends[start] - sizes[start]
        stop = max(start + 1, bisect.bisect_right(ends, lo + per))
        count, entries = k[start:stop], ends[stop - 1] - lo
        chosen = sets[used[start:stop]]  # each use's parameter set
        if stop - start == 1:  # one use: its parameters broadcast, its rows a slice
            (eta, theta, delta), row = chosen[0].tolist(), bounds[universe[start]]
            g, count = b.T[:, row:row + entries], 1
        else:  # per entry
            eta, theta, delta = chosen.T.repeat(count, axis=1)
            g = b.T[:, ranges(bounds[universe[start:stop]], count)]
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
            (delta * (u_ref.repeat(count, axis=1)[:, None] - u)).reshape(len(g), -1),
            chosen[:, 2] * u_ref), axis=1)
        perceived = 1.0 - elementwise(math.exp, exponent)
        perceived[:, :4 * entries] += u.reshape(len(g), -1)
        # weighted and summed attribute by attribute, from 0.0, as a scalar sum
        total = np.add.reduce(perceived * np.array(weights)[:, None], axis=0, initial=0.0)
        cells, block = total[:4 * entries].reshape(4, entries), out[:, lo:lo + entries]
        block[:2], block[4:] = cells[:2], cells[2:]
        block[2:4] = total[4 * entries:].repeat(count)
        start = stop
    return out.T, first
