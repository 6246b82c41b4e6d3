"""Kernel similarity, cut granules, concept membership, conditional probability."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .linguistic import DHLTScale, superior_gradus_array
from .tables import WEIGHT_TOL

from .linguistic import superior_gradus  # noqa: F401  (bench/tracer.py counts its calls here)

# entries one block of an array pass holds, per array: 512 KB of float64, so
# the few arrays a block keeps live fit a per-core L2 cache of 2 MB
BLOCK_CELLS = 1 << 16
SORTED_MIN_ROWS = 64  # universes this large whose granules are intervals take the sorted cut
LIMB_SCALES = np.array([2.0 ** 32, 2.0 ** 64, 2.0 ** 96])  # 1 / the unit of each limb
MAX_ROWS = 1 << 21  # the largest universe: its limb sums stay at most 2^53 units


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each start ``s`` and length ``n``, concatenated."""
    if len(lengths) == 1:
        return np.arange(starts[0], starts[0] + lengths[0])
    ends = lengths.cumsum()
    return (starts + lengths - ends).repeat(lengths) + np.arange(ends[-1] if len(ends) else 0)


def squared_gaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Summed squared score gaps of the rows of ``left`` and ``right``, two
    (..., m) arrays that numpy broadcasts together, taken directly and
    summed column by column, as :func:`reference.kernel_similarity` does
    (its sum starts at 0.0, and 0.0 plus the first square is that square)."""
    if not left.shape[-1]:  # no attributes: no gap
        return np.zeros(np.broadcast_shapes(left.shape[:-1], right.shape[:-1]))
    d2 = np.subtract(left[..., 0], right[..., 0])
    d2 *= d2
    gap = np.empty_like(d2)
    for j in range(1, left.shape[-1]):
        np.subtract(left[..., j], right[..., j], out=gap)
        gap *= gap
        d2 += gap
    return d2


def kernel_rows(block: np.ndarray, scores: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel similarity of each row of ``block`` (k, m) to each row of
    ``scores`` (n, m), as a (k, n) array; identical rows score exactly 1.0."""
    if not sigma > 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    sim = squared_gaps(block[:, None], scores[None])
    np.negative(sim, out=sim)
    with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
        sim /= 2.0 * sigma * sigma
    return np.exp(sim, out=sim)


_THRESHOLDS: dict = {}  # (sigma, kappa) -> T*, each cut searched once per process


def cut_thresholds(cuts: Sequence[tuple]) -> np.ndarray:
    """T*(sigma, kappa) of each ``(sigma, kappa)`` cut: the largest float64
    ``d2`` for which the predicate of :func:`kernel_rows`,
    ``np.exp(np.negative(d2) / (2 sigma^2)) >= kappa``, holds (inf at kappa
    0).  Negation and division round correctly and exp is monotone, so a
    pair is in a cut's granule exactly when its squared gap is at most T*.
    The non-negative doubles are in order as bit patterns: the new cuts of
    a call are found together by one 63-step bisection over those."""
    new = [cut for cut in dict.fromkeys(cuts) if cut not in _THRESHOLDS]
    if new:
        sigma, kappa = np.array(new, dtype=float).T
        lo = np.zeros(len(new), dtype=np.int64)  # passes: a gap of 0 scores 1.0
        hi = np.full(len(new), np.float64(np.inf).view(np.int64) + 1)  # never tried
        for _ in range(63):  # hi - lo starts below 2^63 and halves, rounded up
            mid = lo + (hi - lo) // 2
            with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
                passes = np.exp(np.negative(mid.view(float)) / (2.0 * sigma * sigma)) >= kappa
            lo, hi = np.where(passes, mid, lo), np.where(passes, hi, mid)
        _THRESHOLDS.update(zip(new, lo.view(float).tolist()))
    return np.array([_THRESHOLDS[cut] for cut in cuts])


def similarity_blocks(scores: np.ndarray, sigma: float) -> Iterator[tuple]:
    """The kernel similarity of every row to every row, as ``(first row,
    block)`` pairs over row blocks of about ``BLOCK_CELLS`` entries, so
    memory stays linear in the number of rows."""
    step = max(1, BLOCK_CELLS // max(1, len(scores)))
    for start in range(0, len(scores), step):
        yield start, kernel_rows(scores[start:start + step], scores, sigma)


def membership_parts(membership: np.ndarray) -> np.ndarray:
    """Each membership ``v`` in [0, 1] as a row of a (..., 4) array: 1, then
    three limbs, the floor multiples of 2^-32, 2^-64 and 2^-96 of what the
    limbs before leave of ``v``: ``v = l1 + l2 + l3`` exactly from 2^-44 up,
    and a smaller ``v`` drops its bits below 2^-96.  Each limb is under
    2^32 of its unit (1 is 2^32), so over at most ``MAX_ROWS`` rows every
    column sum is exact in float64, in any order."""
    # v cut down to each limb's unit keeps some of its bits: exact, as are
    # the differences of two cuts
    cut = np.floor(membership[..., None] * LIMB_SCALES) / LIMB_SCALES
    parts = np.ones(membership.shape + (4,))
    parts[..., 1:] = cut
    parts[..., 2:] -= cut[..., :-1]
    return parts


def granule_means(sums: np.ndarray) -> tuple:
    """Granule sizes and conditional probabilities from (..., 4) column sums
    of :func:`membership_parts`: pr is ``((S1 + S2) + S3) / size``."""
    size = sums[..., 0]
    return size.astype(np.intp), (sums[..., 1] + sums[..., 2] + sums[..., 3]) / size


def shared_granule_statistics(scores: np.ndarray, parts: np.ndarray,
                              cuts: Sequence[tuple], bounds: np.ndarray, uses: tuple) -> tuple:
    """Granule size and conditional probability of every row of several
    universes, each at the ``(sigma, kappa)`` cuts it uses, as ``(sizes,
    pr, first)``: use ``u`` holds its universe's k rows, in order, at
    ``first[u]:first[u] + k`` of ``sizes`` and ``pr``, the uses one after
    another in their given order.

    The universes' rows of ``scores`` and of ``parts``, their memberships'
    limbs (:func:`membership_parts`), run one universe after another:
    universe ``u`` is rows ``bounds[u]:bounds[u + 1]``, at most
    ``MAX_ROWS`` of them.  ``uses`` pairs universes with cuts, as two
    arrays: universe ids and indices into ``cuts``.

    A row's granule is every row of its own universe at least
    ``kappa``-similar to it: a squared score gap at most the cut's T*
    (:func:`cut_thresholds`).  Its probability is the mean membership over
    the granule.  Every route writes each entry's exact limb sums into one
    (entries, 4) array, and :func:`granule_means` turns them into sizes
    and pr once.  Only sizes are kept, never member sets.

    Two routes cut the granules.  Where they are intervals of score
    column 0, on one column or at a T* of inf (kappa 0, where each granule
    is the whole universe), a universe of at least ``SORTED_MIN_ROWS``
    rows takes the sorted path, sorted once for all of those cuts.  The
    rest share one blocked pass (:func:`_kernel_statistics`).  Both give
    the sizes and pr of :func:`reference.kernel_granule_statistics` bit
    for bit.
    """
    for _, kappa in cuts:
        if not (0.0 <= kappa <= 1.0):
            raise ValueError(f"cut threshold {kappa} outside [0, 1]")
    universe, cut = uses
    low = bounds[universe]  # each use's universe's first row and size
    k = bounds[universe + 1] - low
    largest = int(k.max())
    if largest > MAX_ROWS:
        raise ValueError(f"a universe of {largest} alternatives is larger than the "
                         f"{MAX_ROWS} whose membership sums stay exact")
    ends = k.cumsum()
    first = ends - k
    sums = np.empty((int(ends[-1]) + 1, 4))  # the last row takes the blocked pass's padding
    limits = cut_thresholds(cuts)[cut]  # each use's T*
    rest = slice(None)  # the uses of the blocked pass: all, when no universe is sorted
    if largest >= SORTED_MIN_ROWS:
        interval = (k >= SORTED_MIN_ROWS) & ((scores.shape[1] == 1) | (limits == np.inf))
        for u in sorted(set(universe[interval].tolist())):  # sorted once for all of its cuts
            these, rows = np.flatnonzero(interval & (universe == u)), slice(*bounds[u:u + 2])
            sums[first[these, None] + np.arange(k[these[0]])] = sorted_granule_statistics(
                scores[rows, 0], parts[rows], limits[these])
        rest = ~interval
    _kernel_statistics(scores, parts, low[rest], k[rest], limits[rest], first[rest], sums)
    return (*granule_means(sums[:-1]), first)


def _kernel_statistics(scores: np.ndarray, parts: np.ndarray, low: np.ndarray, size: np.ndarray,
                       limits: np.ndarray, first: np.ndarray, sums: np.ndarray) -> None:
    """Write the limb sums of uses, given as their universes' first rows
    and sizes (equal for uses of one universe), their cuts' T* and their
    first entries, into ``sums`` by the blocked pass.

    Universes pack whole into blocks in order of size while the block's
    uses times its largest universe's pairs stay within ``BLOCK_CELLS``.
    A block takes each row's squared gaps to its own universe once for
    all of its cuts and sums the granules by matrix products, written
    straight to the uses' entries: one product per row step for a lone
    universe, whose uses share its limbs, and one per use for several,
    which are padded to the block's largest, the padding's limb rows
    zero.  A universe too large for one block is a block of its own,
    which takes its rows in steps, one row at least, over all of its cuts.
    """
    if len(low) > 1:  # each universe's uses together, small universes first
        order = np.lexsort((low, size))
        low, size, limits, first = low[order], size[order], limits[order], first[order]
    keys = list(zip(low.tolist(), size.tolist()))  # each use's universe
    # the uses of universe i: ends[i]:ends[i + 1]
    ends = [a for a in range(len(keys)) if not a or keys[a] != keys[a - 1]] + [len(keys)]
    blocks = []  # [first universe, end universe]
    for i, a in enumerate(ends[:-1]):
        if blocks and (ends[i + 1] - ends[blocks[-1][0]]) * keys[a][1] ** 2 <= BLOCK_CELLS:
            blocks[-1][1] = i + 1
        else:
            blocks.append([i, i + 1])
    for i, j in blocks:
        a, b, width = ends[i], ends[j], keys[ends[j] - 1][1]
        col = np.arange(width)
        if j - i == 1:  # one universe: its rows as they are, its uses sharing its weights
            rows, pick = slice(keys[a][0], keys[a][0] + width), slice(None)
            block, weights = scores[None, rows], parts[None, rows]
        else:  # padded to the largest: zero limb rows, whose entries go to the last row
            heads = ends[i:j]
            pad = col >= size[heads, None]
            rows = low[heads, None] + np.where(pad, 0, col)
            pick = np.arange(j - i).repeat(np.diff(ends[i:j + 1]))  # each use's universe
            block, weights = scores[rows], np.where(pad[..., None], 0.0, parts[rows])[pick]
        step = max(1, BLOCK_CELLS // ((b - a) * width))
        for row in range(0, width, step):
            gaps = squared_gaps(block[:, row:row + step, None], block[:, None])
            member = (gaps[pick] <= limits[a:b, None, None]).astype(float)
            at = first[a:b, None] + col[row:row + step]  # this step's entries
            if j - i > 1:
                at[pad[pick, row:row + step]] = len(sums) - 1
            # a lone universe's uses share its limbs, so they take one matrix product
            sums[at] = (member.reshape(len(weights), -1, width) @ weights).reshape(b - a, -1, 4)


def sorted_granule_statistics(values: np.ndarray, parts: np.ndarray,
                              limits: np.ndarray) -> np.ndarray:
    """The limb sums of :func:`shared_granule_statistics` for one score
    column at several cuts, given as their T* (:func:`cut_thresholds`),
    with the memberships given as :func:`membership_parts`: a (cuts, n, 4)
    array, in O(n log n) per cut.

    In one dimension a granule is an interval of the sorted distinct
    scores (fixed-radius near neighbours by sorting), so the column is
    sorted once for all the cuts.  Each interval is bracketed by
    ``searchsorted`` at a radius no pair in the granule reaches (the whole
    column at a T* of inf), then each end moves inward while the cut,
    ``gap * gap`` at most T*, fails; so sizes equal the kernel's.  Sums
    are differences of prefix sums of the sorted limbs, exact like every
    limb sum.  Rows with equal scores share one interval, so they get
    identical sums.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(n + 1, dtype=bool)  # new[i]: sorted row i starts a distinct score
    new[0] = new[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:n])
    distinct = ordered[new[:n]]
    starts = np.flatnonzero(new)  # sorted rows of distinct[k]: starts[k]:starts[k + 1]
    group = np.empty(n, dtype=np.intp)
    group[order] = np.cumsum(new[:n]) - 1
    center, limit = np.tile(distinct, len(limits)), limits.repeat(len(distinct))  # per cut
    # rounding is monotone: a gap whose square rounds to at most T* has an
    # exact square below the double after T*, and it and its exact score
    # difference lie below the double after the rounded root of that
    reach = np.nextafter(np.sqrt(np.nextafter(limits, np.inf)), np.inf)[:, None]
    lo = np.searchsorted(distinct, distinct - reach, side="left").ravel()  # (cut, distinct)
    hi = np.searchsorted(distinct, distinct + reach, side="right").ravel()
    for end, inward, offset in ((lo, 1, 0), (hi, -1, -1)):
        todo = np.arange(len(end))
        while todo.size:
            gap = center[todo] - distinct[end[todo] + offset]
            todo = todo[gap * gap > limit[todo]]
            end[todo] += inward
    cum = np.zeros((n + 1, 4))
    np.cumsum(parts[order], axis=0, out=cum[1:])
    return (cum[starts[hi]] - cum[starts[lo]]).reshape(len(limits), -1, 4)[:, group]


def membership_degrees(phi: np.ndarray, varphi: np.ndarray, weights: Sequence,
                       scale: DHLTScale) -> np.ndarray:
    """:func:`reference.concept_membership` on (k, m) subscript arrays, with
    the attribute weights given in column order: a (k,) result for one
    weight per column, a (levels, k) one for a (levels, m) matrix whose rows
    weight absent columns 0.0.  An absent column adds a zero, which can only
    flip the sign of a zero mean, and the score maps both zeros to one
    double: each row equals its subset's columns alone, bit for bit."""
    weights = np.asarray(weights, dtype=float)
    for total in map(sum, np.atleast_2d(weights).tolist()):
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"attribute weights over the subset sum to {total}, expected 1")
    # each weighted column added in turn from 0.0 (numpy reduces a C-ordered outer axis in order)
    both = np.concatenate((phi, varphi)).T.copy() * weights[..., None]
    mean = np.add.reduce(both, axis=-2, initial=0.0)
    return superior_gradus_array(mean[..., :len(phi)], mean[..., len(phi):], scale).clip(0.0, 1.0)
