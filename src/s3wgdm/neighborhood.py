"""Kernel similarity, cut granules, concept membership, conditional probability."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .linguistic import (
    DHHFLE,
    DHLT,
    DHLTScale,
    superior_gradus,
    superior_gradus_array,
    superior_gradus_term,
)
from .tables import WEIGHT_TOL, FusedDecisionTable

# entries one block of an array pass holds, per array: 512 KB of float64, so
# the few arrays a block keeps live fit a per-core L2 cache of 2 MB
BLOCK_CELLS = 1 << 16
SORTED_MIN_ROWS = 64  # one-column universes this large take the sorted cut


@dataclass(frozen=True)
class SimilarityMatrix:
    ids: tuple
    values: np.ndarray  # symmetric, unit diagonal, entries in [0, 1]
    sigma: float

    def value(self, a: str, b: str) -> float:
        i = self.ids.index(a)
        j = self.ids.index(b)
        return float(self.values[i, j])


@dataclass(frozen=True)
class NeighborhoodGranule:
    center: str
    members: frozenset
    kappa: float

    def __post_init__(self) -> None:
        if self.center not in self.members:
            raise ValueError("granule must contain its center")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ConceptMembership:
    """Degree of each alternative toward the target concept."""

    degrees: Mapping[str, float]

    def __post_init__(self) -> None:
        for k, v in self.degrees.items():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"membership of {k} is {v}, outside [0, 1]")

    def __getitem__(self, alternative: str) -> float:
        return self.degrees[alternative]


def kernel_similarity(x_row: Sequence[DHHFLE], y_row: Sequence[DHHFLE],
                      scale: DHLTScale, sigma: float) -> float:
    """Gaussian kernel on the gap between exponential score profiles."""
    if sigma <= 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    if len(x_row) != len(y_row):
        raise ValueError("rows cover different attribute counts")
    d2 = 0.0
    for hx, hy in zip(x_row, y_row):
        d2 += (superior_gradus(hx, scale) - superior_gradus(hy, scale)) ** 2
    return math.exp(-d2 / (2.0 * sigma * sigma))


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each start ``s`` and length ``n``, concatenated."""
    if len(lengths) == 1:
        return np.arange(starts[0], starts[0] + lengths[0])
    ends = lengths.cumsum()
    return (starts + lengths - ends).repeat(lengths) + np.arange(ends[-1] if len(ends) else 0)


def squared_gaps(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Summed squared score gaps of the rows of ``left`` and ``right``, two
    (..., m) arrays that numpy broadcasts together, taken directly and
    summed column by column, as :func:`kernel_similarity` does (its sum
    starts at 0.0, and 0.0 plus the first square is that square)."""
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


def similarity_blocks(scores: np.ndarray, sigma: float) -> Iterator[tuple]:
    """The kernel similarity of every row to every row, as ``(first row,
    block)`` pairs over row blocks of about ``BLOCK_CELLS`` entries, so
    memory stays linear in the number of rows."""
    step = max(1, BLOCK_CELLS // max(1, len(scores)))
    for start in range(0, len(scores), step):
        yield start, kernel_rows(scores[start:start + step], scores, sigma)


def build_similarity_matrix(table: FusedDecisionTable, z: Iterable[str],
                            sigma: float) -> SimilarityMatrix:
    sub = table.restrict(table.alternatives, z)
    scores = superior_gradus_array(*sub.subscripts(), sub.scale)
    return SimilarityMatrix(ids=sub.alternatives,
                            values=kernel_rows(scores, scores, sigma), sigma=sigma)


def shared_granule_statistics(scores: np.ndarray, membership: np.ndarray,
                              cuts: Sequence[tuple], bounds: np.ndarray, uses: tuple) -> tuple:
    """Granule size and conditional probability of every row of several
    universes, each at the ``(sigma, kappa)`` cuts it uses, as ``(sizes,
    pr, first)``: use ``u`` holds its universe's k rows, in order, at
    ``first[u]:first[u] + k`` of ``sizes`` and ``pr``.

    The universes' rows of ``scores`` and ``membership`` run one universe
    after another: universe ``u`` is rows ``bounds[u]:bounds[u + 1]``.
    ``uses`` pairs universes with cuts, as two arrays: universe ids and
    indices into ``cuts``.

    A row's granule is every row of its own universe at least
    ``kappa``-similar to it, compared with no tolerance; its probability is
    the mean membership over the granule.  Only sizes are kept, never
    member sets.

    A cut at kappa 0 holds the whole universe, since the kernel never
    scores below 0: its sizes are k and its pr the mean membership, which
    equals the kernel's row sums bit for bit.  The other cuts of a
    one-column universe of at least ``SORTED_MIN_ROWS`` rows take the
    sorted path.  The rest share one blocked pass
    (:func:`_kernel_statistics`) with the arithmetic of
    :func:`kernel_granule_statistics`, so every path gives the same sizes.
    """
    for _, kappa in cuts:
        if not (0.0 <= kappa <= 1.0):
            raise ValueError(f"cut threshold {kappa} outside [0, 1]")
    length = (bounds[1:] - bounds[:-1]).tolist()  # each universe's size
    one_column = scores.shape[1] == 1
    whole: dict = {}  # universe size -> its kappa 0 uses, as (use, universe)
    on_sorted, kernel = [], []  # (use, universe, cut)
    universe, cut = (a.tolist() for a in uses)
    for use, (u, c) in enumerate(zip(universe, cut)):
        if cuts[c][1] == 0.0:
            whole.setdefault(length[u], []).append((use, u))
        elif one_column and length[u] >= SORTED_MIN_ROWS:
            on_sorted.append((use, u, c))
        else:
            kernel.append((use, u, c))
    first = [0] * len(universe)  # each use's first entry
    parts, end = [], 0  # (sizes, pr), concatenated
    for k, taken in whole.items():  # the whole universe: k rows and the mean membership
        rows = bounds[[u for _, u in taken], None] + np.arange(k)
        parts.append((np.full(k * len(taken), k), np.repeat(membership[rows].sum(axis=1) / k, k)))
        for i, (use, _) in enumerate(taken):
            first[use] = end + i * k
        end += k * len(taken)
    for use, u, c in on_sorted:
        rows = slice(bounds[u], bounds[u + 1])
        parts.append(sorted_granule_statistics(scores[rows, 0], membership[rows], *cuts[c]))
        first[use], end = end, end + length[u]
    if kernel:
        for use_first, block in _kernel_statistics(scores, membership, bounds, cuts, kernel):
            parts.append(block)
            for use, offset in use_first:
                first[use] = end + offset
            end += len(block[0])
    sizes, pr = zip(*parts)
    return np.concatenate(sizes), np.concatenate(pr), np.array(first, dtype=np.intp)


def _kernel_statistics(scores: np.ndarray, membership: np.ndarray, bounds: np.ndarray,
                       cuts: Sequence[tuple], uses: list) -> Iterator[tuple]:
    """Granule sizes and pr of ``uses``, ``(use, universe, cut)`` triples
    with ``cut`` an index into ``cuts``, by the blocked kernel.  Per block
    yields ``([(use, its first entry)], (sizes, pr))``.

    The cuts a universe uses, in sigma order, form one item, split where
    one row against its universe at all of them would not fit in
    ``BLOCK_CELLS`` (cut, pair) entries.  An item too large for one block
    is a block of its own, which takes its rows in steps; the others pack
    into blocks in order of universe size.  A block computes every cut any
    of its items uses for all of its rows, a (cut, row) array each.
    """
    per_universe: dict = {}
    for use, u, c in uses:
        per_universe.setdefault(u, []).append((cuts[c][0], c, use))
    items = []  # universe size, universe, its (sigma, cut, use) in sigma order
    for u, taken in per_universe.items():
        k = int(bounds[u + 1] - bounds[u])
        per = max(1, BLOCK_CELLS // k)  # cuts one row against its universe may take
        taken.sort()
        items += [(k, u, taken[i:i + per]) for i in range(0, len(taken), per)]
    items.sort(key=lambda item: item[0])
    blocks = []  # [items, their cut ids, their pairs]
    for item in items:
        k, _, taken = item
        ids = {c for _, c, _ in taken}
        if blocks and len(blocks[-1][1] | ids) * (blocks[-1][2] + k * k) <= BLOCK_CELLS:
            blocks[-1][0].append(item)
            blocks[-1][1] |= ids
            blocks[-1][2] += k * k
        else:
            blocks.append([[item], ids, k * k])
    for block, ids, _ in blocks:
        ids = sorted(ids, key=lambda c: cuts[c][0])  # a run of cuts per distinct sigma
        at = {c: i for i, c in enumerate(ids)}
        rows = sum(k for k, *_ in block)
        use_first, row = [], 0
        for k, _, taken in block:
            use_first += [(use, at[c] * rows + row) for _, c, use in taken]
            row += k
        counts, sums = _block_statistics(scores, membership, bounds, block,
                                         [cuts[c] for c in ids])
        yield use_first, (counts.ravel(), (sums / counts).ravel())


def _block_statistics(scores: np.ndarray, membership: np.ndarray, bounds: np.ndarray,
                      block: list, cuts: list) -> tuple:
    """Granule sizes and membership sums of every row of the universes of
    ``block``, one after another, against its own universe at each
    ``(sigma, kappa)`` of ``cuts``, a run of cuts per distinct sigma: two
    (cuts, rows) arrays."""
    sigmas = [sigma for sigma, _ in cuts]
    new = [True] + [b != a for a, b in zip(sigmas, sigmas[1:])]  # starts a distinct sigma
    arithmetic = (np.array([2.0 * s * s for s, fresh in zip(sigmas, new) if fresh]),
                  np.array(list(itertools.accumulate(new))) - 1,  # each cut's distinct sigma
                  np.array([kappa for _, kappa in cuts]))
    counts = np.empty((len(cuts), sum(item[0] for item in block)), dtype=np.intp)
    sums = np.empty(counts.shape)
    # row sums rather than a matrix product: BLAS may sum identical rows in
    # different orders, and duplicate rows must tie exactly
    if len(block) == 1:  # one universe: its rows in steps, against it as outer differences
        n, u, _ = block[0]
        rows = slice(bounds[u], bounds[u] + n)
        step = max(1, BLOCK_CELLS // (n * len(cuts)))
        for start in range(0, n, step):
            gaps = squared_gaps(scores[rows][start:start + step, None], scores[None, rows])
            member = _members(gaps, *arithmetic).reshape(len(cuts), -1, n)
            stop = start + member.shape[1]
            counts[:, start:stop] = member.sum(axis=-1)
            sums[:, start:stop] = np.where(member, membership[rows], 0.0).sum(axis=-1)
        return counts, sums
    # several universes in one step: each row against its own, pair by pair
    k = np.array([item[0] for item in block])
    first = bounds[[item[1] for item in block]]
    size = np.repeat(k, k)  # each row's universe size
    right = ranges(np.repeat(first, k), size)
    member = _members(squared_gaps(scores[np.repeat(ranges(first, k), size)], scores[right]),
                      *arithmetic)
    weight = membership[right]
    # numpy's pairwise sum depends on the row length, so each sum runs over
    # exactly its own universe's k entries: the rows of each universe size
    # (items come in size order) sum together, as one contiguous row each,
    # never padded
    lo = pair = 0
    for n, same in itertools.groupby(k.tolist()):
        hi = lo + n * len(list(same))
        e0, pair = pair, pair + (hi - lo) * n
        inside = member[:, e0:pair].reshape(len(cuts), hi - lo, n)
        counts[:, lo:hi] = inside.sum(axis=-1)
        sums[:, lo:hi] = np.where(inside, weight[e0:pair].reshape(-1, n), 0.0).sum(axis=-1)
        lo = hi
    return counts, sums


def _members(gaps: np.ndarray, denom: np.ndarray, of: np.ndarray,
             kappa: np.ndarray) -> np.ndarray:
    """Whether each pair of ``gaps``, the squared score gaps, is in each
    cut's granule, as a (cuts, pairs) array, with the arithmetic of
    :func:`kernel_rows`: the negated gaps divided by each distinct
    ``denom`` (2 sigma^2), exp, and for each cut the row of its sigma,
    ``of``, compared with its ``kappa``."""
    neg = gaps.reshape(1, -1)
    np.negative(neg, out=neg)
    with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
        sim = np.divide(neg, denom[:, None], out=neg if len(denom) == 1 else None)
    np.exp(sim, out=sim)
    if len(denom) < len(of):  # a sigma serves several kappas
        sim = sim[of]
    return sim >= kappa[:, None]


def kernel_granule_statistics(scores: np.ndarray, membership: np.ndarray,
                              sigma: float, kappa: float) -> tuple:
    """:func:`shared_granule_statistics` of one cut by the blocked kernel:
    every pair of rows is compared, in row blocks."""
    sizes = np.empty(len(scores), dtype=int)
    pr = np.empty(len(scores))
    for start, sim in similarity_blocks(scores, sigma):
        cut = sim >= kappa
        stop = start + len(cut)
        sizes[start:stop] = np.count_nonzero(cut, axis=1)
        # row sums rather than a matrix product: BLAS may sum identical
        # rows in different orders, and duplicate rows must tie exactly
        pr[start:stop] = np.where(cut, membership, 0.0).sum(axis=1)
    pr /= sizes
    return sizes, pr


def sorted_granule_statistics(values: np.ndarray, membership: np.ndarray,
                              sigma: float, kappa: float) -> tuple:
    """:func:`shared_granule_statistics` of one cut at ``kappa`` in (0, 1]
    for one score column, in O(n log n).

    In one dimension a granule is an interval of the sorted distinct
    scores (fixed-radius near neighbours by sorting).  Each interval is
    bracketed by ``searchsorted`` on a slightly widened radius, then each
    end moves inward while the kernel's own cut, with the arithmetic of
    :func:`kernel_rows`, fails; so sizes equal the kernel's.  Sums are
    differences of long-double prefix sums of the sorted memberships.
    Rows with equal scores share one interval, so they get identical
    probabilities.
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
    denom = 2.0 * sigma * sigma
    # widened past -ln(kappa): at kappa = 1, gaps with gap^2 / denom
    # below about 1e-16 also score exactly 1.0
    t = -math.log(kappa)
    reach = math.sqrt(denom) * math.sqrt(t * (1.0 + 1e-12) + 1e-14)
    lo = np.searchsorted(distinct, distinct - reach, side="left")
    hi = np.searchsorted(distinct, distinct + reach, side="right")
    with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
        for end, inward, offset in ((lo, 1, 0), (hi, -1, -1)):
            todo = np.arange(len(distinct))
            while todo.size:
                gap = distinct[todo] - distinct[end[todo] + offset]
                todo = todo[np.exp(-(gap * gap) / denom) < kappa]
                end[todo] += inward
    # float64 prefix differences would carry about n * 1e-16 absolute error
    cum = np.zeros(n + 1, dtype=np.longdouble)
    np.cumsum(membership[order], dtype=np.longdouble, out=cum[1:])
    first, last = starts[lo], starts[hi]
    sizes = last - first
    # the exact mean lies in [0, 1]; long-double rounding may step past 1
    pr = np.minimum((cum[last] - cum[first]).astype(float) / sizes, 1.0)
    return sizes[group], pr[group]


def cut_granules(sim: SimilarityMatrix, kappa: float) -> list:
    """Granule of each alternative: everyone at least ``kappa``-similar to it."""
    if not (0.0 <= kappa <= 1.0):
        raise ValueError(f"cut threshold {kappa} outside [0, 1]")
    granules = []
    for i, center in enumerate(sim.ids):
        members = frozenset(
            sim.ids[j] for j in range(len(sim.ids)) if sim.values[i, j] >= kappa)
        granules.append(NeighborhoodGranule(center=center, members=members, kappa=kappa))
    return granules


def concept_membership(table: FusedDecisionTable, z: Iterable[str],
                       weights: Mapping[str, float]) -> ConceptMembership:
    """Membership toward the concept as the exponential score of the
    weight-averaged term over the chosen attributes.

    Combining single-term cells with weighted averaging keeps the result
    a term; its score is then clipped into the unit interval.
    """
    sub = table.restrict(table.alternatives, z)
    missing = set(sub.attributes) - set(weights)
    if missing:
        raise KeyError(f"weights missing for attributes: {sorted(missing)}")
    wv = [weights[a] for a in sub.attributes]
    total = sum(wv)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"attribute weights over the subset sum to {total}, expected 1")
    degrees = {}
    for alt, row in zip(sub.alternatives, sub.means.tolist()):
        phi = sum(w * cell[0] for w, cell in zip(wv, row))
        varphi = sum(w * cell[1] for w, cell in zip(wv, row))
        score = superior_gradus_term(DHLT(phi, varphi), sub.scale)
        degrees[alt] = min(1.0, max(0.0, score))
    return ConceptMembership(degrees=degrees)


def membership_degrees(phi: np.ndarray, varphi: np.ndarray, weights: Sequence[float],
                       scale: DHLTScale) -> np.ndarray:
    """:func:`concept_membership` on (k, m) subscript arrays, with the
    attribute weights given in column order."""
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"attribute weights over the subset sum to {total}, expected 1")
    mean_phi = sum(w * phi[:, j] for j, w in enumerate(weights))
    mean_varphi = sum(w * varphi[:, j] for j, w in enumerate(weights))
    return np.clip(superior_gradus_array(mean_phi, mean_varphi, scale), 0.0, 1.0)


def conditional_probability(granule: NeighborhoodGranule,
                            membership: ConceptMembership) -> float:
    """Mean membership over the granule; the complementary state has
    probability one minus this."""
    values = [membership[m] for m in granule.members]
    return sum(values) / len(values)
