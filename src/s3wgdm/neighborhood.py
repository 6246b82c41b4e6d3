"""Kernel similarity, cut granules, concept membership, conditional probability."""

from __future__ import annotations

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


def squared_gaps(block: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Summed squared score gaps of each row of ``block`` (k, m) to each
    row of ``scores`` (n, m), as a (k, n) array, taken directly and summed
    column by column, as :func:`kernel_similarity` does (its sum starts at
    0.0, and 0.0 plus the first square is that square)."""
    if not scores.shape[1]:  # no attributes: no gap
        return np.zeros((len(block), len(scores)))
    d2 = np.subtract.outer(block[:, 0], scores[:, 0])
    d2 *= d2
    gap = np.empty_like(d2)
    for j in range(1, scores.shape[1]):
        np.subtract.outer(block[:, j], scores[:, j], out=gap)
        gap *= gap
        d2 += gap
    return d2


def kernel_rows(block: np.ndarray, scores: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel similarity of each row of ``block`` (k, m) to each row of
    ``scores`` (n, m), as a (k, n) array; identical rows score exactly 1.0."""
    if not sigma > 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    sim = squared_gaps(block, scores)
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
                              cuts: Sequence[tuple]) -> tuple:
    """Granule size and conditional probability of every row of one
    universe at each ``(sigma, kappa)`` of ``cuts``, as ``(sizes, pr)``
    with one row per cut, in ``cuts`` order.

    A row's granule is every row at least ``kappa``-similar to it, compared
    with no tolerance; its probability is the mean membership over the
    granule.  Only sizes are kept, never member sets.

    A cut at kappa 0 holds the whole universe, since the kernel never
    scores below 0: its sizes are k and its pr the mean membership, which
    equals the kernel's row sums bit for bit.  The other cuts of one score
    column of at least ``SORTED_MIN_ROWS`` rows take the sorted path.  The
    rest share one blocked pass over the universe: each row block's squared
    score gaps are summed once, turned into similarities for every distinct
    sigma as one array, and cut at every kappa in one comparison, with the
    arithmetic of :func:`kernel_granule_statistics`, so every path gives the
    same sizes.  Blocks split the rows, and the cuts where one row against
    every cut would not fit, so each array holds at most ``BLOCK_CELLS``
    entries (one row against the universe at least).
    """
    for _, kappa in cuts:
        if not (0.0 <= kappa <= 1.0):
            raise ValueError(f"cut threshold {kappa} outside [0, 1]")
    k = len(scores)
    sigma, kappa = np.array(cuts, dtype=float).reshape(-1, 2).T
    sizes = np.full((len(cuts), k), k)
    pr = np.empty((len(cuts), k))
    whole = kappa == 0.0
    if whole.any():
        pr[whole] = membership.sum() / k
    if scores.shape[1] == 1 and k >= SORTED_MIN_ROWS:
        for c in np.flatnonzero(~whole).tolist():
            sizes[c], pr[c] = sorted_granule_statistics(scores[:, 0], membership,
                                                        sigma[c], kappa[c])
        return sizes, pr
    # the kernel cuts in sigma order: a block of them needs a run of the sigmas
    kernel = np.flatnonzero(~whole)
    kernel = kernel[np.argsort(sigma[kernel], kind="stable")]
    ordered = sigma[kernel]
    new = np.ones(len(kernel), dtype=bool)  # new[c]: kernel cut c starts a distinct sigma
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    of = np.cumsum(new) - 1  # each kernel cut's distinct sigma
    denom = 2.0 * ordered[new] * ordered[new]
    step = max(1, BLOCK_CELLS // max(1, k * len(kernel)))  # rows per block
    per = max(1, BLOCK_CELLS // max(1, k * step))  # cuts per block
    for start in range(0, k if len(kernel) else 0, step):
        # a block's rows run as one flat axis, so each sigma's and each
        # kappa's operation is one contiguous loop
        neg = squared_gaps(scores[start:start + step], scores).reshape(1, -1)
        np.negative(neg, out=neg)
        stop = start + neg.size // k
        for first in range(0, len(kernel), per):
            cut, s = kernel[first:first + per], of[first:first + per]
            lo, hi = s[0], s[-1] + 1
            last = first + per >= len(kernel)  # the last cuts of the block may overwrite the gaps
            with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
                sim = np.divide(neg, denom[lo:hi, None],
                                out=neg if last and hi - lo == 1 else None)
            np.exp(sim, out=sim)
            if hi - lo < len(cut):  # a sigma serves several kappas
                sim = sim[s - lo]
            member = (sim >= kappa[cut, None]).reshape(len(cut), -1, k)
            sizes[cut, start:stop] = np.count_nonzero(member, axis=-1)
            # row sums rather than a matrix product: BLAS may sum identical
            # rows in different orders, and duplicate rows must tie exactly
            pr[cut, start:stop] = np.where(member, membership, 0.0).sum(axis=-1)
    pr[kernel] /= sizes[kernel]
    return sizes, pr


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
    """:func:`shared_granule_statistics` of one cut for one score column,
    in O(n log n).

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
    if kappa == 0.0:  # exp underflows to 0.0 >= 0: every granule is the universe
        lo = np.zeros(len(distinct), dtype=np.intp)
        hi = np.full(len(distinct), len(distinct))
    else:
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
