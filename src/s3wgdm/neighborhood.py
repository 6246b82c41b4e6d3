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

BLOCK_CELLS = 1 << 18  # similarity entries one row block of the kernel holds


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


def kernel_rows(block: np.ndarray, scores: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel similarity of each row of ``block`` (k, m) to each row of
    ``scores`` (n, m), as a (k, n) array.

    Squared score gaps are taken directly and summed column by column, as
    :func:`kernel_similarity` does, so identical rows score exactly 1.0.
    """
    if not sigma > 0:
        raise ValueError(f"kernel width must be positive, got {sigma}")
    d2 = np.zeros((len(block), len(scores)))
    gap = np.empty_like(d2)
    for j in range(scores.shape[1]):
        np.subtract.outer(block[:, j], scores[:, j], out=gap)
        gap *= gap
        d2 += gap
    np.negative(d2, out=d2)
    with np.errstate(over="ignore"):  # a gap far beyond a tiny sigma scores 0
        d2 /= 2.0 * sigma * sigma
    return np.exp(d2, out=d2)


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


def granule_statistics(scores: np.ndarray, membership: np.ndarray,
                       sigma: float, kappa: float) -> tuple:
    """Granule size and conditional probability of every row.

    A row's granule is every row at least ``kappa``-similar to it, compared
    with no tolerance; its probability is the mean membership over the
    granule.  Only sizes are kept, never member sets.
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError(f"cut threshold {kappa} outside [0, 1]")
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
