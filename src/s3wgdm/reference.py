"""The paper's steps in scalar form, one alternative, cell or pair at a time.

No command calls these functions; the tests check the array path against
them.  The term algebra and :func:`make_table`, :func:`extract` and
:func:`restrict` check the tables and their fusion; the similarity, granule,
membership and probability steps check
:func:`neighborhood.shared_granule_statistics` and
:func:`neighborhood.membership_degrees`; the gains and utilities check
:func:`regret.comprehensive_utilities`; :func:`expected_perceived_utility`
and :func:`classify` check the expected utilities and regions of
:func:`engine.run_level`.  ``engine`` re-imports the oracles that
``bench/tracer.py`` looks up there, and calls none of them; this module
imports no live module that imports it (the region codes are ``regret``'s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linguistic import (
    _SLACK,
    DHHFLE,
    DHLT,
    TOL,
    DHLTScale,
    superior_gradus,
    superior_gradus_array,
    superior_gradus_term,
)
from .neighborhood import granule_means, kernel_rows, membership_parts, similarity_blocks
from .regret import BND, CELLS, NEG, POS, REGIONS
from .syntax import CodeBook
from .tables import WEIGHT_TOL, ExpertDecisionTable, FusedDecisionTable

# -- the term algebra -------------------------------------------------


class LengthMismatchError(ValueError):
    """Two hesitant elements have incompatible term counts."""


def single(phi: float, varphi: float = 0.0) -> DHHFLE:
    """Convenience constructor for a one-term element."""
    return DHHFLE([DHLT(float(phi), float(varphi))])


@dataclass(frozen=True)
class HFEValue:
    """Hesitant fuzzy element: membership degrees in the unit interval."""

    gammas: tuple

    def __post_init__(self) -> None:
        gs = tuple(float(g) for g in self.gammas)
        for g in gs:
            if not (-_SLACK <= g <= 1 + _SLACK):
                raise ValueError(f"membership degree {g} outside [0, 1]")
        object.__setattr__(self, "gammas", gs)


def f_scalar(phi: float, varphi: float, scale: DHLTScale) -> float:
    """Map one term to its degree in [0, 1].

    At extreme corners (for example a strongly negative secondary
    subscript on the bottom primary term) the affine image saturates at
    the interval bound, so the map is strictly increasing only where it
    is not saturated.
    """
    scale.check(phi, varphi)
    tau, vs = scale.tau, scale.sigma_scale
    g = (varphi + (tau + phi) * vs) / (2.0 * vs * tau)
    if g < 0.0:
        g = 0.0
    elif g > 1.0:
        g = 1.0
    return g


def f_inverse(gamma: float, scale: DHLTScale) -> DHLT:
    """Map a degree back to a canonical term.

    When ``2*tau*gamma - tau`` lands on an integer the representation
    with a zero secondary subscript is returned; otherwise the primary
    subscript is the floor and the secondary subscript is non-negative.
    """
    if not (-_SLACK <= gamma <= 1 + _SLACK):
        raise ValueError(f"degree {gamma} outside [0, 1]")
    gamma = min(1.0, max(0.0, gamma))
    tau, vs = scale.tau, scale.sigma_scale
    v = 2.0 * tau * gamma - tau
    nearest = round(v)
    if abs(v - nearest) <= TOL:
        return DHLT(float(nearest), 0.0)
    fl = math.floor(v)
    return DHLT(float(fl), vs * (v - fl))


def to_hfe(h: DHHFLE, scale: DHLTScale) -> HFEValue:
    return HFEValue(tuple(f_scalar(t.phi, t.varphi, scale) for t in h))


def from_hfe(value: HFEValue, scale: DHLTScale) -> DHHFLE:
    return DHHFLE([f_inverse(g, scale) for g in value.gammas])


def add(h1: DHHFLE, h2: DHHFLE, scale: DHLTScale) -> DHHFLE:
    """Probabilistic-sum addition over the cross product of term pairs."""
    g1 = to_hfe(h1, scale).gammas
    g2 = to_hfe(h2, scale).gammas
    out = [a + b - a * b for a in g1 for b in g2]
    return from_hfe(HFEValue(tuple(out)), scale)


def complement(h: DHHFLE, scale: DHLTScale) -> DHHFLE:
    gs = to_hfe(h, scale).gammas
    return from_hfe(HFEValue(tuple(1.0 - g for g in gs)), scale)


def mirror(h: DHHFLE) -> DHHFLE:
    """Complement by negating both subscripts.

    Gives exactly the same degrees as the unit-interval complement but
    keeps the term representation, so applying it twice restores the
    original element verbatim.
    """
    return DHHFLE([DHLT(-t.phi, -t.varphi) for t in h])


def linguistic_expected_value(h: DHHFLE) -> DHHFLE:
    """Collapse a hesitant element to the single term of mean subscripts."""
    n = len(h)
    phi = sum(t.phi for t in h) / n
    varphi = sum(t.varphi for t in h) / n
    return DHHFLE([DHLT(phi, varphi)])


def euclid_distance(h1: DHHFLE, h2: DHHFLE, scale: DHLTScale) -> float:
    """Root mean squared difference of elementwise degrees.

    Requires equal term counts; normalize with the expected value first
    when the counts differ.
    """
    if len(h1) != len(h2):
        raise LengthMismatchError(
            f"term counts differ: {len(h1)} vs {len(h2)}")
    g1 = to_hfe(h1, scale).gammas
    g2 = to_hfe(h2, scale).gammas
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(g1, g2)) / len(g1))


# -- tables -----------------------------------------------------------


def make_table(expert_id: str, expert_weight: float, alternatives, attributes,
               rows, scale: DHLTScale) -> ExpertDecisionTable:
    """A table of elements, coded in a book of its own, every term
    range-checked in row-major, term order."""
    alternatives, attributes = tuple(alternatives), tuple(attributes)
    rows = [list(row) for row in rows]
    if len(rows) != len(alternatives):
        raise ValueError("row count does not match the alternatives")
    if any(len(row) != len(attributes) for row in rows):
        raise ValueError("incomplete table: ragged row")
    if not all(isinstance(cell, DHHFLE) for row in rows for cell in row):
        raise TypeError("cells must be hesitant elements")
    book = CodeBook(scale)
    codes = [[book.pairs((t.phi, t.varphi) for t in cell) for cell in row] for row in rows]
    return ExpertDecisionTable(
        expert_id=expert_id, expert_weight=expert_weight, alternatives=alternatives,
        attributes=attributes, book=book,
        codes=np.array(codes, dtype=np.intp).reshape(len(alternatives), len(attributes)))


def _index_of(haystack: tuple, wanted: Iterable[str], what: str) -> list:
    wanted = set(wanted)
    unknown = wanted - set(haystack)
    if unknown:
        raise KeyError(f"unknown {what} ids: {sorted(unknown)}")
    return [i for i, x in enumerate(haystack) if x in wanted]


def _sub_table(table, universe: Iterable[str], z: Iterable[str], cells: str):
    """``table`` over the given alternatives and attributes, order
    preserved: its (n, m, ...) array field ``cells`` sliced to match."""
    rows = _index_of(table.alternatives, universe, "alternative")
    cols = _index_of(table.attributes, z, "attribute")
    return replace(table,
                   alternatives=tuple(table.alternatives[i] for i in rows),
                   attributes=tuple(table.attributes[j] for j in cols),
                   **{cells: getattr(table, cells)[np.ix_(rows, cols)]})


def extract(table: ExpertDecisionTable, universe: Iterable[str],
            z: Iterable[str]) -> ExpertDecisionTable:
    """Sub-table over the given alternatives and attributes, order preserved."""
    return _sub_table(table, universe, z, "codes")


def restrict(table: FusedDecisionTable, universe: Iterable[str],
             z: Iterable[str]) -> FusedDecisionTable:
    """:func:`extract` of a group table."""
    return _sub_table(table, universe, z, "means")


# -- neighborhoods ----------------------------------------------------


@dataclass(frozen=True)
class SimilarityMatrix:
    ids: tuple
    values: np.ndarray  # symmetric, unit diagonal, entries in [0, 1]
    sigma: float


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


def build_similarity_matrix(table: FusedDecisionTable, z: Iterable[str],
                            sigma: float) -> SimilarityMatrix:
    sub = restrict(table, table.alternatives, z)
    scores = superior_gradus_array(*sub.subscripts(), sub.scale)
    return SimilarityMatrix(ids=sub.alternatives,
                            values=kernel_rows(scores, scores, sigma), sigma=sigma)


def kernel_granule_statistics(scores: np.ndarray, membership: np.ndarray,
                              sigma: float, kappa: float) -> tuple:
    """:func:`neighborhood.shared_granule_statistics` of one cut by the
    blocked kernel: every pair of rows is compared, in row blocks."""
    parts = membership_parts(membership)
    sums = np.empty((len(scores), 4))
    for start, sim in similarity_blocks(scores, sigma):
        sums[start:start + len(sim)] = (sim >= kappa).astype(float) @ parts
    return granule_means(sums)


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
    sub = restrict(table, table.alternatives, z)
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


def conditional_probability(granule: NeighborhoodGranule,
                            membership: ConceptMembership) -> float:
    """Mean membership over the granule; the complementary state has
    probability one minus this."""
    values = [membership[m] for m in granule.members]
    return sum(values) / len(values)


# -- regret utilities -------------------------------------------------


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
    :func:`regret.comprehensive_utilities`.
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


# -- three-way classification -----------------------------------------


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
