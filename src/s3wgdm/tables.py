"""Expert decision tables, nested attribute subsets, and group fusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .linguistic import DHHFLE, DHLT, DHLTScale, mirror

WEIGHT_TOL = 1e-6
_TIE_TOL = 1e-9

KINDS = ("benefit", "cost")


@dataclass(frozen=True)
class AttributeSpec:
    """One evaluation attribute.

    ``align_with_concept`` records whether a larger rating points toward
    the target concept; misaligned attributes get complemented after
    fusion.
    """

    id: str
    weight: float
    kind: str = "benefit"
    align_with_concept: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"attribute kind must be one of {KINDS}, got {self.kind!r}")
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError(f"attribute weight {self.weight} outside [0, 1]")


def check_attribute_weights(attrs: Sequence[AttributeSpec]) -> None:
    total = sum(a.weight for a in attrs)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"attribute weights sum to {total}, expected 1")


@dataclass(frozen=True)
class ExpertDecisionTable:
    """Complete alternatives x attributes matrix of one expert.

    ``means`` is computed while the cells are validated: the (n, m, 2)
    array of each cell's mean ``phi`` and ``varphi`` subscripts, its
    linguistic expected value.  Fusion reads only this array.  Both come
    from each element's :attr:`~DHHFLE.summary`, so a cell costs one read
    and an element shared by many cells is summed once.
    """

    expert_id: str
    expert_weight: float
    alternatives: tuple
    attributes: tuple
    cells: tuple  # row-major: cells[i][j] is alternatives[i] under attributes[j]
    scale: DHLTScale
    means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.expert_weight <= 1.0):
            raise ValueError(f"expert weight {self.expert_weight} outside [0, 1]")
        if len(self.cells) != len(self.alternatives):
            raise ValueError("row count does not match the alternatives")
        m = len(self.attributes)
        if any(len(row) != m for row in self.cells):
            raise ValueError("incomplete table: ragged row")
        cells = [cell for row in self.cells for cell in row]
        if not all(isinstance(cell, DHHFLE) for cell in cells):
            raise TypeError("cells must be hesitant elements")
        summary = np.fromiter(chain.from_iterable([cell.summary for cell in cells]),
                              float, 4 * len(cells)).reshape(-1, 4)
        inside = (summary[:, 2:] <= self.scale.bounds()).all(axis=1)
        if not inside.all():
            # the first bad cell, checked term by term, raises the message
            cells[int(np.argmin(inside))].validate(self.scale)
        shape = (len(self.alternatives), m, 2)
        object.__setattr__(self, "means", np.ascontiguousarray(summary[:, :2]).reshape(shape))

    def cell(self, alternative: str, attribute: str) -> DHHFLE:
        i = self.alternatives.index(alternative)
        j = self.attributes.index(attribute)
        return self.cells[i][j]


def make_table(expert_id: str, expert_weight: float, alternatives, attributes,
               rows, scale: DHLTScale) -> ExpertDecisionTable:
    return ExpertDecisionTable(
        expert_id=expert_id,
        expert_weight=expert_weight,
        alternatives=tuple(alternatives),
        attributes=tuple(attributes),
        cells=tuple(tuple(row) for row in rows),
        scale=scale,
    )


def check_expert_weights(tables: Sequence[ExpertDecisionTable]) -> None:
    total = sum(t.expert_weight for t in tables)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"expert weights sum to {total}, expected 1")


@dataclass(frozen=True)
class FusedDecisionTable:
    """Group table after fusion; every cell holds a single term."""

    alternatives: tuple
    attributes: tuple
    cells: tuple
    scale: DHLTScale
    expert_ids: tuple = ()
    expert_weights: tuple = ()

    def __post_init__(self) -> None:
        for row in self.cells:
            for cell in row:
                if len(cell) != 1:
                    raise ValueError("fused cells must be single terms")
                cell.validate(self.scale)

    def cell(self, alternative: str, attribute: str) -> DHHFLE:
        i = self.alternatives.index(alternative)
        j = self.attributes.index(attribute)
        return self.cells[i][j]

    def term(self, alternative: str, attribute: str) -> DHLT:
        return self.cell(alternative, attribute).terms[0]

    def subscripts(self) -> tuple:
        """The table as two (n, m) arrays: ``phi`` and ``varphi``."""
        shape = (len(self.alternatives), len(self.attributes))
        terms = [cell.terms[0] for row in self.cells for cell in row]
        return (np.array([t.phi for t in terms], dtype=float).reshape(shape),
                np.array([t.varphi for t in terms], dtype=float).reshape(shape))

    def restrict(self, universe: Iterable[str], z: Iterable[str]) -> "FusedDecisionTable":
        rows = _index_of(self.alternatives, universe, "alternative")
        cols = _index_of(self.attributes, z, "attribute")
        return FusedDecisionTable(
            alternatives=tuple(self.alternatives[i] for i in rows),
            attributes=tuple(self.attributes[j] for j in cols),
            cells=tuple(tuple(self.cells[i][j] for j in cols) for i in rows),
            scale=self.scale,
            expert_ids=self.expert_ids,
            expert_weights=self.expert_weights,
        )


@dataclass(frozen=True)
class NestedSubsets:
    """Growing chain of attribute-id sets, coarse to fine."""

    levels: tuple  # tuple of frozensets

    def __post_init__(self) -> None:
        previous: frozenset = frozenset()
        for level in self.levels:
            if not previous < level:
                raise ValueError("attribute subsets must grow strictly")
            previous = level

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> frozenset:
        return self.levels[i]


def build_nested_subsets(attrs: Sequence[AttributeSpec]) -> NestedSubsets:
    """Chain the attributes by descending weight; equal weights enter together."""
    if not attrs:
        raise ValueError("no attributes given")
    ordered = sorted(attrs, key=lambda a: (-a.weight, a.id))
    levels = []
    current: set = set()
    i = 0
    while i < len(ordered):
        w = ordered[i].weight
        while i < len(ordered) and abs(ordered[i].weight - w) <= _TIE_TOL:
            current.add(ordered[i].id)
            i += 1
        levels.append(frozenset(current))
    return NestedSubsets(tuple(levels))


def _index_of(haystack: tuple, wanted: Iterable[str], what: str) -> list:
    wanted = set(wanted)
    unknown = wanted - set(haystack)
    if unknown:
        raise KeyError(f"unknown {what} ids: {sorted(unknown)}")
    return [i for i, x in enumerate(haystack) if x in wanted]


def extract(table: ExpertDecisionTable, universe: Iterable[str],
            z: Iterable[str]) -> ExpertDecisionTable:
    """Sub-table over the given alternatives and attributes, order preserved."""
    rows = _index_of(table.alternatives, universe, "alternative")
    cols = _index_of(table.attributes, z, "attribute")
    return ExpertDecisionTable(
        expert_id=table.expert_id,
        expert_weight=table.expert_weight,
        alternatives=tuple(table.alternatives[i] for i in rows),
        attributes=tuple(table.attributes[j] for j in cols),
        cells=tuple(tuple(table.cells[i][j] for j in cols) for i in rows),
        scale=table.scale,
    )


def _check_same_shape(tables: Sequence[ExpertDecisionTable]) -> None:
    if not tables:
        raise ValueError("no expert tables to fuse")
    first = tables[0]
    for t in tables[1:]:
        if t.alternatives != first.alternatives or t.attributes != first.attributes:
            raise ValueError("expert tables disagree on alternatives or attributes")
        if t.scale != first.scale:
            raise ValueError("expert tables disagree on the linguistic scale")


def _weighted_means(tables: Sequence[ExpertDecisionTable]) -> np.ndarray:
    """DHHFLMWA: the expert-weighted sum of the tables' mean subscripts,
    in expert order, as one (n, m, 2) array.

    Expert weights may sum to up to ``1 + WEIGHT_TOL``, which can carry a
    cell at the end of the scale just past it; the sum is clipped back
    into the scale, so every command reads the same in-scale subscripts.
    """
    _check_same_shape(tables)
    check_expert_weights(tables)
    total = np.zeros(tables[0].means.shape)
    for t in tables:
        total += t.expert_weight * t.means
    scale = tables[0].scale
    np.clip(total[..., 0], -scale.tau, scale.tau, out=total[..., 0])
    np.clip(total[..., 1], -scale.sigma_scale, scale.sigma_scale, out=total[..., 1])
    return total


def fuse_dhhflmwa(tables: Sequence[ExpertDecisionTable]) -> FusedDecisionTable:
    """Matrix weighted average: expected value per expert, then the
    expert-weighted mean of both subscripts (closed form)."""
    total = _weighted_means(tables)
    first = tables[0]
    return FusedDecisionTable(
        alternatives=first.alternatives,
        attributes=first.attributes,
        cells=tuple(tuple(DHHFLE([DHLT(phi, varphi)]) for phi, varphi in row)
                    for row in total.tolist()),
        scale=first.scale,
        expert_ids=tuple(t.expert_id for t in tables),
        expert_weights=tuple(t.expert_weight for t in tables),
    )


def fused_subscripts(tables: Sequence[ExpertDecisionTable],
                     attrs: Sequence[AttributeSpec]) -> tuple:
    """The oriented group table as two (n, m) arrays, ``phi`` and ``varphi``.

    The subscripts of :func:`fuse_dhhflmwa` followed by
    :func:`orient_to_concept`: both subscripts negated on the columns
    that point away from the concept.  Fusion is per cell, so restricting
    rows and columns afterwards equals fusing restricted tables.
    """
    total = _weighted_means(tables)
    by_id = {a.id: a for a in attrs}
    flip = [j for j, a in enumerate(tables[0].attributes)
            if a in by_id and not by_id[a].align_with_concept]
    total[:, flip] = -total[:, flip]
    return total[..., 0], total[..., 1]


def renormalize_weights(attrs: Sequence[AttributeSpec], z: Iterable[str]) -> dict:
    """Weights of the chosen attributes rescaled to sum to one."""
    z = set(z)
    chosen = [a for a in attrs if a.id in z]
    if not chosen:
        raise ValueError("empty attribute subset")
    missing = z - {a.id for a in chosen}
    if missing:
        raise KeyError(f"unknown attribute ids: {sorted(missing)}")
    total = sum(a.weight for a in chosen)
    if total <= 0:
        raise ValueError("attribute subset has zero total weight")
    return {a.id: a.weight / total for a in chosen}


def orient_to_concept(table: FusedDecisionTable,
                      attrs: Sequence[AttributeSpec]) -> FusedDecisionTable:
    """Complement the columns whose ratings point away from the concept.

    The complement negates both subscripts, which flips the degree to
    ``1 - gamma`` while keeping the representation, so applying the
    orientation twice restores the table exactly.
    """
    by_id = {a.id: a for a in attrs}
    rows = []
    for i in range(len(table.alternatives)):
        row = []
        for j, attr_id in enumerate(table.attributes):
            cell = table.cells[i][j]
            spec = by_id.get(attr_id)
            if spec is not None and not spec.align_with_concept:
                cell = mirror(cell)
            row.append(cell)
        rows.append(tuple(row))
    return FusedDecisionTable(
        alternatives=table.alternatives,
        attributes=table.attributes,
        cells=tuple(rows),
        scale=table.scale,
        expert_ids=table.expert_ids,
        expert_weights=table.expert_weights,
    )
