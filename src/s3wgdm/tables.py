"""Expert decision tables, nested attribute subsets, and group fusion."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .linguistic import DHHFLE, DHLT, DHLTScale
from .syntax import CodeBook

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


@dataclass(frozen=True, eq=False)
class ExpertDecisionTable:
    """Complete alternatives x attributes matrix of one expert.

    ``codes`` is the (n, m) array of cell codes into ``book``, the code
    book of the document the table came from.  :attr:`means`, the (n, m, 2)
    array of each cell's mean ``phi`` and ``varphi`` subscripts (its
    linguistic expected value), is one gather from the book's means on
    each use and is not kept; fusion, its one reader, reads it once.
    :attr:`cells` and :meth:`cell` build elements on demand.
    """

    expert_id: str
    expert_weight: float
    alternatives: tuple
    attributes: tuple
    codes: np.ndarray = field(repr=False)
    book: CodeBook = field(repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.expert_weight <= 1.0):
            raise ValueError(f"expert weight {self.expert_weight} outside [0, 1]")
        if self.codes.shape != (len(self.alternatives), len(self.attributes)):
            raise ValueError(f"cell codes of shape {self.codes.shape} do not match "
                             f"{len(self.alternatives)} alternatives and "
                             f"{len(self.attributes)} attributes")

    @property
    def scale(self) -> DHLTScale:
        return self.book.scale

    @property
    def means(self) -> np.ndarray:
        return self.book.means()[self.codes]

    @cached_property
    def cells(self) -> tuple:
        """Row-major elements: ``cells[i][j]`` is ``alternatives[i]`` under
        ``attributes[j]``."""
        return tuple(tuple(map(self.book.element, row)) for row in self.codes.tolist())

    def cell(self, alternative: str, attribute: str) -> DHHFLE:
        i = self.alternatives.index(alternative)
        j = self.attributes.index(attribute)
        return self.book.element(int(self.codes[i, j]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpertDecisionTable):
            return NotImplemented
        return ((self.expert_id, self.expert_weight, self.alternatives, self.attributes,
                 self.scale, self.cells)
                == (other.expert_id, other.expert_weight, other.alternatives,
                    other.attributes, other.scale, other.cells))


def check_expert_weights(tables: Sequence[ExpertDecisionTable]) -> None:
    total = sum(t.expert_weight for t in tables)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"expert weights sum to {total}, expected 1")


@dataclass(frozen=True, eq=False)
class FusedDecisionTable:
    """Group table after fusion: one term per cell, held in ``means`` as the
    (n, m, 2) subscript array that :attr:`ExpertDecisionTable.means` uses."""

    alternatives: tuple
    attributes: tuple
    means: np.ndarray = field(repr=False)
    scale: DHLTScale
    expert_ids: tuple = ()
    expert_weights: tuple = ()

    def __post_init__(self) -> None:
        inside = (np.abs(self.means) <= self.scale.bounds()).reshape(-1, 2)
        if not inside.all():
            # the first bad cell in row-major order, checked as a term, raises the message
            self.scale.check(*self.means.reshape(-1, 2)[np.argmin(inside.all(axis=1))].tolist())

    def cell(self, alternative: str, attribute: str) -> DHHFLE:
        i = self.alternatives.index(alternative)
        j = self.attributes.index(attribute)
        return DHHFLE([DHLT(*self.means[i, j].tolist())])

    def subscripts(self) -> tuple:
        """The table as two (n, m) arrays: ``phi`` and ``varphi``."""
        return self.means[..., 0], self.means[..., 1]


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


def _check_same_shape(tables: Sequence[ExpertDecisionTable]) -> None:
    if not tables:
        raise ValueError("no expert tables to fuse")
    first = tables[0]
    for t in tables[1:]:
        if t.alternatives != first.alternatives or t.attributes != first.attributes:
            raise ValueError("expert tables disagree on alternatives or attributes")
        if t.scale != first.scale:
            raise ValueError("expert tables disagree on the linguistic scale")


def fuse_dhhflmwa(tables: Sequence[ExpertDecisionTable]) -> FusedDecisionTable:
    """DHHFLMWA, the matrix weighted average: the expert-weighted sum of
    the tables' mean subscripts (each cell's expected value), in expert
    order.  Fusion is per cell, so restricting the result equals fusing
    restricted tables.

    Expert weights may sum to up to ``1 + WEIGHT_TOL``, which can carry a
    cell at the end of the scale just past it; the sum is clipped back
    into the scale, so every command reads the same in-scale subscripts.
    """
    _check_same_shape(tables)
    check_expert_weights(tables)
    first = tables[0]
    total = np.zeros(first.codes.shape + (2,))
    for t in tables:
        total += t.expert_weight * t.means
    limit = np.array([first.scale.tau, first.scale.sigma_scale], dtype=float)
    np.minimum(np.maximum(total, -limit, out=total), limit, out=total)
    return FusedDecisionTable(
        alternatives=first.alternatives, attributes=first.attributes, means=total,
        scale=first.scale, expert_ids=tuple(t.expert_id for t in tables),
        expert_weights=tuple(t.expert_weight for t in tables))


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
    misaligned = {a.id for a in attrs if not a.align_with_concept}
    # a subscript times -1.0 is exactly its negation, times 1.0 itself
    sign = np.array([-1.0 if a in misaligned else 1.0 for a in table.attributes])
    return FusedDecisionTable(
        alternatives=table.alternatives, attributes=table.attributes,
        means=table.means * sign[:, None], scale=table.scale,
        expert_ids=table.expert_ids, expert_weights=table.expert_weights)
