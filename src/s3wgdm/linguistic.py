"""Double hierarchy linguistic term algebra.

A term carries two subscripts: ``phi`` on the primary scale
``[-tau, tau]`` and ``varphi`` on the embedded secondary scale
``[-sigma_scale, sigma_scale]``.  Subscripts are real-valued so that
averaging operators stay closed.  A hesitant element is an ordered,
non-empty collection of such terms; :mod:`s3wgdm.syntax` holds their text.
Every command reads cells as subscripts, so an element is built only on
request.

The decision method uses only the linguistic expected value (mean
subscripts), the mirror complement (negated subscripts) and the
exponential score (``superior_gradus`` and its array form).  The
unit-interval laws of the terms are the scalar reference in
:mod:`s3wgdm.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle, repeat
from typing import Callable, Iterable, Iterator

import numpy as np

TOL = 1e-9
_SLACK = 1e-12


class ScaleRangeError(ValueError):
    """A subscript falls outside the governing scale."""


@dataclass(frozen=True)
class DHLTScale:
    """Half-ranges of the two linguistic hierarchies."""

    tau: int
    sigma_scale: int

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.sigma_scale < 1:
            raise ValueError(f"sigma_scale must be >= 1, got {self.sigma_scale}")

    def check(self, phi: float, varphi: float) -> None:
        if not (-self.tau - _SLACK <= phi <= self.tau + _SLACK):
            raise ScaleRangeError(
                f"first-hierarchy subscript {phi} outside [{-self.tau}, {self.tau}]")
        if not (-self.sigma_scale - _SLACK <= varphi <= self.sigma_scale + _SLACK):
            raise ScaleRangeError(
                f"second-hierarchy subscript {varphi} outside "
                f"[{-self.sigma_scale}, {self.sigma_scale}]")

    def bounds(self) -> tuple:
        """The largest |phi| and |varphi| that :meth:`check` accepts."""
        return self.tau + _SLACK, self.sigma_scale + _SLACK


@dataclass(frozen=True)
class DHLT:
    """A single double hierarchy term, identified by its two subscripts."""

    phi: float
    varphi: float


class DHHFLE:
    """Hesitant set of double hierarchy terms (order preserved, L >= 1).

    Equality is multiset equality of subscripts within ``TOL``; the
    source order of terms is kept but does not affect comparisons.
    Elements are immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[DHLT]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a hesitant element needs at least one term")
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("DHHFLE is immutable")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[DHLT]:
        return iter(self.terms)

    def __repr__(self) -> str:
        inside = ", ".join(f"({t.phi}, {t.varphi})" for t in self.terms)
        return f"DHHFLE[{inside}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DHHFLE):
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        mine = sorted((t.phi, t.varphi) for t in self.terms)
        theirs = sorted((t.phi, t.varphi) for t in other.terms)
        return all(abs(a - c) <= TOL and abs(b - d) <= TOL
                   for (a, b), (c, d) in zip(mine, theirs))

    __hash__ = None  # tolerance-based equality is incompatible with hashing


def superior_gradus_term(t: DHLT, scale: DHLTScale) -> float:
    """Exponential score of one term; raw, may slightly leave [0, 1] at corners."""
    tau, vs = scale.tau, scale.sigma_scale
    alpha = t.phi / (2.0 * tau) + 0.5
    beta = t.varphi / (2.0 * vs * tau)
    return (math.exp(alpha) + beta - 1.0) / (math.e - 1.0)


def superior_gradus(h: DHHFLE, scale: DHLTScale) -> float:
    return sum(superior_gradus_term(t, scale) for t in h) / len(h)


def elementwise(fn: Callable, values: np.ndarray, *args: float | np.ndarray) -> np.ndarray:
    """``fn(value, *args)`` for every element, through the ``math`` module.
    An argument is a number or an array shaped like the last axes of
    ``values``, repeated along the others as numpy broadcasts it.

    numpy's vectorised transcendental functions may differ from ``math``
    in the last bit; going through ``math`` keeps every array result equal
    to the scalar code's.
    """
    flat = values.ravel().tolist()
    columns = []
    for a in args:
        a = np.asarray(a)
        if a.shape != values.shape[values.ndim - a.ndim:]:
            raise ValueError(f"argument shape {a.shape} does not end {values.shape}")
        columns.append(cycle(a.ravel().tolist()) if a.ndim else repeat(a.item()))
    return np.fromiter(map(fn, flat, *columns), float, len(flat)).reshape(values.shape)


def superior_gradus_array(phi: np.ndarray, varphi: np.ndarray,
                          scale: DHLTScale) -> np.ndarray:
    """Exponential scores of single terms given as two subscript arrays,
    equal element by element to :func:`superior_gradus_term`."""
    tau, vs = scale.tau, scale.sigma_scale
    alpha = phi / (2.0 * tau) + 0.5
    beta = varphi / (2.0 * vs * tau)
    return (elementwise(math.exp, alpha) + beta - 1.0) / (math.e - 1.0)
