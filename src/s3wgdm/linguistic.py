"""Double hierarchy linguistic term algebra.

A term ``s_phi<o_varphi>`` carries two subscripts: ``phi`` on the primary
scale ``[-tau, tau]`` and ``varphi`` on the embedded secondary scale
``[-sigma_scale, sigma_scale]``.  Subscripts are real-valued so that
averaging operators stay closed.  A hesitant element is an ordered,
non-empty collection of such terms.

The decision method uses only the linguistic expected value (mean
subscripts), the mirror complement (negated subscripts) and the
exponential score (``superior_gradus`` and its array form).  The
unit-interval laws here, ``add`` and ``complement`` through the monotone
transform ``f`` and its inverse, plus ``euclid_distance``, are a small
reference algebra that the engine never calls.
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


class LengthMismatchError(ValueError):
    """Two hesitant elements have incompatible term counts."""


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

    def validate(self, scale: DHLTScale) -> "DHHFLE":
        for t in self.terms:
            scale.check(t.phi, t.varphi)
        return self


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
