"""Exact multiple-recurrence quantities on finite systems.

All values are exact rationals. The membership convention for a triple
intersection at time i counts atoms x with x in A, x in T^i A1 (that is,
T^-i x in A1) and x in T^2i A2; sums over i start at 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import perms
from .core import AtomSet, FinitePermutationSystem


@dataclass(frozen=True)
class TripleAverage:
    """Ergodic average of triple intersections up to horizon N."""

    n_horizon: int
    value: Fraction
    product: Fraction


def _check_sets(sys: FinitePermutationSystem, *sets: AtomSet) -> None:
    for s in sets:
        if s.n != sys.n:
            raise ValueError("atom set belongs to a different system")


def triple_intersection(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    i: int,
) -> Fraction:
    """Exact mu(A intersect T^i A1 intersect T^2i A2)."""
    _check_sets(sys, a, a1, a2)
    back = perms.power(sys.map, -i)
    y = back[a.indices()]
    count = np.count_nonzero(a1.mask()[y] & a2.mask()[back[y]])
    return Fraction(int(count), sys.n)


def _triple_counts(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    n_horizon: int,
) -> Iterator[int]:
    """n * mu(A intersect T^i A1 intersect T^2i A2) for i = 1..n_horizon,
    following T^-i x and T^-2i x for the atoms x of A only."""
    _check_sets(sys, a, a1, a2)
    back = perms.inverse(sys.map)
    in1, in2 = a1.mask(), a2.mask()
    y = z = a.indices()
    for _ in range(n_horizon):
        y = back[y]
        z = back[back[z]]
        yield int(np.count_nonzero(in1[y] & in2[z]))


def furstenberg_average(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    n_horizon: int,
) -> TripleAverage:
    """(1/N) * sum_{i=1..N} mu(A intersect T^i A1 intersect T^2i A2)."""
    if n_horizon < 1:
        raise ValueError("horizon must be at least 1")
    total = sum(_triple_counts(sys, a, a1, a2, n_horizon))
    value = Fraction(total, sys.n * n_horizon)
    product = a.measure * a1.measure * a2.measure
    return TripleAverage(n_horizon, value, product)


def roth_witness(
    sys: FinitePermutationSystem, a: AtomSet, i_max: int
) -> int | None:
    """Least i in [1, i_max] with mu(A intersect T^i A intersect T^2i A) > 0."""
    if a.measure == 0:
        raise ValueError("witness requires a set of positive measure")
    counts = _triple_counts(sys, a, a, a, i_max)
    return next((i for i, c in enumerate(counts, start=1) if c), None)
