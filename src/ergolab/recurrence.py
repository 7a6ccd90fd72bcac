"""Exact multiple-recurrence quantities on finite systems.

All values are exact rationals. The membership convention for a triple
intersection at time i counts atoms x with x in A, x in T^i A1 (that is,
T^-i x in A1) and x in T^2i A2; sums over i start at 1.

Every quantity comes from one counting engine, `_triple_counts`, which
yields n * mu(A intersect T^i A1 intersect T^2i A2) for each time of a range.
On a single n-cycle each set is a bit string over walk positions: bit p is
set when the atom at walk position p is in the set. T^-i moves position p
to p - i (mod n), so the count at time i is the popcount of
A & rotl(A1, i) & rotl(A2, 2i). That costs about n/64 machine words per
time, whatever the sizes of the sets. Any other map follows T^-i x and
T^-2i x for the atoms x of A by numpy gathers, about |A| element operations
per time. So the gathers would win on a cycle only for sets sparser than
about 2 % of the atoms at n = 10^5; they run only on maps that are not a
single cycle.
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


def _horizon(n_horizon: int) -> range:
    """The times 1..n_horizon; ValueError for a horizon below 1."""
    if n_horizon < 1:
        raise ValueError("horizon must be at least 1")
    return range(1, n_horizon + 1)


def _walk_bits(order: np.ndarray, s: AtomSet) -> int:
    """The set as an int whose bit p is set when atom order[p] is in it."""
    packed = np.packbits(s.mask()[order], bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _triple_counts(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    times: range,
) -> Iterator[int]:
    """n * mu(A intersect T^i A1 intersect T^2i A2) for each i in `times`,
    lazily: on bit strings along the walk for a single cycle, by following
    the atoms of A otherwise."""
    _check_sets(sys, a, a1, a2)
    try:
        order = sys.walk()
    except ValueError:
        return _gather_counts(sys, a, a1, a2, times)
    return _bit_counts(order, a, a1, a2, times)


def _bit_counts(
    order: np.ndarray, a: AtomSet, a1: AtomSet, a2: AtomSet, times: range
) -> Iterator[int]:
    """The counts of `_triple_counts` on the single cycle walking `order`."""
    n = order.size
    b = _walk_bits(order, a)
    # two copies of each string side by side: a right shift by n - k then
    # holds rotl(s, k) in its low n bits, and b masks off the rest
    b1 = _walk_bits(order, a1)
    b1 |= b1 << n
    b2 = _walk_bits(order, a2)
    b2 |= b2 << n
    for i in times:
        yield (b & (b1 >> (n - i % n)) & (b2 >> (n - 2 * i % n))).bit_count()


def _gather_counts(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    times: range,
) -> Iterator[int]:
    """The counts of `_triple_counts` on any map: T^-i x and T^-2i x for the
    atoms x of A, advanced by times.step per time."""
    back = perms.power(sys.map, -times.step)
    before = perms.power(sys.map, times.step - times.start)
    in1, in2 = a1.mask(), a2.mask()
    y = before[a.indices()]
    z = before[y]
    for _ in times:
        y = back[y]
        z = back[back[z]]
        yield int(np.count_nonzero(in1[y] & in2[z]))


def triple_intersection(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    i: int,
) -> Fraction:
    """Exact mu(A intersect T^i A1 intersect T^2i A2), for any integer i."""
    (count,) = _triple_counts(sys, a, a1, a2, range(i, i + 1))
    return Fraction(count, sys.n)


def triple_profile(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    n_horizon: int,
) -> list[Fraction]:
    """mu(A intersect T^i A1 intersect T^2i A2) for i = 1..n_horizon."""
    counts = _triple_counts(sys, a, a1, a2, _horizon(n_horizon))
    return [Fraction(c, sys.n) for c in counts]


def furstenberg_average(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    n_horizon: int,
) -> TripleAverage:
    """(1/N) * sum_{i=1..N} mu(A intersect T^i A1 intersect T^2i A2)."""
    total = sum(_triple_counts(sys, a, a1, a2, _horizon(n_horizon)))
    value = Fraction(total, sys.n * n_horizon)
    product = a.measure * a1.measure * a2.measure
    return TripleAverage(n_horizon, value, product)


def roth_witness(
    sys: FinitePermutationSystem, a: AtomSet, i_max: int
) -> int | None:
    """Least i in [1, i_max] with mu(A intersect T^i A intersect T^2i A) > 0."""
    times = _horizon(i_max)
    if a.measure == 0:
        raise ValueError("witness requires a set of positive measure")
    counts = _triple_counts(sys, a, a, a, times)
    return next((i for i, c in zip(times, counts) if c), None)
