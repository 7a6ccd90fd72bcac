"""Exact multiple-recurrence quantities on finite systems.

All values are exact rationals. The membership convention for a triple
intersection at time i counts atoms x with x in A, x in T^i A1 (that is,
T^-i x in A1) and x in T^2i A2; sums over i start at 1.

Every quantity comes from one counting engine, `_triple_counts`, which
yields n * mu(A intersect T^i A1 intersect T^2i A2) for each time of a range.
It runs along the map's cycles (`FinitePermutationSystem.cycles`): on a
cycle of length m, T^-i moves the atom at position p to position p - i
(mod m). The cycles of each length m lie side by side in 2m-bit blocks of
one int per set, bit p of a block set when the atom at position p is in
the set. A's blocks hold their m bits, then m zeros; A1's and A2's hold
theirs twice, so a right shift by m - k puts rotl(bits, k) in each block's
low half, and A's zeros mask off the rest. The count at time i is the
popcount of A & rotl(A1, i) & rotl(A2, 2i), summed over the distinct
lengths: about 2n/64 machine words per time, whatever the set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

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


def _blocks(in_set: np.ndarray, atoms: np.ndarray, m: int) -> int:
    """The set on the cycles of length m listed in `atoms`, as an int: bit
    2mc + p is set when the atom at position p of the c-th cycle is in it."""
    rows = in_set[atoms].reshape(-1, m)
    if len(rows) > 1:  # the last block's zeros are the int's own
        rows = np.hstack([rows, np.zeros_like(rows)])
    return int.from_bytes(np.packbits(rows, bitorder="little").tobytes(), "little")


def _group_counts(m: int, b: int, b1: int, b2: int, times: range) -> Iterator[int]:
    """The counts on the cycles of length m, from their blocks b, b1, b2."""
    for i in times:
        yield (b & (b1 >> (m - i % m)) & (b2 >> (m - 2 * i % m))).bit_count()


def _triple_counts(
    sys: FinitePermutationSystem,
    a: AtomSet,
    a1: AtomSet,
    a2: AtomSet,
    times: range,
) -> Iterator[int]:
    """n * mu(A intersect T^i A1 intersect T^2i A2) for each i in `times`,
    lazily, on bit strings along the cycles."""
    _check_sets(sys, a, a1, a2)
    order, lengths = sys.cycles()
    ms, count = lengths.tolist(), [1]
    if len(ms) > 1:  # regroup: the cycles of each length together
        ms, count = (u.tolist() for u in np.unique(lengths, return_counts=True))
        order = order[np.argsort(np.repeat(lengths, lengths), kind="stable")]
    masks = [s.mask() for s in (a, a1, a2)]
    streams, lo = [], 0
    for m, k in zip(ms, count):
        b, b1, b2 = (_blocks(mask, order[lo:lo + m * k], m) for mask in masks)
        streams.append(_group_counts(m, b, b1 | b1 << m, b2 | b2 << m, times))
        lo += m * k
    return streams[0] if len(streams) == 1 else map(sum, zip(*streams))


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
