"""Finite measure-preserving systems and tower extraction.

The finite model of an invertible measure-preserving transformation is a
bijection of n equal-mass atoms (each of mass 1/n). Aperiodicity and
ergodicity are modelled by restricting tower constructions to single
n-cycles; all measures are exact rationals.

The bijection has one representation: a read-only int64 array with
map[i] the image of atom i, composed in function order (see `perms`).
Atom sets stay frozensets of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import perms
from .errors import Infeasible


@dataclass(frozen=True, eq=False)
class FinitePermutationSystem:
    """n atoms of mass 1/n permuted by a bijection `map`.

    `map` is a read-only int64 array (see `perms`); any sequence of atom
    indices is accepted and converted once. Equality is identity.
    """

    map: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "map", perms.as_permutation(self.map))

    @property
    def n(self) -> int:
        return self.map.size

    def walk(self) -> np.ndarray:
        """Atoms in walk order from atom 0; ValueError unless `map` is a
        single n-cycle."""
        order = perms.cycle_order_from(self.map, 0)
        if order.size != self.n:
            raise ValueError("system must be a single n-cycle")
        return order

    def image(self, s: "AtomSet") -> "AtomSet":
        return AtomSet(frozenset(self.map[s.indices()].tolist()), self.n)

    def subset(self, members: Iterable[int]) -> "AtomSet":
        return AtomSet(frozenset(members), self.n)

    @staticmethod
    def cycle(n: int) -> "FinitePermutationSystem":
        """The standard n-cycle i -> i+1 mod n."""
        if n < 1:
            raise ValueError("n must be positive")
        return FinitePermutationSystem(np.roll(np.arange(n), -1))

    @staticmethod
    def random_cycle(n: int, seed: int) -> "FinitePermutationSystem":
        order = np.random.default_rng(seed).permutation(n)
        p = np.empty(n, dtype=np.int64)
        p[order] = np.roll(order, -1)
        return FinitePermutationSystem(p)


@dataclass(frozen=True)
class AtomSet:
    """A measurable set: a subset of the n atoms. Measure is never stored."""

    members: frozenset[int]
    n: int

    def __post_init__(self):
        if any(not 0 <= i < self.n for i in self.members):
            raise ValueError("atom index out of range")

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.n)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __len__(self) -> int:
        return len(self.members)

    def indices(self) -> np.ndarray:
        """The members as an int64 array, in no particular order."""
        return np.fromiter(self.members, dtype=np.int64, count=len(self.members))

    def mask(self) -> np.ndarray:
        """Boolean membership array over the n atoms."""
        m = np.zeros(self.n, dtype=bool)
        m[self.indices()] = True
        return m


@dataclass(frozen=True)
class Tower:
    """Levels base, T base, ..., T^(h-1) base plus a residual set (the roof)."""

    base: AtomSet
    height: int
    residual: AtomSet

    def levels(self, sys: FinitePermutationSystem) -> list[AtomSet]:
        out = [self.base]
        for _ in range(self.height - 1):
            out.append(sys.image(out[-1]))
        return out


def validate_tower(sys: FinitePermutationSystem, tower: Tower) -> bool:
    """Levels and residual are pairwise disjoint and cover all atoms."""
    cover = np.zeros(sys.n, dtype=np.int64)
    level = tower.base.indices()
    for _ in range(tower.height):
        cover[level] += 1  # a level is a set, so its indices are distinct
        level = sys.map[level]
    cover[tower.residual.indices()] += 1
    return bool((cover == 1).all())


def rokhlin_tower(sys: FinitePermutationSystem, h: int) -> Tower:
    """Height-h tower on a single n-cycle with residual of measure (n mod h)/n.

    The cycle is walked from atom 0; the base sits at walk positions
    0, h, 2h, ... and the residual is the trailing n mod h positions.
    When n mod h <= 1 the residual additionally maps into the base under T.
    """
    order = sys.walk()
    n = sys.n
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= h <= n, got h={h}, n={n}")
    top = n // h * h
    base = frozenset(order[:top:h].tolist())
    residual = frozenset(order[top:].tolist())
    return Tower(AtomSet(base, n), h, AtomSet(residual, n))


def _arc_residual_search(y_pos: list[int], n: int, h: int) -> list[int] | None:
    """Lexicographically first position-subset of y_pos cutting the cycle
    into arcs of length divisible by h, or None if no subset works.

    Consecutive chosen positions (cyclically) must leave gaps divisible by h,
    so each successor position is congruent to predecessor + 1 mod h. The
    depth-first search keeps its own stack: a chain can hold every position.
    """
    if n % h == 0:
        return []  # empty residual: the whole cycle splits into columns
    k = len(y_pos)
    dead: set[tuple[int, int]] = set()  # (closing residue, node) with no chain

    def chain_from(first: int, target: int) -> list[int] | None:
        if y_pos[first] % h == target:
            return [first]  # closing as early as possible is lexicographically first
        path = [first]
        tried = [first + 1]  # next successor to try, per path entry
        while path:
            cur, j = path[-1], tried[-1]
            while j < k and (
                (y_pos[j] - y_pos[cur] - 1) % h != 0 or (target, j) in dead
            ):
                j += 1
            if j == k:
                dead.add((target, cur))
                path.pop()
                tried.pop()
                continue
            tried[-1] = j + 1
            path.append(j)
            if y_pos[j] % h == target:
                return path
            tried.append(j + 1)
        return None

    for first in range(k):
        target = (y_pos[first] + n - 1) % h
        chain = chain_from(first, target)
        if chain is not None:
            return [y_pos[i] for i in chain]
    return None


def lehrer_weiss_tower(sys: FinitePermutationSystem, h: int, y: AtomSet) -> Tower:
    """Height-h tower whose residual lies inside the prescribed set y.

    Finite-scale feasibility: some subset of y must cut the cycle into arcs
    of length divisible by h. Raises Infeasible when no subset does.
    """
    order = sys.walk()
    n = sys.n
    if not 1 <= h <= n:
        raise ValueError(f"need 1 <= h <= n, got h={h}, n={n}")
    if len(y) == 0:
        raise ValueError("target set y must be non-empty")
    if y.n != n:
        raise ValueError("y belongs to a different system")
    y_pos = np.sort(perms.inverse(order)[y.indices()]).tolist()
    chosen = _arc_residual_search(y_pos, n, h)
    if chosen is None:
        raise Infeasible(
            f"no subset of y cuts the {n}-cycle into arcs divisible by {h}"
        )
    if not chosen:
        base_pos: list[int] = list(range(0, n, h))
    else:
        base_pos = []
        m = len(chosen)
        for i in range(m):
            arc_start = chosen[i] + 1
            arc_len = (chosen[(i + 1) % m] - chosen[i] - 1) % n
            for off in range(0, arc_len, h):
                base_pos.append((arc_start + off) % n)
    base = frozenset(order[base_pos].tolist())
    residual = frozenset(order[chosen].tolist())
    return Tower(AtomSet(base, n), h, AtomSet(residual, n))
