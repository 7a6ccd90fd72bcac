"""Finite measure-preserving systems and tower extraction.

The finite model of an invertible measure-preserving transformation is a
bijection of n equal-mass atoms (each of mass 1/n). Aperiodicity and
ergodicity are modelled by restricting tower constructions to single
n-cycles; all measures are exact rationals.

The bijection has one representation: a read-only int64 array with
map[i] the atom that atom i goes to, composed in function order (see
`perms`). An atom set has one too: a sorted, distinct, read-only int64
array of atom indices, checked once when the `AtomSet` is built.

A system lists its map's cycles through `cycles()` (see `perms.cycles`).
`walk`, the case of exactly one cycle, gives towers and the involution
pipeline that cycle in walk order from atom 0. The cycle constructors keep
the order they build the map from as the listing; a caller-given map is
walked once, on first use, and the listing is kept.

Only `_from_walk`, behind the cycle constructors, passes `_cycles` to the
constructor: its map is a bijection by construction, so it is frozen in
place and not checked again. Every system, built or given, still passes
through `__post_init__`, the one place a system's map is settled, so a
wrapper there (the benchmark tracer's `core.atoms` count) sees every system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import perms
from .errors import Infeasible


@dataclass(frozen=True, eq=False)
class FinitePermutationSystem:
    """n atoms of mass 1/n permuted by a bijection `map`.

    `map` is a read-only int64 array (see `perms`); any sequence of atom
    indices is accepted, checked and copied once. Equality is identity.

    `_cycles` is private and keyword-only: `_from_walk` passes the cycle
    listing it built the int64 map from, and the map is then frozen in place
    without the check. A caller's map comes without it and is walked on
    first use.
    """

    map: np.ndarray
    _cycles: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, kw_only=True
    )

    def __post_init__(self):
        if self._cycles is None:
            object.__setattr__(self, "map", perms.as_permutation(self.map))
        else:
            perms._frozen(self.map)

    @property
    def n(self) -> int:
        return self.map.size

    def cycles(self) -> tuple[np.ndarray, np.ndarray]:
        """`perms.cycles(map)`: every atom once, orbit after orbit, and the
        orbit lengths, as read-only int64 arrays; walked on the first call
        and kept."""
        if self._cycles is None:
            object.__setattr__(self, "_cycles", perms.cycles(self.map))
        return self._cycles

    def walk(self) -> np.ndarray:
        """Atoms in walk order from atom 0, as a read-only int64 array;
        ValueError unless `map` is a single n-cycle."""
        order, lengths = self.cycles()
        if lengths.size != 1:
            raise ValueError("system must be a single n-cycle")
        return order

    def subset(self, atoms: Iterable[int] | np.ndarray) -> "AtomSet":
        return AtomSet(atoms, self.n)

    @staticmethod
    def _from_walk(order: np.ndarray) -> "FinitePermutationSystem":
        """The single cycle stepping along `order`, an int64 array holding
        every atom once and starting at atom 0, which it keeps as its one cycle.

        The map it scatters from `order` is a bijection by construction, so it
        goes in with `_cycles` and `__post_init__` only freezes it."""
        p = np.empty(order.size, dtype=np.int64)
        p[order[:-1]] = order[1:]
        p[order[-1]] = order[0]
        lengths = np.array([order.size], dtype=np.int64)
        order.flags.writeable = lengths.flags.writeable = False
        return FinitePermutationSystem(p, _cycles=(order, lengths))

    @staticmethod
    def cycle(n: int) -> "FinitePermutationSystem":
        """The standard n-cycle i -> i+1 mod n."""
        if n < 1:
            raise ValueError("n must be positive")
        return FinitePermutationSystem._from_walk(np.arange(n, dtype=np.int64))

    @staticmethod
    def random_cycle(n: int, seed: int) -> "FinitePermutationSystem":
        """The n-cycle stepping along a seeded random order of the atoms;
        the order is rotated to start at atom 0, which leaves the map as it is."""
        if n < 1:
            raise ValueError("n must be positive")
        order = np.random.default_rng(seed).permutation(n).astype(np.int64, copy=False)
        start = int(np.argmin(order))  # the position of atom 0
        return FinitePermutationSystem._from_walk(np.concatenate((order[start:], order[:start])))


@dataclass(frozen=True, eq=False)
class AtomSet:
    """A subset of the n atoms, as `atoms`: a sorted, distinct, read-only
    int64 array. Any iterable of ints or integer array is accepted, repeats
    dropped; ValueError unless each is in {0..n-1}. Measure is never
    stored, and equality is identity.
    """

    atoms: np.ndarray
    n: int

    def __post_init__(self):
        a = self.atoms
        a = np.asarray(a if isinstance(a, np.ndarray) else list(a))
        # ints past int64 give an object array, or a float one if of both signs
        if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= self.n):
            raise ValueError("atom index out of range")
        a = np.sort(a.astype(np.int64, copy=False))
        if a.size > 1:
            a = a[np.concatenate(([True], a[1:] != a[:-1]))]
        a.flags.writeable = False
        object.__setattr__(self, "atoms", a)

    @property
    def measure(self) -> Fraction:
        return Fraction(self.atoms.size, self.n)

    def __contains__(self, i: int) -> bool:
        k = np.searchsorted(self.atoms, i)
        return k < self.atoms.size and self.atoms[k] == i

    def __len__(self) -> int:
        return self.atoms.size

    def mask(self) -> np.ndarray:
        """Boolean membership array over the n atoms."""
        m = np.zeros(self.n, dtype=bool)
        m[self.atoms] = True
        return m


def _check_sets(sys: FinitePermutationSystem, *sets: AtomSet) -> None:
    """ValueError unless every set is a set of `sys`'s atoms."""
    if any(s.n != sys.n for s in sets):
        raise ValueError("atom set belongs to a different system")


@dataclass(frozen=True, eq=False)
class Tower:
    """Levels base, T base, ..., T^(h-1) base plus a residual set (the roof).
    Equality is identity, as for the `AtomSet`s it holds."""

    base: AtomSet
    height: int
    residual: AtomSet


def validate_tower(sys: FinitePermutationSystem, tower: Tower) -> bool:
    """Levels and residual are pairwise disjoint and cover all atoms.

    A partition counts each atom once, so the levels and the residual must
    hold n atoms in all (a height below 1 has no levels); given that count,
    they cover every atom exactly when they are disjoint. The levels are
    gathered one per numpy call and marked on one boolean cover. ValueError
    when the tower's sets belong to a system of another size.
    """
    n, h = sys.n, tower.height
    _check_sets(sys, tower.base, tower.residual)
    base, residual = tower.base.atoms, tower.residual.atoms
    if max(h, 0) * base.size + residual.size != n:
        return False
    levels = [residual, base]  # with h < 1, the count left only a full residual
    for _ in range(h - 1):
        levels.append(sys.map[levels[-1]])
    cover = np.zeros(n, dtype=bool)
    cover[np.concatenate(levels)] = True
    return bool(cover.all())


def _tower(order: np.ndarray, h: int, roof: Sequence[int]) -> Tower:
    """Height-h tower whose residual sits at the ascending walk positions
    `roof`, which must cut the cycle into arcs of length divisible by h.

    Each roof position satisfies p_i - i = c (mod h) with c = p_0 mod h, or
    c = 0 for an empty roof. So with the roof removed, the column bases are
    the remaining positions whose rank is c (mod h).
    """
    n = order.size
    c = roof[0] % h if len(roof) else 0
    return Tower(AtomSet(np.delete(order, roof)[c::h], n), h, AtomSet(order[roof], n))


def _walk_for_height(sys: FinitePermutationSystem, h: int) -> np.ndarray:
    """`sys.walk()` for a tower of height h; ValueError unless 1 <= h <= n."""
    order = sys.walk()
    if not 1 <= h <= sys.n:
        raise ValueError(f"need 1 <= h <= n, got h={h}, n={sys.n}")
    return order


def rokhlin_tower(sys: FinitePermutationSystem, h: int) -> Tower:
    """Height-h tower on a single n-cycle with residual of measure (n mod h)/n.

    The cycle is walked from atom 0; the base sits at walk positions
    0, h, 2h, ... and the residual is the trailing n mod h positions.
    When n mod h <= 1 the residual additionally maps into the base under T.
    """
    order, n = _walk_for_height(sys, h), sys.n
    return _tower(order, h, range(n - n % h, n))


def _arc_residual_search(y_pos: list[int], n: int, h: int) -> list[int] | None:
    """Lexicographically first subset of the ascending positions y_pos that
    cuts the cycle into arcs of length divisible by h, or None if none does.

    Positions p_0 < ... < p_{m-1} cut such arcs exactly when
    p_{i+1} = p_i + 1 (mod h) for each i and m = n (mod h). The first
    r = n mod h positions of a valid chain are a valid chain, so the first
    valid subset has exactly r positions. Every successor of p has residue
    p + 1 mod h, and the earliest one keeps every option a later one has.
    So the first chain follows earliest successors from the first index
    whose run of earliest successors (found right to left) holds r or more.
    """
    r = n % h
    if r == 0:
        return []  # empty residual: the whole cycle splits into columns
    k = len(y_pos)
    nxt, run = [None] * k, [0] * k
    least: dict[int, int] = {}  # residue -> least index scanned so far
    for j in range(k - 1, -1, -1):
        succ = least.get((y_pos[j] + 1) % h)
        nxt[j] = succ
        run[j] = 1 if succ is None else run[succ] + 1
        least[y_pos[j] % h] = j
    j = next((j for j in range(k) if run[j] >= r), None)
    chain = []
    while j is not None and len(chain) < r:
        chain.append(y_pos[j])
        j = nxt[j]
    return chain or None


def lehrer_weiss_tower(sys: FinitePermutationSystem, h: int, y: AtomSet) -> Tower:
    """Height-h tower whose residual lies inside the prescribed set y.

    Finite-scale feasibility: some subset of y must cut the cycle into arcs
    of length divisible by h. Raises Infeasible when no subset does. The
    residual is the lexicographically first such subset of y's walk
    positions, and it holds exactly n mod h atoms. Those positions are where
    y's membership mask, gathered in walk order, is set: ascending as found.
    """
    order, n = _walk_for_height(sys, h), sys.n
    if len(y) == 0:
        raise ValueError("target set y must be non-empty")
    _check_sets(sys, y)
    y_pos = np.flatnonzero(y.mask()[order]).tolist()
    roof = _arc_residual_search(y_pos, n, h)
    if roof is None:
        raise Infeasible(
            f"no subset of y cuts the {n}-cycle into arcs divisible by {h}"
        )
    return _tower(order, h, roof)
