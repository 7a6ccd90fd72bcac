"""Permutations of n atoms, in the one form ergolab uses for them.

A permutation is a read-only np.int64 array p of length n with p[i] the
image of atom i. Composition follows function order: compose(f, g) = f[g]
applies g first. Every function here takes and returns that form; caller
sequences enter it once, through `as_permutation`. Arrays the library
builds as bijections by construction skip that check and are only frozen
(`_frozen`): the triples of `involutions.factor_three_involutions`, whose
`verify` stays the independent check.

`cycles` lists the disjoint cycles of p, each from its least atom; the
walk of a single cycle and the recurrence counts both read that listing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_permutation(p: Sequence[int] | np.ndarray) -> np.ndarray:
    """A read-only int64 copy of p; ValueError unless p is a bijection of
    {0..n-1} with n >= 1."""
    arr = np.asarray(p)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need at least one atom")
    n = arr.size
    if (
        arr.dtype.kind not in "iu"
        or arr.min() < 0
        or arr.max() >= n
        or np.bincount(arr, minlength=n).max() > 1
    ):
        raise ValueError("map is not a bijection on {0..n-1}")
    return _frozen(arr.astype(np.int64))


def compose(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f after g: (f*g)(i) = f(g(i))."""
    return _frozen(f[g])


def inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size)
    return _frozen(inv)


def is_involution(p: np.ndarray) -> bool:
    return bool((p[p] == np.arange(p.size)).all())


def cycles(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, lengths): every atom once, orbit after orbit, and the orbit
    lengths. Each orbit steps along p from its least atom, and the orbits
    come in increasing order of that atom, so atom 0's orbit is first."""
    pl = p.tolist()  # one list copy: a Python walk is faster than pointer doubling
    order: list[int] = []
    lengths: list[int] = []
    for start in range(len(pl)):
        j = pl[start]
        if j < 0:  # already on an earlier orbit
            continue
        size = len(order)
        order.append(start)
        pl[start] = -1
        while j != start:
            order.append(j)
            pl[j], j = -1, pl[j]
        lengths.append(len(order) - size)
    return (
        _frozen(np.array(order, dtype=np.int64)),
        _frozen(np.array(lengths, dtype=np.int64)),
    )
