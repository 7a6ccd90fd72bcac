"""Permutations of n atoms, in the one form ergolab uses for them.

A permutation is a read-only np.int64 array p of length n with p[i] the
image of atom i. Composition follows function order: compose(f, g) = f[g]
applies g first. Every function here takes and returns that form; caller
sequences enter it once, through `as_permutation`.
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


def power(p: np.ndarray, k: int) -> np.ndarray:
    """p^k for any integer k, by repeated squaring."""
    step = p if k >= 0 else inverse(p)
    k = abs(k)
    out = np.arange(p.size)
    while k:
        if k & 1:
            out = step[out]
        k >>= 1
        if k:
            step = step[step]
    return _frozen(out)


def is_involution(p: np.ndarray) -> bool:
    return bool((p[p] == np.arange(p.size)).all())


def cycle_order_from(p: np.ndarray, start: int = 0) -> np.ndarray:
    """Orbit of `start` in iteration order; the full cycle for cyclic p."""
    pl = p.tolist()  # one list copy: a Python walk is faster than pointer doubling
    out = [start]
    j = pl[start]
    while j != start:
        out.append(j)
        j = pl[j]
    return _frozen(np.fromiter(out, dtype=np.int64, count=len(out)))
