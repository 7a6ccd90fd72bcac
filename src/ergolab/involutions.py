"""Factor a cyclic measure-preserving permutation into three involutions.

Pipeline on a single n-cycle T:
  1. extract a height-h tower (h = 11 by default) with residual runs placed
     between column tops and the next column base;
  2. build a correcting involution s swapping each residual run's last atom
     with the top of the preceding column, so that T after s climbs columns
     cleanly and fixes the residual setwise;
  3. factor the induced base map (a q-cycle on column bases) into two
     involutions by cycle reversal and lift the two factors to live on
     distinct tower levels, so they commute with s and with each other;
  4. the product P of T with the combined involution S is periodic on the
     tower (each orbit climbs one column and hops to the next base), and
     splits into two reflections per orbit;
  5. the triple (conjugate of S by P, reflection, reflection) composes to T.

Composition convention everywhere: (f * g)(x) = f(g(x)), applied right to
left, so a triple (s1, s2, s3) represents x -> s1(s2(s3(x))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import perms
from .core import FinitePermutationSystem


@dataclass(frozen=True, eq=False)
class InvolutionTriple:
    """Three involutions with s1(s2(s3(x))) equal to the target map.

    Each field is a read-only int64 array (see `perms`); any sequences of
    atom indices are accepted and converted once. Equality is identity.
    """

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            object.__setattr__(self, name, perms.as_permutation(getattr(self, name)))
        if not self.s1.size == self.s2.size == self.s3.size:
            raise ValueError("the three involutions act on different atom counts")

    def compose(self) -> np.ndarray:
        return perms.compose(self.s1, perms.compose(self.s2, self.s3))

    def verify(self, target: np.ndarray) -> bool:
        return (
            target.shape == self.s1.shape
            and all(perms.is_involution(s) for s in (self.s1, self.s2, self.s3))
            and bool((self.compose() == target).all())
        )


def cycle_two_involutions(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Reflections (S', S'') on {0..k-1} with S'(S''(i)) = i+1 mod k.

    S''(i) = -i mod k and S'(i) = 1-i mod k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    i = np.arange(k)
    return (1 - i) % k, -i % k


def _reflections(p: np.ndarray, cycles: np.ndarray, lengths: np.ndarray):
    """Involutions (r1, r2) with r1(r2(x)) = P(x), by per-cycle reversal.

    `cycles` lists every atom once, cycle after cycle, each cycle in P's
    order from its anchor; `lengths` gives the cycle lengths. Position i of
    a cycle of length m goes to -i mod m under r2; r2 is an involution, so
    r1 = P after r2, which sends position i to 1-i mod m.
    """
    m = np.repeat(lengths, lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i = np.arange(cycles.size) - start
    r2 = np.empty_like(cycles)
    r2[cycles] = cycles[start + -i % m]
    return p[r2], r2


def _pipeline_parts(sys: FinitePermutationSystem, height: int):
    """Internal stages of the factorization: the correcting involution, the
    two lifted base factors, their product, the periodic part, and the
    cycles of the periodic part with their lengths (as `_reflections`
    takes them)."""
    n = sys.n
    order = sys.walk()
    h = min(height, n)
    q, r = divmod(n, h)

    # walk layout: q columns of h atoms; residual runs spread over the gaps,
    # the first r % q gaps getting one extra atom when r > q
    run_len = r // q + (np.arange(q) < r % q)
    col_start = np.arange(q) * h + np.cumsum(run_len) - run_len

    # correcting involution: swap each run's last atom with its column top
    s = np.arange(n)
    has_run = run_len > 0
    tops = order[col_start[has_run] + h - 1]
    lasts = order[col_start[has_run] + h + run_len[has_run] - 1]
    s[tops] = lasts
    s[lasts] = tops

    # base-cycle factors lifted to levels 0 and 1; the climb applies the
    # level-0 factor, then the level-1 factor, then the top hop, and the
    # reversal pair composes back to the +1 column shift
    lift1, lift2 = cycle_two_involutions(q)
    d1 = np.arange(n)
    d2 = np.arange(n)
    d1[order[col_start]] = order[col_start[lift1]]
    d2[order[col_start + 1]] = order[col_start[lift2] + 1]
    big_s = s.copy()
    big_s[order[col_start]] = d1[order[col_start]]
    big_s[order[col_start + 1]] = d2[order[col_start + 1]]

    # periodic part P = T after S
    p = perms.compose(sys.map, big_s)

    # P's cycles, read off the layout: the cycle anchored at column k's base
    # steps to level 1 of column lift1[k], climbs column lift2[lift1[k]] and
    # hops back to column k's base; each residual run is one cycle, stepping
    # along the walk and from its last atom back to its first
    cols = np.empty((q, h), dtype=np.int64)
    cols[:, 0] = np.arange(q)
    cols[:, 1] = lift1
    cols[:, 2:] = lift2[lift1][:, None]
    column_pos = (col_start[cols] + np.arange(h)).ravel()
    in_column = np.zeros(n, dtype=bool)
    in_column[column_pos] = True
    cycles = np.concatenate([order[column_pos], order[~in_column]])
    lengths = np.concatenate([np.full(q, h), run_len])
    return s, d1, d2, big_s, p, cycles, lengths


def factor_three_involutions(
    sys: FinitePermutationSystem, height: int = 11
) -> InvolutionTriple:
    """Factor a single n-cycle into three involutions via the tower pipeline.

    The tower height is clamped to n when n < height, so small cycles are
    factored through their full-cycle tower. For n <= 2 the map is already
    an involution and the triple is trivial.
    """
    if height < 3:
        raise ValueError("tower height must be at least 3")
    n = sys.n
    if n <= 2:
        sys.walk()  # ValueError unless the map is a single n-cycle
        ident = np.arange(n)
        return InvolutionTriple(ident, ident, sys.map)

    _, _, _, big_s, p, cycles, lengths = _pipeline_parts(sys, height)
    refl1, refl2 = _reflections(p, cycles, lengths)

    # conjugate S by P so the correcting product sits leftmost in the triple:
    # P S P^-1 sends P(x) to P(S(x))
    s_first = np.empty_like(p)
    s_first[p] = p[big_s]
    return InvolutionTriple(s_first, refl1, refl2)
