"""Factor a cyclic measure-preserving permutation into three involutions.

Construction on a single n-cycle T, which proves that the triple composes
to T:
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

Closed forms. The walk from atom 0 lays out q = n // h columns of h atoms,
column k followed by residual run k (the r = n mod h leftover atoms, spread
one or more per run). Write (k, l) for level l of column k, with column
indices mod q, and i for an atom's index in a run of length L. Carried
through the layout, the five stages give:

  s1 = P S P^-1  (k, 1) <-> (1-k, 1);  (k, 2) <-> (-k, 2);
                 (k+1, 0) <-> head i = 0 of run k, when run k is non-empty;
                 every other atom fixed
  s2 = r1        (k, 0) <-> (1-k, 1);  (k, l) <-> (k, h+1-l) for 2 <= l <= h-1;
                 run index i -> 1-i mod L
  s3 = r2        (k, 0) fixed;  (k, 1) <-> (-k, h-1);
                 (k, l) <-> (k, h-l) for 2 <= l <= h-2;  run index i -> -i mod L

`factor_three_involutions` builds s1 and s2 from this table as column
scatters on the grid a[k, l] of column atoms: s[a[:, l]] takes the column
of a that holds the images of level l, re-indexed by k -> 1-k or -k mod q
where the table crosses columns; the residual runs are scattered after.
As s1 and s2 are involutions, s1 s2 s3 = T fixes s3 = s2 s1 T, which is
its row above. The stagewise pipeline allocates
s, d1, d2, S, P, P's cycle listing and the reflections' index arrays
instead, about two dozen n-sized temporaries. The test suite keeps the
stagewise pipeline as the reference and checks the two byte for byte.

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
    atom indices are accepted and converted once, and ValueError is raised
    unless they are bijections on one atom count. Equality is identity.

    `factor_three_involutions` returns through `_built`, which freezes the
    arrays it has just made without that check: each is a bijection by
    construction. `verify` stays the independent check of any triple, as an
    involution is a bijection.
    """

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            object.__setattr__(self, name, perms.as_permutation(getattr(self, name)))
        if not self.s1.size == self.s2.size == self.s3.size:
            raise ValueError("the three involutions act on different atom counts")

    @classmethod
    def _built(cls, s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> InvolutionTriple:
        """The triple of three int64 bijections of one size, frozen in place."""
        triple = object.__new__(cls)
        for name, s in (("s1", s1), ("s2", s2), ("s3", s3)):
            object.__setattr__(triple, name, perms._frozen(s))
        return triple

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


def factor_three_involutions(
    sys: FinitePermutationSystem, height: int = 11
) -> InvolutionTriple:
    """Factor a single n-cycle into three involutions by the closed forms of
    the module docstring.

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
        return InvolutionTriple._built(ident, ident, sys.map)

    order = sys.walk()
    h = min(height, n)
    q, r = divmod(n, h)

    # walk layout: q columns of h atoms, column k followed by residual run k;
    # runs 0..extra-1 hold wide+1 atoms and the others wide, so the walk is
    # two blocks of equal-width rows, one column and its run per row
    wide, extra = divmod(r, q)
    split = extra * (h + wide + 1)
    blocks = (
        order[:split].reshape(extra, h + wide + 1),
        order[split:].reshape(q - extra, h + wide),
    )
    a = np.concatenate([block[:, :h] for block in blocks])  # a[k, l]: level l of column k
    turn, flip = cycle_two_involutions(q)  # column k -> 1-k and -k mod q

    # s1 = P S P^-1: level 1 across turn, level 2 across flip; the run heads below
    s1 = np.arange(n)
    s1[a[:, 1]] = a[turn, 1]
    s1[a[:, 2]] = a[flip, 2]

    # s2 = r1: base of k <-> level 1 of 1-k, level l <-> level h+1-l for l >= 2
    s2 = np.empty(n, dtype=np.int64)
    s2[a[:, 0]] = a[turn, 1]
    s2[a[:, 1]] = a[turn, 0]
    s2[a[:, 2:]] = a[:, :1:-1]

    # residual runs: index i of a run of length L goes to 1-i mod L under s2;
    # s1 swaps the head of run k with the base of column k+1
    next_base = np.roll(a[:, 0], -1)
    for block, bases in zip(blocks, np.split(next_base, [extra])):
        run = block[:, h:]
        if run.size:
            heads = run[:, 0]
            s1[heads] = bases
            s1[bases] = heads
            i = np.arange(run.shape[1])
            s2[run] = run[:, (1 - i) % i.size]
    return InvolutionTriple._built(s1, s2, s2[s1[sys.map]])  # s3 = s2 s1 T
