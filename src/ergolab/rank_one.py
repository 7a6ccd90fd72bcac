"""Symbolic rank-one cutting-and-stacking with exact correlations.

A construction is given by an initial height h1 and spacer counts s_j; each
stage cuts the tower into two equal columns, stacks the right column on the
left one, and adds s_j spacer levels above the right column, so heights obey
h_{j+1} = 2*h_j + s_j. Stage-j levels have width 2^(1-j) (stage-1 levels
have width 1) and the total mass grows without bound when the spacers do.
A spec is the infinite construction: its explicit spacers are a prefix, and
past them it continues with the sparse tail s_j = h_j, so every stage
exists; `max_stage` counts the explicit stages only.

Sets of finite measure are unions of levels of some stage. A stage-j level
splits into levels l and l+h_j of stage j+1, so a level-index set S evolves
as S -> S + (S + h_j), and the transformation acts as index +1 within any
stage tower. Correlations mu(T^n A intersect A) are exact level-pair counts
at a deep enough stage: with D_j(d) the number of pairs of S at stage j that
differ by d, S and S + h_j are disjoint and S lies in [0, h_j), so
D_{j+1}(d) = 2*D_j(d) + D_j(|d - h_j|). No count exceeds D(0) = |S|, and
|S| <= span + 1, where the span is the largest difference in S. No two
levels of S lie farther apart than the span, so D(n) = 0 for every n past
it.

A series needs D only on [0, n_max], so it clamps each gap between
consecutive levels at n_max + 1: a difference <= n_max sums gaps <= n_max,
which the clamp leaves alone, and a larger one keeps its gaps or holds a
clamped one, so every count on [0, n_max] is kept. A step is far when
h_j - span > n_max for the set grown so far: S + h_j then puts no
difference <= n_max against S, and D_{j+1} = 2*D_j there. That gap grows
by s_j from each step to the next, so every step after a far one is far
too. A series stops growing the set at the first far step, sparing pairs
it never reads, and folds the remaining doublings into the level width;
a near step's middle gap h_j - span is at most n_max, so no clamp
touches it. It stores values only through min(span, n_max) for the grown
set's span; every later time reads one shared zero.

A query has one certificate: no level of A lies within n of the working
tower's top, so every orbit segment of length n stays inside it. Values
without it are flagged Unstable rather than approximated. Equal values at
two consecutive stages are no certificate: for RankOneSpec(2, (3, 1, 3, 5,
3)), A = level 1 of stage 1 and n = 6, stages 2 and 3 give 0 while stages
4 to 6 certify 1/8.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, pairwise, repeat
from numbers import Rational

import numpy as np

from .errors import DesignError

SCAN_CAP = 1_000_000  # gaps of M that gap_intervals reads before giving up


class Unstable:
    """Sentinel: the requested value is not certified at this working stage."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSTABLE"


UNSTABLE = Unstable()


@dataclass(frozen=True)
class RankOneSpec:
    """Construction parameters: initial height and the explicit spacer
    prefix, continued by s_j = h_j."""

    h1: int
    spacers: tuple[int, ...]

    def __post_init__(self):
        if self.h1 < 1:
            raise ValueError("h1 must be positive")
        if any(s < 0 for s in self.spacers):
            raise ValueError("spacer counts must be non-negative")

    @property
    def max_stage(self) -> int:
        """The deepest stage the explicit spacers determine."""
        return len(self.spacers) + 1


def heights(spec: RankOneSpec, stages: int) -> list[int]:
    """Heights h_1..h_stages under h_{j+1} = 2*h_j + s_j, with s_j = h_j
    past the explicit spacers."""
    if stages < 1:
        raise ValueError("stage count must be positive")
    hs = [spec.h1]
    for j in range(stages - 1):
        hs.append(2 * hs[-1] + (spec.spacers[j] if j < len(spec.spacers) else hs[-1]))
    return hs


def level_width(stage: int) -> Fraction:
    return Fraction(1, 2 ** (stage - 1))


@dataclass(frozen=True)
class LevelSet:
    """A finite-measure set: a union of levels of one stage."""

    stage: int
    levels: frozenset[int]

    def __post_init__(self):
        if self.stage < 1:
            raise ValueError("level-set stage must be positive")

    def measure(self) -> Fraction:
        return len(self.levels) * level_width(self.stage)


def _top_level(hs: list[int], a: LevelSet) -> int:
    """Highest level index of `a` in the stage-j tower, j = len(hs), or 0
    when `a` is empty: a stage-i level l has its highest copy at
    l + h_i + ... + h_{j-1}. Rejects `a` unless it is a set of levels of
    its own stage tower and that stage is not deeper than j."""
    if a.stage > len(hs):
        raise ValueError("working stage is shallower than the set's stage")
    if not a.levels:
        return 0
    top = max(a.levels)
    if top >= hs[a.stage - 1]:
        raise ValueError("level index outside its stage tower")
    if min(a.levels) < 0:
        raise ValueError("negative level index")
    return top + sum(hs[a.stage - 1 : -1])


def _pair_count(hs: list[int], a: LevelSet, n: int) -> int:
    """D(n) at the working stage len(hs): the pairs of A's levels there that
    differ by n >= 0, so D(0) counts those levels. D_{j+1}(d) = 2*D_j(d) +
    D_j(|d - h_j|) is pulled back to A's own stage as weights on
    differences, dropping each d >= h_j, for which D_j(d) = 0."""
    weights = {n: 1}
    for h in reversed(hs[a.stage - 1 : -1]):
        pulled: dict[int, int] = {}
        for d, w in weights.items():
            for e, v in ((d, 2 * w), (abs(d - h), w)):
                if e < h:
                    pulled[e] = pulled.get(e, 0) + v
        weights = pulled
    return sum(w * sum(l + d in a.levels for l in a.levels) for d, w in weights.items())


def correlation(
    spec: RankOneSpec, a: LevelSet, n: int, stage: int
) -> Fraction | Unstable:
    """Exact mu(T^n A intersect A), or UNSTABLE if not certified at `stage`.

    The one certificate is that no level of A lies in the top n levels of
    the working tower, so every orbit segment stays inside it; without it
    UNSTABLE is returned and no pairs are counted. A certified value is
    D(n) times the level width at the working stage, where D(n) counts the
    pairs of A's levels there that differ by n, taken by the difference
    recursion from A's own levels. Counts that agree at `stage-1` and
    `stage` certify nothing (see the module docstring's example).
    """
    if n < 0:
        raise ValueError("time must be non-negative")
    hs = heights(spec, stage)
    h_top = hs[-1]
    if n >= h_top:
        raise ValueError(f"time {n} leaves the stage-{stage} tower (h={h_top})")
    if _top_level(hs, a) + n >= h_top:
        return UNSTABLE
    return _pair_count(hs, a, n) * level_width(stage)


def extend_spec(spec: RankOneSpec, a: LevelSet, n_max: int) -> RankOneSpec:
    """The spec with its tail s_j = h_j written out as explicit spacers up
    to the stage `min_exact_stage(spec, a, n_max)`; explicit stages are kept
    and no height or correlation changes."""
    hs = heights(spec, max(spec.max_stage, min_exact_stage(spec, a, n_max)))
    return RankOneSpec(spec.h1, spec.spacers + tuple(hs[len(spec.spacers) : -1]))


def min_exact_stage(spec: RankOneSpec, a: LevelSet, n_max: int) -> int:
    """Smallest working stage above A's own at which all times up to n_max
    are certified, i.e. h_j exceeds A's top level there by more than n_max.
    It exists: that gap grows by s_j from stage j to j+1, so it never
    shrinks and grows by h_j at each tail stage. A is checked once, and the
    height and the top level then grow together, one stage per step."""
    hs = heights(spec, a.stage)
    h, top, stage = hs[-1], _top_level(hs, a), a.stage
    while True:
        if a.levels:
            top += h
        h = 2 * h + (spec.spacers[stage - 1] if stage <= len(spec.spacers) else h)
        stage += 1
        if h - top > n_max:
            return stage


class _Pairs(Sequence):
    """Read-only (n, value) pairs for n < length: value n is values[n] for
    n < len(values) and the one shared `zero` past them, so a series stores
    nothing for the times past its grown set's span, where D(n) = 0. A pair
    is made only when it is read, and iteration enumerates the values and
    then repeats `zero`, so a loop that unpacks each pair reuses one tuple.
    A slice is the tuple of its pairs. Equal to any sequence of the same
    pairs, compared pair by pair since two equal series may store different
    prefixes (a set whose span reaches past the horizon stores its trailing
    zeros), and hashed as their tuple."""

    __slots__ = ("values", "length", "zero")

    def __init__(self, values: tuple[Fraction, ...], length: int, zero: Fraction):
        self.values = values
        self.length = length
        self.zero = zero

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, n: int | slice):
        if isinstance(n, slice):
            return tuple(map(self.__getitem__, range(self.length)[n]))
        n = range(self.length)[n]  # a negative n counts from the end
        return n, self.values[n] if n < len(self.values) else self.zero

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        tail = repeat(self.zero, self.length - len(self.values))
        return enumerate(chain(self.values, tail))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == self.length and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_Pairs({self.values!r}, {self.length!r}, {self.zero!r})"


@dataclass(frozen=True)
class CorrelationSeries:
    """Exact correlation values mu(T^n A intersect A) for n = 0..n_max, read
    as (n, value) pairs. `correlation_series` stores one tuple of values
    through min(span, n_max) for the span of the set grown from A, since
    D(n) = 0 past that span, behind a pair view that reads one shared zero
    for every later time; a tuple of pairs works the same, slices
    included."""

    entries: Sequence[tuple[int, Fraction]]

    def value(self, n: int) -> Fraction:
        return self.entries[n][1]


def correlation_series(
    spec: RankOneSpec, a: LevelSet, n_max: int
) -> CorrelationSeries:
    """All correlations for n in [0, n_max], at the working stage
    `min_exact_stage(spec, a, n_max)`.

    The value at n is D(n) times the level width, where D(d) counts the
    pairs of levels of A that differ by d. The stage carries the one
    certificate `correlation` uses for every n <= n_max: no orbit of A
    leaves the tower within n_max steps. From that stage on, D only doubles
    on [0, n_max] while the width halves, so every deeper stage gives the
    same series.
    It is built from A's own levels, as offsets over gaps clamped at
    n_max + 1, by D_{j+1}(d) = 2*D_j(d) + D_j(|d - h_j|) on an int64 array
    as long as the difference span; when the grown set is small next to
    that span, its pairs are counted directly instead. Growth stops at the
    first far step (see `_near_steps`): the later steps only double D on
    [0, n_max], and the doublings are folded into the denominator. Counts
    are at most the grown set's size, so int64 is exact for any array that
    fits in memory. A negative n_max raises ValueError, as does a clamped
    span of 2^63 levels or more.
    No two levels of the grown set S differ by more than its span, so
    D(n) = 0 for every n past it: the counts, and the stored values, run
    only through min(span, n_max), and every later time reads one shared
    zero. The work is in proportion to that length, not to n_max.
    The values are one tuple holding one shared Fraction per distinct
    count, built without a Python call per time: an object table indexed
    by count holds one Fraction at each count that occurs and at 0, and
    indexing it with the counts gathers those Fractions into the tuple.
    Every count is at most D(0) = |S| <= span + 1, so the table is never
    longer than an array the counting already held: the recursion's
    differences over the span, or S itself when pairs are counted. The
    series' (n, value) pairs are made as they are read. A stored pair per
    time left n_max+1 objects for the cyclic garbage collector to track,
    and its repeated full passes over them were the largest cost of a long
    series.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    stage = min_exact_stage(spec, a, n_max)
    steps = heights(spec, stage)[a.stage - 1 : -1]
    counts = np.zeros(0, dtype=np.int64)
    if a.levels:
        low = min(a.levels)
        offsets = sorted(l - low for l in a.levels)
        span, cap = offsets[-1], n_max + 1
        if span > cap:  # else no gap passes the clamp
            offsets = [0, *accumulate(min(m - l, cap) for l, m in pairwise(offsets))]
        steps = _near_steps(steps, span, offsets[-1], n_max)
        counts = _grown_differences(np.array(offsets, dtype=np.int64), steps, n_max)[
            : n_max + 1
        ]
    # the level width 2^(1-stage), times 2 for each far step left out of counts
    den = 2 ** (a.stage - 1 + len(steps))
    present = np.zeros(int(counts.max(initial=0)) + 1, dtype=bool)
    present[counts] = True
    present[0] = True  # the times past the span read the zero
    distinct = np.flatnonzero(present)
    shared = np.empty(len(present), dtype=object)
    shared[distinct] = [Fraction(c, den) for c in distinct.tolist()]
    values = tuple(shared[counts].tolist())
    return CorrelationSeries(_Pairs(values, n_max + 1, shared[0]))


def _near_steps(steps: Sequence[int], span: int, clamped: int, n_max: int) -> list[int]:
    """The near steps (see the module docstring) of a set that spans `span`
    levels and `clamped` over clamped gaps, each as the clamped span so far
    plus its middle gap h - span. Raises ValueError at a clamped span of 2^63."""
    near = []
    for h in steps:
        if h - span > n_max:
            break
        near.append(clamped + h - span)
        span += h
        clamped += near[-1]
    if clamped >= 1 << 63:
        raise ValueError("clamped level set spans 2^63 levels, past int64 offsets")
    return near


# differences held at once while counting level pairs
_PAIR_BLOCK = 1 << 20


def _pair_differences(s: np.ndarray, length: int) -> np.ndarray:
    """counts[d] = #{(l, m) in S x S : m - l = d} for 0 <= d < length, over
    the sorted distinct levels `s`, counted in row blocks so that no
    |S| x |S| matrix is built."""
    counts = np.zeros(length, dtype=np.int64)
    rows = max(1, max(_PAIR_BLOCK, length) // len(s))
    for i in range(0, len(s), rows):
        diffs = s[i:] - s[i : i + rows, None]
        counts += np.bincount(diffs[(diffs >= 0) & (diffs < length)], minlength=length)
    return counts


def _grown_differences(s: np.ndarray, steps: Sequence[int], n_max: int) -> np.ndarray:
    """Difference counts, at least those for d <= n_max, of the set grown
    from the sorted levels `s` by S -> S + (S + h) for each height h in
    `steps`. The recursion costs one array pass per step over the span of
    the grown set; counting the grown set's pairs costs its size squared,
    and is used when that is the smaller."""
    span = int(s[-1] - s[0]) + sum(steps)
    if span <= (len(s) << len(steps)) ** 2:
        d = _pair_differences(s, int(s[-1] - s[0]) + 1)
        for h in steps:
            # S and S + h are disjoint and S lies in [0, h), so h > span
            grown = np.zeros(len(d) + h, dtype=np.int64)
            grown[: len(d)] = 2 * d
            grown[h:] += d
            grown[h - len(d) + 1 : h] += d[:0:-1]
            d = grown
        return d
    for h in steps:
        s = np.concatenate([s, s + h])
    return _pair_differences(s, min(n_max, span) + 1)


@dataclass(frozen=True)
class SignedDecomposition:
    """n = sum of signed heights (strictly decreasing stages) + remainder."""

    terms: tuple[tuple[int, int], ...]  # (sign, stage index j, 1-based)
    remainder: int
    term_bound: int


def nonmixing_decomposition(
    n: int,
    hs: Sequence[int],
    c: Fraction,
    mu_a: Fraction,
    remainder_cap: int = 0,
) -> SignedDecomposition | None:
    """Greedy signed-height decomposition of a non-mixing time.

    The term count is capped by the largest m with 2^-m * mu_a >= c. Since
    2^m is an integer, 2^m <= mu_a / c exactly when 2^m <= floor(mu_a / c),
    so the cap is floor(log2(floor(mu_a / c))), and 0 when mu_a < 2c. A
    float c is compared exactly, as the binary fraction it holds; c = inf
    or nan admits no term. Heights are consumed in strictly decreasing
    stage order, each the nearest height to the running remainder's
    magnitude among the stages still below the last one taken; a tie goes
    to the larger stage. Returns None when the remainder cannot be brought
    within remainder_cap under those constraints. A negative remainder_cap,
    heights not strictly increasing, c <= 0 or mu_a <= 0 raise ValueError;
    a mu_a that is not rational (a float) raises TypeError. mu_a may
    exceed 1: stage-1 levels have width 1.
    """
    if remainder_cap < 0:
        raise ValueError("remainder cap must be non-negative")
    if not all(map(operator.lt, hs, hs[1:])):
        raise ValueError("heights must be strictly increasing")
    if c <= 0:
        raise ValueError("threshold must be positive")
    if mu_a <= 0:
        raise ValueError("measure must be positive")
    if not isinstance(mu_a, Rational):
        raise TypeError("measure must be a rational number")
    try:
        c_num, c_den = c.as_integer_ratio()
    except (OverflowError, ValueError):  # c is inf or nan
        return None
    m_bound = (mu_a.numerator * c_den // (mu_a.denominator * c_num)).bit_length() - 1
    if m_bound <= 0:
        return None
    remaining = n
    terms: list[tuple[int, int]] = []
    stop = len(hs)  # the stages still open are 1..stop
    while abs(remaining) > remainder_cap and len(terms) < m_bound:
        x = abs(remaining)
        # hs[j - 1] < x <= hs[j]; the heights increase, so one of the two
        # is the nearest
        j = bisect_left(hs, x, 0, stop)
        if j == stop or (j > 0 and x - hs[j - 1] < hs[j] - x):
            j -= 1
        if j < 0 or abs(x - hs[j]) >= x:
            break
        sign = 1 if remaining > 0 else -1
        terms.append((sign, j + 1))
        remaining -= sign * hs[j]
        stop = j
    if abs(remaining) > remainder_cap or not terms:
        return None
    return SignedDecomposition(tuple(terms), remaining, m_bound)


@dataclass(frozen=True)
class SpacerDesign:
    """Result of fitting heights to interval midpoints."""

    spec: RankOneSpec
    selected: tuple[int, ...]  # indices of intervals actually used
    heights: tuple[int, ...]


def _validate_intervals(intervals: Sequence[tuple[int, int]]) -> None:
    if not intervals:
        raise DesignError("no intervals given")
    prev_b = None
    prev_len = None
    for i, (a, b) in enumerate(intervals):
        if a > b or a < 1:
            raise DesignError(f"interval {i} is malformed: [{a}, {b}]")
        if prev_b is not None and a <= prev_b:
            raise DesignError(
                f"interval {i} starts at {a}, not beyond previous end {prev_b}"
            )
        if prev_len is not None and b - a <= prev_len:
            raise DesignError(f"interval lengths must increase, bad at index {i}")
        prev_b = b
        prev_len = b - a
    return None


def design_spacers(
    intervals: Sequence[tuple[int, int]], h1: int = 1
) -> SpacerDesign:
    """Choose spacers so each new height lands at an interval midpoint.

    Intervals are consumed in order; one is selected when the spacer needed
    to reach its midpoint is at least the current height (the construction's
    growth condition), otherwise it is skipped. Raises DesignError when no
    interval can be selected.
    """
    _validate_intervals(intervals)
    hs = [h1]
    spacers: list[int] = []
    selected: list[int] = []
    for i, (a, b) in enumerate(intervals):
        mid = (a + b) // 2
        s = mid - 2 * hs[-1]
        if s < hs[-1]:
            continue
        spacers.append(s)
        hs.append(mid)
        selected.append(i)
    if not selected:
        raise DesignError(
            f"intervals too dense: no midpoint admits spacer >= height "
            f"(first failing index 0 of {len(intervals)})"
        )
    return SpacerDesign(
        RankOneSpec(h1, tuple(spacers)), tuple(selected), tuple(hs)
    )


def gap_intervals(m_times: Iterable[int], count: int) -> list[tuple[int, int]]:
    """Disjoint intervals of strictly growing length inside the gaps of M.

    Each interval is the centered half of a gap between consecutive elements
    of M, taken only when long enough to keep lengths strictly increasing.
    Raises DesignError when M is exhausted first, or after SCAN_CAP gaps.
    """
    if count < 1:
        raise ValueError("count must be positive")
    out: list[tuple[int, int]] = []
    prev_len = 0
    it: Iterator[int] = iter(m_times)
    try:
        prev = next(it)
    except StopIteration:
        raise DesignError("sequence M is empty") from None
    scanned = 0
    for cur in it:
        scanned += 1
        if scanned > SCAN_CAP:
            raise DesignError(f"no {count} usable gaps within scan budget {SCAN_CAP}")
        if cur <= prev:
            raise ValueError("M must be strictly increasing")
        gap = cur - prev - 1
        length = (gap + 1) // 2
        if length > prev_len and length >= 1:
            lo = prev + 1 + (gap - length) // 2
            hi = lo + length - 1
            out.append((lo, hi))
            prev_len = length
            if len(out) == count:
                return out
        prev = cur
    raise DesignError(
        f"sequence M exhausted after {len(out)} usable gaps, needed {count}"
    )
