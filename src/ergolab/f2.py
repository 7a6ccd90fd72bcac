"""Exact cylinder-set calculus over the Bernoulli shift of the free group.

Words over generators a, b use the letters a, b, A, B with A and B the
inverses; reduced means no adjacent inverse pairs. A pattern set is given
by a finite window of reduced words plus the explicit set of satisfying
0/1 assignments (one bitmask per assignment, bit i for window word i), so
its measure is exactly |assignments| / 2^|window|.

The shift convention follows the coordinate action x(g) -> x(a g):
translate(B, g) is the set of points whose g-shift lies in B, which carries
window W to g*W and transports assignments wordwise. Composing translates
then satisfies translate(translate(B, g), h) = translate(B, h*g).

Moving assignments between windows is one bit gather, `_gather_bits`:
`translate` reorders each mask into the shortlex order of g*W, and
`disjoint` projects each mask onto the words two windows share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import CapExceeded, Infeasible

GENERATORS = ("a", "b", "A", "B")
ASSIGNMENT_CAP = 1 << 17
WINDOW_CAP = 64
RESTARTS = 4

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def reduce_word(letters: str) -> str:
    stack: list[str] = []
    for ch in letters:
        if ch not in _INVERSE:
            raise ValueError(f"bad letter {ch!r}; use a, b, A, B")
        if stack and stack[-1] == _INVERSE[ch]:
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


def multiply(u: str, v: str) -> str:
    """Reduced product of two reduced words."""
    return reduce_word(u + v)


def _shortlex_key(w: str) -> tuple[int, tuple[int, ...]]:
    return (len(w), tuple(GENERATORS.index(c) for c in w))


def ball(radius: int) -> tuple[str, ...]:
    """All reduced words of length <= radius, in shortlex order."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    words = [""]
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in GENERATORS:
                v = multiply(w, g)
                if len(v) == len(w) + 1:
                    nxt.append(v)
        words.extend(nxt)
        frontier = nxt
    return tuple(sorted(words, key=_shortlex_key))


@dataclass(frozen=True)
class CylinderPatternSet:
    """Finite-window event with an explicit satisfying-assignment set."""

    window: tuple[str, ...]
    assignments: frozenset[int]

    def __post_init__(self):
        if list(self.window) != sorted(set(self.window), key=_shortlex_key):
            raise ValueError("window must be shortlex-sorted and duplicate-free")
        top = 1 << len(self.window)
        if any(not 0 <= m < top for m in self.assignments):
            raise ValueError("assignment bitmask out of range for the window")
        if len(self.assignments) > ASSIGNMENT_CAP:
            raise CapExceeded(
                f"{len(self.assignments)} assignments exceed cap {ASSIGNMENT_CAP}"
            )

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.assignments), 1 << len(self.window))


def cylinder(constraints: dict[str, int]) -> CylinderPatternSet:
    """The single cylinder fixing the given word values."""
    values = {reduce_word(w): v for w, v in constraints.items()}
    if len(values) != len(constraints):
        raise ValueError("constraints repeat a word")
    if any(v not in (0, 1) for v in values.values()):
        raise ValueError("values must be 0 or 1")
    window = tuple(sorted(values, key=_shortlex_key))
    mask = sum(1 << i for i, w in enumerate(window) if values[w])
    return CylinderPatternSet(window, frozenset([mask]))


def local_peak(radius: int) -> CylinderPatternSet:
    """Value 1 at the identity, 0 on the rest of the radius-L ball; CapExceeded
    before building a ball (2*3^L - 1 words) past WINDOW_CAP, as no pair of
    its translates would fit one merged window."""
    if 2 * 3 ** min(radius, WINDOW_CAP) - 1 > WINDOW_CAP:  # never a huge 3^L
        raise CapExceeded(f"the radius-{radius} ball exceeds the window cap {WINDOW_CAP}")
    window = ball(radius)
    mask = 1 << window.index("")
    return CylinderPatternSet(window, frozenset([mask]))


def translate(b: CylinderPatternSet, g: str) -> CylinderPatternSet:
    """Pattern set of points whose g-shift satisfies b; window becomes g*W."""
    g = reduce_word(g)
    moved = [multiply(g, w) for w in b.window]
    order = sorted(range(len(moved)), key=lambda i: _shortlex_key(moved[i]))
    window = tuple(moved[i] for i in order)
    return CylinderPatternSet(window, _gather_bits(b.assignments, order))


def _gather_bits(masks: frozenset[int], idx: list[int]) -> frozenset[int]:
    """The masks with output bit pos read from input bit idx[pos]."""
    out = set()
    for m in masks:
        v = 0
        for pos, i in enumerate(idx):
            if m >> i & 1:
                v |= 1 << pos
        out.add(v)
    return frozenset(out)


def disjoint(b1: CylinderPatternSet, b2: CylinderPatternSet) -> bool:
    """Exact emptiness of the intersection, via the merged window.

    Two pattern sets intersect iff some pair of assignments agrees on the
    window overlap; projecting both assignment sets onto the overlap and
    intersecting decides it without enumerating the merged window.
    """
    merged = set(b1.window) | set(b2.window)
    if len(merged) > WINDOW_CAP:
        raise CapExceeded(f"merged window of {len(merged)} words exceeds cap")
    overlap = sorted(set(b1.window) & set(b2.window), key=_shortlex_key)
    p1, p2 = (_gather_bits(b.assignments, [b.window.index(w) for w in overlap])
              for b in (b1, b2))
    return not (p1 & p2)


FAMILY = ("", "a", "b", "A", "B")


@dataclass(frozen=True)
class RokhlinCertificate:
    """Disjointness verdict for the cross-shaped family of translates."""

    base: CylinderPatternSet
    verdict: bool
    measure: Fraction


def verify_rokhlin_family(b: CylinderPatternSet) -> RokhlinCertificate:
    """Check the ten pairwise disjointness constraints of the cross family."""
    translates = tuple(translate(b, g) for g in FAMILY)
    verdict = all(
        disjoint(translates[i], translates[j])
        for i, j in combinations(range(len(FAMILY)), 2)
    )
    return RokhlinCertificate(b, verdict, b.measure)


def _family_projection(window: tuple[str, ...]):
    """Weights, tags and byte tables that project window bit rows onto the
    20 constraint sides.

    For the j-th pair (g, h) of FAMILY, column j reads the g side and column
    10 + j the h side: the window words whose g- (or h-) translate lies in the
    overlap gW & hW, one bit per overlap word in shortlex order. Both sides
    carry the tag j << len(window), so a key names its constraint as well as
    its overlap values, and one set of keys per side serves all ten pairs.
    Table b has a row for each value v of a mask's byte b: the weights of
    v's set bits summed, plus the tags in table 0, so a mask's keys are one
    row of each table summed.
    """
    pairs = list(combinations(FAMILY, 2))
    weights = np.zeros((len(window), 2 * len(pairs)), dtype=np.int64)
    for j, (g, h) in enumerate(pairs):
        gw = {multiply(g, w): i for i, w in enumerate(window)}
        hw = {multiply(h, w): i for i, w in enumerate(window)}
        overlap = sorted(set(gw) & set(hw), key=_shortlex_key)
        for pos, w in enumerate(overlap):
            weights[gw[w], j] = 1 << pos
            weights[hw[w], len(pairs) + j] = 1 << pos
    tags = np.tile(np.arange(len(pairs), dtype=np.int64) << len(window), 2)
    tables = []
    for lo in range(0, len(window), 8):
        rows = weights[lo:lo + 8]
        bits = np.arange(1 << len(rows))[:, None] >> np.arange(len(rows)) & 1
        tables.append(bits @ rows)
    tables[0] += tags
    return weights, tags, tables


def _side_keys(projection, masks):
    """Masks (an int64 array or a list of ints) that avoid their own
    translates, with their g-side and h-side keys.

    One batch: one byte-table row per byte of each mask, summed, gives every
    side's overlap value. A mask whose two sides agree on some pair meets its
    own translate, whatever else is in the set, so it is dropped here.
    """
    tables = projection[2]
    arr = np.asarray(masks, dtype=np.int64)
    keys = tables[0][arr & 255]
    for b, table in enumerate(tables[1:], 1):
        keys += table[arr >> 8 * b & 255]
    half = keys.shape[1] // 2
    g_keys, h_keys = keys[:, :half], keys[:, half:]
    fine = (g_keys != h_keys).all(axis=1)
    return arr[fine].tolist(), g_keys[fine].tolist(), h_keys[fine].tolist()


def _draws(rng: random.Random, top: int, count: int) -> np.ndarray:
    """[rng.randrange(top) for _ in range(count)] as an int64 array, for
    1 <= top <= 2^31, from whole 32-bit outputs of the generator.

    randrange(top) repeats getrandbits(k), k = top.bit_length(), until the
    value is below top, and for k <= 32 getrandbits(k) is the top k bits of
    one 32-bit output; getrandbits(32 m) holds m consecutive outputs, the
    first in the lowest bits. So words are drawn in batches, shifted, and
    kept when below top; the words drawn past the last kept value are
    never read."""
    shift = 32 - top.bit_length()
    kept = np.empty(0, np.uint32)
    while kept.size < count:
        m = 2 * (count - kept.size) + 16  # at least half the words are kept
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        words = words >> shift
        kept = np.concatenate([kept, words[words < top]])
    return kept[:count].astype(np.int64)


def _climb(projection, start: frozenset[int], budget: int, seed: int):
    """Greedy set of masks: the start masks in order, then `budget` seeded
    draws over the window (`_draws`); a mask joins when no member's g side
    shares a key with its h side and no member's h side shares a key with
    its g side."""
    top = 1 << len(projection[0])
    masks = np.concatenate([np.array(sorted(start), np.int64),
                            _draws(random.Random(seed), top, budget)])
    members: set[int] = set()
    g_seen: set[int] = set()
    h_seen: set[int] = set()
    for m, g_keys, h_keys in zip(*_side_keys(projection, masks)):
        if h_seen.isdisjoint(g_keys) and g_seen.isdisjoint(h_keys):
            g_seen.update(g_keys)
            h_seen.update(h_keys)
            members.add(m)
    return members


def search_best(radius: int, budget: int, seed: int) -> RokhlinCertificate:
    """Seeded hill climbing over radius-L predicates under the ten constraints.

    Starts from the local-peak baseline; each of the RESTARTS climbs draws
    budget // RESTARTS proposals with its own derived seed, so the remainder
    budget % RESTARTS is never drawn and budgets 1 to RESTARTS - 1 return the
    baseline. The baseline and the climbs' non-empty sets are ranked by
    measure, ties by lexicographically least assignment tuple, and
    `verify_rokhlin_family` checks them in that order: the first that passes
    is returned. Raises Infeasible when none passes (at radius 1 the
    baseline fails and no single assignment avoids its own translates).
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if radius > 2:
        raise CapExceeded(
            "radius > 2 needs a pruned predicate representation; cap is 2"
        )
    if budget < 0:
        raise ValueError("budget must be non-negative")
    base = local_peak(radius)
    window = base.window
    found = [set(base.assignments)]
    if budget > 0:
        share = budget // RESTARTS
        master = random.Random(seed)
        seeds = [master.randrange(2 ** 32) for _ in range(RESTARTS)]
        projection = _family_projection(window)
        found += [_climb(projection, base.assignments, share, s) for s in seeds]
    ranked = sorted({tuple(sorted(p)) for p in found if p}, key=lambda t: (-len(t), t))
    for p in ranked:
        cert = verify_rokhlin_family(CylinderPatternSet(window, frozenset(p)))
        if cert.verdict:
            return cert
    raise Infeasible(f"no verified non-empty Rokhlin family at radius {radius}")
