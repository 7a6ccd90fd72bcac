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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def inverse_word(u: str) -> str:
    return u[::-1].translate(str.maketrans("abAB", "ABab"))


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

    def index_of(self, word: str) -> int:
        return self.window.index(word)


def cylinder(constraints: dict[str, int]) -> CylinderPatternSet:
    """The single cylinder fixing the given word values."""
    window = tuple(sorted({reduce_word(w) for w in constraints}, key=_shortlex_key))
    if len(window) != len(constraints):
        raise ValueError("constraints repeat a word")
    mask = 0
    for i, w in enumerate(window):
        if constraints[w] not in (0, 1):
            raise ValueError("values must be 0 or 1")
        if constraints[w]:
            mask |= 1 << i
    return CylinderPatternSet(window, frozenset([mask]))


def local_peak(radius: int) -> CylinderPatternSet:
    """Value 1 at the identity, 0 on the rest of the radius-L ball."""
    window = ball(radius)
    mask = 1 << window.index("")
    return CylinderPatternSet(window, frozenset([mask]))


def translate(b: CylinderPatternSet, g: str) -> CylinderPatternSet:
    """Pattern set of points whose g-shift satisfies b; window becomes g*W."""
    g = reduce_word(g)
    moved = [multiply(g, w) for w in b.window]
    order = sorted(range(len(moved)), key=lambda i: _shortlex_key(moved[i]))
    window = tuple(moved[i] for i in order)
    remap = {old: new for new, old in enumerate(order)}
    assignments = []
    for m in b.assignments:
        out = 0
        for old in range(len(moved)):
            if m >> old & 1:
                out |= 1 << remap[old]
        assignments.append(out)
    return CylinderPatternSet(window, frozenset(assignments))


def _projection(
    b: CylinderPatternSet, overlap: tuple[str, ...]
) -> frozenset[int]:
    idx = [b.index_of(w) for w in overlap]
    out = set()
    for m in b.assignments:
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
    if not b1.assignments or not b2.assignments:
        return True
    overlap = tuple(sorted(set(b1.window) & set(b2.window), key=_shortlex_key))
    return not (_projection(b1, overlap) & _projection(b2, overlap))


FAMILY = ("", "a", "b", "A", "B")


@dataclass(frozen=True)
class RokhlinCertificate:
    """Disjointness verdict for the cross-shaped family of translates."""

    base: CylinderPatternSet
    translates: tuple[CylinderPatternSet, ...]  # indexed like FAMILY
    verdict: bool
    measure: Fraction

    def to_json(self, seed: int | None = None) -> str:
        target = Fraction(1, 17)
        payload = {
            "window": list(self.base.window),
            "assignments": sorted(self.base.assignments),
            "measure": {
                "num": self.measure.numerator,
                "den": self.measure.denominator,
            },
            "verdict": self.verdict,
            "upper_bound": {"num": 1, "den": 5},
            "reference_target": {"num": 1, "den": 17},
            "gap_to_target": {
                "num": (target - self.measure).numerator,
                "den": (target - self.measure).denominator,
            },
            "seed": seed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def verify_rokhlin_family(b: CylinderPatternSet) -> RokhlinCertificate:
    """Check the ten pairwise disjointness constraints of the cross family."""
    translates = tuple(translate(b, g) for g in FAMILY)
    verdict = all(
        disjoint(translates[i], translates[j])
        for i, j in combinations(range(len(FAMILY)), 2)
    )
    return RokhlinCertificate(b, translates, verdict, b.measure)


class _FamilyConstraints:
    """Incremental projections for the ten disjointness constraints."""

    def __init__(self, window: tuple[str, ...]):
        self.window = window
        self.pairs = []
        for gi, hi in combinations(range(len(FAMILY)), 2):
            g, h = FAMILY[gi], FAMILY[hi]
            gw = {multiply(g, w): i for i, w in enumerate(window)}
            hw = {multiply(h, w): i for i, w in enumerate(window)}
            overlap = sorted(set(gw) & set(hw), key=_shortlex_key)
            g_idx = tuple(gw[w] for w in overlap)
            h_idx = tuple(hw[w] for w in overlap)
            self.pairs.append((g_idx, h_idx, set(), set()))

    @staticmethod
    def _extract(mask: int, idx: tuple[int, ...]) -> int:
        v = 0
        for pos, i in enumerate(idx):
            if mask >> i & 1:
                v |= 1 << pos
        return v

    def can_add(self, mask: int) -> bool:
        for g_idx, h_idx, g_seen, h_seen in self.pairs:
            vg = self._extract(mask, g_idx)
            vh = self._extract(mask, h_idx)
            if vg == vh or vg in h_seen or vh in g_seen:
                return False
        return True

    def add(self, mask: int) -> None:
        for g_idx, h_idx, g_seen, h_seen in self.pairs:
            g_seen.add(self._extract(mask, g_idx))
            h_seen.add(self._extract(mask, h_idx))


def _climb(window: tuple[str, ...], start: frozenset[int], budget: int, seed: int):
    rng = random.Random(seed)
    cons = _FamilyConstraints(window)
    members: set[int] = set()
    for m in sorted(start):
        if cons.can_add(m):
            cons.add(m)
            members.add(m)
    top = 1 << len(window)
    for _ in range(budget):
        m = rng.randrange(top)
        if m in members:
            continue
        if cons.can_add(m):
            cons.add(m)
            members.add(m)
    return members


def search_best(radius: int, budget: int, seed: int) -> RokhlinCertificate:
    """Seeded hill climbing over radius-L predicates under the ten constraints.

    Starts from the local-peak baseline; each of the RESTARTS climbs consumes
    an equal share of the budget with its own derived seed. Of the baseline
    and the climbs, only non-empty sets that `verify_rokhlin_family` accepts
    are candidates; the best wins by measure, ties by lexicographically least
    assignment tuple, and the returned certificate is re-verified from
    scratch. Raises Infeasible when no candidate remains (at radius 1 the
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
        found += [_climb(window, base.assignments, share, s) for s in seeds]
    candidates = [
        p for p in found
        if p and verify_rokhlin_family(CylinderPatternSet(window, frozenset(p))).verdict
    ]
    if not candidates:
        raise Infeasible(
            f"no verified non-empty Rokhlin family at radius {radius}"
        )
    # deterministic merge: largest measure, ties by least assignment tuple
    best = min(candidates, key=lambda p: (-len(p), tuple(sorted(p))))
    cert = verify_rokhlin_family(CylinderPatternSet(window, frozenset(best)))
    if not cert.verdict:
        raise AssertionError("search produced an unverifiable certificate")
    return cert
