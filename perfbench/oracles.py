"""Independent answers for the benchmark's output checks.

Nothing here imports ergolab: every expected value is recomputed from the
definitions (numpy arithmetic, brute force over small cases, or a property
the method must have), so a check can fail whatever the program returns.
Each function returns True when the program's output is right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# --------------------------------------------------------------- permutations


def _perm_array(p, n: int) -> np.ndarray | None:
    a = np.asarray(p, dtype=np.int64)
    if a.shape != (n,) or (n and (a.min() < 0 or a.max() >= n)):
        return None
    return a


def involution_triple_ok(target, s1, s2, s3) -> bool:
    """s1, s2, s3 square to the identity and s1(s2(s3(x))) = target(x)."""
    t = np.asarray(target, dtype=np.int64)
    n = t.size
    if n == 0 or _perm_array(t, n) is None:
        return False
    ident = np.arange(n)
    arrays = [_perm_array(s, n) for s in (s1, s2, s3)]
    if any(a is None or not (a[a] == ident).all() for a in arrays):
        return False
    a1, a2, a3 = arrays
    return bool((a1[a2[a3]] == t).all())


def is_single_cycle(p) -> bool:
    """The orbit of atom 0 under p covers all atoms."""
    pl = list(p)
    n = len(pl)
    if sorted(pl) != list(range(n)):
        return False
    j, steps = pl[0], 1
    while j != 0:
        j, steps = pl[j], steps + 1
    return steps == n


# --------------------------------------------------------------------- towers
# The CLI builds towers on the standard cycle T(i) = i + 1 mod n, so walk
# positions and atoms coincide.


def tower_partition_ok(n: int, h: int, base, residual) -> bool:
    """Levels T^k base (k < h) and the residual partition the n atoms."""
    cover = np.zeros(n, dtype=np.int64)
    b = np.asarray(base, dtype=np.int64)
    for k in range(h):
        np.add.at(cover, (b + k) % n, 1)
    np.add.at(cover, np.asarray(residual, dtype=np.int64), 1)
    return bool((cover == 1).all())


def roof_feasible(n: int, h: int, y) -> bool:
    """Brute force: some subset of y cuts the n-cycle into arcs of length
    divisible by h (the empty subset when h divides n)."""
    if n % h == 0:
        return True
    ys = sorted(set(y))
    for size in range(1, len(ys) + 1):
        for sub in combinations(ys, size):
            if size == 1:
                gaps = [n - 1]
            else:
                gaps = [(sub[(i + 1) % size] - sub[i] - 1) % n for i in range(size)]
            if all(g % h == 0 for g in gaps):
                return True
    return False


# ------------------------------------------------------------------- rank one


def rank_one_heights(h1: int, spacers, stages: int) -> list[int]:
    """h_1..h_stages by h_{j+1} = 2 h_j + s_j; past the given spacers the
    construction continues with the sparse tail s_j = h_j."""
    hs = [h1]
    for j in range(stages - 1):
        s = spacers[j] if j < len(spacers) else hs[-1]
        hs.append(2 * hs[-1] + s)
    return hs


def levels_at(hs, a_stage: int, levels, stage: int) -> np.ndarray:
    """A stage-a level set inside the stage-`stage` tower: S -> S + (S + h_j)."""
    s = np.asarray(sorted(levels), dtype=np.int64)
    for j in range(a_stage - 1, stage - 1):
        s = np.concatenate([s, s + hs[j]])
    return np.sort(s)


def certified_stage(h1, spacers, a_stage, levels, n_max) -> tuple[int, list[int]]:
    """Least stage >= a_stage whose tower keeps every orbit of A for n_max steps."""
    top = max(levels)
    stage = a_stage
    hs = rank_one_heights(h1, spacers, stage)
    while True:
        if top + n_max < hs[stage - 1]:
            return stage, hs
        top += hs[stage - 1]
        stage += 1
        hs = rank_one_heights(h1, spacers, stage)


def difference_counts(levels: np.ndarray, n_max: int, chunk: int = 256) -> np.ndarray:
    """counts[d] = #{(l, m) in S x S : m - l = d} for 0 <= d <= n_max."""
    counts = np.zeros(n_max + 1, dtype=np.int64)
    for start in range(0, levels.size, chunk):
        d = levels[None, :] - levels[start:start + chunk, None]
        d = d[(d >= 0) & (d <= n_max)]
        counts += np.bincount(d, minlength=n_max + 1)
    return counts


def series_ok(values, h1, spacers, a_stage, levels, n_max) -> bool:
    """values[n] = mu(T^n A & A) for n = 0..n_max, against a pairwise count
    at a certifying stage; plus mu(A) at 0 and mu(A)/2 at each stage height
    h_j (j >= a_stage) whose next spacer is at least h_j."""
    if len(values) != n_max + 1:
        return False
    stage, hs = certified_stage(h1, spacers, a_stage, levels, n_max)
    counts = difference_counts(levels_at(hs, a_stage, levels, stage), n_max)
    scale = 1 << (stage - 1)
    for n, v in enumerate(values):
        v = Fraction(v)
        if v.numerator * scale != int(counts[n]) * v.denominator:
            return False
    mu = Fraction(len(set(levels)), 1 << (a_stage - 1))
    if Fraction(values[0]) != mu:
        return False
    hs_all = rank_one_heights(h1, spacers, stage + 1)
    for j in range(a_stage, stage):
        spacer = hs_all[j] - 2 * hs_all[j - 1]
        if hs_all[j - 1] <= n_max and spacer >= hs_all[j - 1]:
            if Fraction(values[hs_all[j - 1]]) != mu / 2:
                return False
    return True


def point_correlation_ok(value, is_unstable, h1, spacers, a_stage, levels, n, stage) -> bool:
    """The documented rule for `correlation(spec, A, n, stage)`: a certified
    value (no mass of A in the top n levels of the working tower) must be
    exact; otherwise the stage and stage-1 counts must agree for a value
    to be returned, else UNSTABLE."""
    hs = rank_one_heights(h1, spacers, stage)

    def hits(st):
        s = levels_at(hs, a_stage, levels, st)
        return int(np.isin(s + n, s).sum()), int((s + n >= hs[st - 1]).sum())

    h_here, boundary = hits(stage)
    got = Fraction(h_here, 1 << (stage - 1))
    if boundary == 0:
        exact_stage, hs_exact = certified_stage(h1, spacers, a_stage, levels, n)
        s = levels_at(hs_exact, a_stage, levels, exact_stage)
        exact = Fraction(int(np.isin(s + n, s).sum()), 1 << (exact_stage - 1))
        return not is_unstable and Fraction(value) == exact == got
    if stage - 1 >= a_stage and n < hs[stage - 2]:
        prev = Fraction(hits(stage - 1)[0], 1 << (stage - 2))
        if prev == got:
            return not is_unstable and Fraction(value) == got
    return is_unstable


def term_bound(mu: Fraction, c: Fraction) -> int:
    """Largest m with mu / 2^m >= c."""
    m = 0
    while mu / 2 ** (m + 1) >= c:
        m += 1
    return m


def decomposition_ok(n, terms, remainder, bound, hs, mu, c, cap) -> bool:
    """terms = [(sign, stage)] with strictly decreasing stages; the signed
    heights plus the remainder sum back to n within the term bound."""
    if bound != term_bound(mu, c) or not terms or len(terms) > bound:
        return False
    stages = [j for _, j in terms]
    if any(a <= b for a, b in zip(stages, stages[1:])) or min(stages) < 1:
        return False
    if max(stages) > len(hs) or any(s not in (1, -1) for s, _ in terms):
        return False
    total = sum(s * hs[j - 1] for s, j in terms)
    return total + remainder == n and abs(remainder) <= cap


def gap_intervals(seq, count: int) -> list[tuple[int, int]]:
    """The first `count` (or fewer, if the sequence runs out) centered
    halves of the gaps of an increasing sequence, each kept only when
    strictly longer than the last one kept."""
    out, prev_len = [], 0
    for prev, cur in zip(seq, seq[1:]):
        gap = cur - prev - 1
        length = (gap + 1) // 2
        if length > prev_len:
            lo = prev + 1 + (gap - length) // 2
            out.append((lo, lo + length - 1))
            prev_len = length
            if len(out) == count:
                break
    return out


def spacer_design(intervals, h1: int):
    """Heights at interval midpoints, taking an interval only when its
    spacer is at least the current height. Returns (spacers, selected)."""
    hs, spacers, selected = [h1], [], []
    for i, (lo, hi) in enumerate(intervals):
        mid = (lo + hi) // 2
        s = mid - 2 * hs[-1]
        if s >= hs[-1]:
            spacers.append(s)
            hs.append(mid)
            selected.append(i)
    return spacers, selected


# ------------------------------------------------------------------ recurrence


def rotation_counts(n: int, a, a1, a2, horizon: int) -> list[int]:
    """#{x in A : x - i in A1, x - 2i in A2} for i = 1..horizon, from the
    rotation arithmetic T^-i x = x - i mod n."""
    masks = []
    for s in (a, a1, a2):
        m = np.zeros(n, dtype=bool)
        m[list(s)] = True
        masks.append(m)
    m0, m1, m2 = masks
    return [
        int((m0 & np.roll(m1, i) & np.roll(m2, 2 * i)).sum())
        for i in range(1, horizon + 1)
    ]


# ------------------------------------------------------------------ ledrappier


def read_netpbm(path: str, magic: bytes, channels: int) -> np.ndarray | None:
    """Binary PGM/PPM body as a (height, width, channels) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != magic or parts[2] != b"255":
        return None
    w, h = (int(t) for t in parts[1].split())
    body = np.frombuffer(parts[3], dtype=np.uint8)
    if body.size != w * h * channels:
        return None
    return body.reshape(h, w, channels)


def read_field(path: str) -> np.ndarray | None:
    """A PGM rendered field as 0/1 cells indexed [y, x]; None unless every
    pixel is black (0) or white (255)."""
    gray = read_netpbm(path, b"P5", 1)
    if gray is None or not ((gray == 0) | (gray == 255)).all():
        return None
    return (gray[:, :, 0] // 255).astype(np.uint8)


def harmonic_ok(cells: np.ndarray | None) -> bool:
    """Every interior cell is the mod-2 sum of its four neighbours, with
    x wrapping around."""
    if cells is None:
        return False
    mid = cells[1:-1]
    around = np.roll(mid, 1, axis=1) ^ np.roll(mid, -1, axis=1) ^ cells[2:] ^ cells[:-2]
    return bool((mid == around).all())


_HEADINGS = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}


def thread_walk(cells: np.ndarray, start, direction: str) -> list[int]:
    """Turn symbols of the documented walk: step to the white cell ahead,
    preferring straight (0), then right (+1), then left (-1); stop when
    none is white or a cell would repeat."""
    height, width = cells.shape
    dx, dy = _HEADINGS[direction]
    x, y = start[0] % width, start[1]
    seen, symbols = {(x, y)}, []
    while True:
        for sym in (0, 1, -1):
            nx, ny = (x + dx + sym * dy) % width, y + dy - sym * dx
            if 0 <= ny < height and cells[ny, nx] == 1:
                break
        else:
            return symbols
        if (nx, ny) in seen:
            return symbols
        x, y = nx, ny
        seen.add((x, y))
        symbols.append(sym)


# --------------------------------------------------------------------- mosaics

RED = (255, 0, 0)
BLUE = (0, 0, 255)


def _offsets(adjacency: int):
    if adjacency == 8:
        return [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    return [(0, -1), (-1, 0), (1, 0), (0, 1)]


def mosaic_ok(rgb: np.ndarray, k: int, adjacency: int) -> bool:
    """Every cell red or blue, blue cells isolated, red cells tiled by k x k
    blocks (the first unclaimed red cell in scan order must anchor one)."""
    h, w, _ = rgb.shape
    blue = (rgb == BLUE).all(axis=2)
    red = (rgb == RED).all(axis=2)
    if not (blue | red).all():
        return False
    for y, x in zip(*np.nonzero(blue)):
        for dx, dy in _offsets(adjacency):
            if 0 <= x + dx < w and 0 <= y + dy < h and blue[y + dy, x + dx]:
                return False
    free = red.copy()
    for y in range(h):
        for x in range(w):
            if free[y, x]:
                if y + k > h or x + k > w or not free[y:y + k, x:x + k].all():
                    return False
                free[y:y + k, x:x + k] = False
    return True


def mosaic_count(w: int, h: int, k: int, adjacency: int = 8) -> int:
    """Exhaustive count of tilings by k x k red squares and isolated blues."""
    grid = np.zeros((h, w), dtype=np.int8)  # 0 free, 1 red, 2 blue
    offs = _offsets(adjacency)

    def count_from(pos: int) -> int:
        while pos < w * h and grid[pos // w, pos % w]:
            pos += 1
        if pos == w * h:
            return 1
        y, x = divmod(pos, w)
        total = 0
        if all(
            not (0 <= x + dx < w and 0 <= y + dy < h) or grid[y + dy, x + dx] != 2
            for dx, dy in offs
        ):
            grid[y, x] = 2
            total += count_from(pos + 1)
            grid[y, x] = 0
        if y + k <= h and x + k <= w and not grid[y:y + k, x:x + k].any():
            grid[y:y + k, x:x + k] = 1
            total += count_from(pos + 1)
            grid[y:y + k, x:x + k] = 0
        return total

    return count_from(0)


def entropy(count: int, w: int, h: int) -> float:
    return 0.0 if count == 0 else math.log2(count) / (w * h)


# -------------------------------------------------------------------------- f2

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
GENERATORS = "abAB"
FAMILY = ("", "a", "b", "A", "B")


def word_product(u: str, v: str) -> str:
    """Free reduction of the concatenation uv."""
    out: list[str] = []
    for ch in u + v:
        if out and out[-1] == _INV[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def ball(radius: int) -> list[str]:
    """Reduced words of length <= radius in shortlex order (a < b < A < B)."""
    words = {""}
    for _ in range(radius):
        words |= {word_product(w, g) for w in words for g in GENERATORS}
    return sorted(words, key=lambda w: (len(w), [GENERATORS.index(c) for c in w]))


def rokhlin_family_ok(window, assignments) -> bool:
    """The translates of B by the five family elements are pairwise
    disjoint: for each pair (g, h) no assignment placed on gW agrees with
    an assignment placed on hW on the words they share."""
    index = {w: i for i, w in enumerate(window)}
    for g, h in combinations(FAMILY, 2):
        gw = {word_product(g, w): i for w, i in index.items()}
        hw = {word_product(h, w): i for w, i in index.items()}
        shared = sorted(set(gw) & set(hw))

        def project(m, where):
            return tuple(m >> where[w] & 1 for w in shared)

        if {project(m, gw) for m in assignments} & {project(m, hw) for m in assignments}:
            return False
    return True
