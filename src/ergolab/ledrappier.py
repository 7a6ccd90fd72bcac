"""Harmonic GF(2) fields on a cylinder: sampling, checks, threads, rendering.

A field assigns 0/1 to cells (x, y) with x wrapping modulo the width and y
free; at every interior cell the value equals the mod-2 sum of its four
neighbours. Sampling fills the two bottom rows uniformly and propagates
upward, which satisfies the relation by construction.

The thread-walking rule here (move to the unique white cell among
ahead-left/ahead/ahead-right, preferring forward, then right, then left) is
one deterministic formalization of the visually thread-like traces; the
notion has no canonical definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HarmonicField:
    """GF(2) cells indexed [y, x]; x wraps (cylinder), y is free."""

    cells: np.ndarray

    def __post_init__(self):
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if not np.isin(self.cells, (0, 1)).all():
            raise ValueError("cells must be 0/1 valued")

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def __getitem__(self, xy: tuple[int, int]) -> int:
        x, y = xy
        return int(self.cells[y, x % self.width])


def sample_field(width: int, height: int, seed: int) -> HarmonicField:
    """Random harmonic field: two seed rows, then upward propagation."""
    if width < 3 or height < 2:
        raise ValueError("need width >= 3 and height >= 2")
    rng = np.random.default_rng(seed)
    row0 = rng.integers(0, 2, size=width, dtype=np.uint8)
    row1 = rng.integers(0, 2, size=width, dtype=np.uint8)
    return field_from_rows(row0, row1, height)


def field_from_rows(row0, row1, height: int) -> HarmonicField:
    """Deterministic field grown from two given bottom rows."""
    r0 = np.asarray(row0, dtype=np.uint8)
    r1 = np.asarray(row1, dtype=np.uint8)
    if r0.shape != r1.shape or r0.ndim != 1:
        raise ValueError("rows must be 1-D of equal length")
    if height < 2:
        raise ValueError("need height >= 2")
    cells = np.zeros((height, r0.size), dtype=np.uint8)
    cells[0], cells[1] = r0, r1
    for y in range(1, height - 1):
        row = cells[y]
        cells[y + 1] = row ^ np.roll(row, 1) ^ np.roll(row, -1) ^ cells[y - 1]
    return HarmonicField(cells)


def verify_harmonicity(field: HarmonicField) -> bool:
    """True iff every interior cell equals the mod-2 sum of its neighbours."""
    c = field.cells
    if field.height < 3:
        return True
    mid = c[1:-1]
    total = (
        np.roll(mid, 1, axis=1)
        ^ np.roll(mid, -1, axis=1)
        ^ c[2:]
        ^ c[:-2]
    )
    return bool((mid == total).all())


def power_identity_check(field: HarmonicField, k: int) -> bool:
    """Check the distance-2^k cross relation wherever all five cells exist.

    Squaring the neighbourhood stencil over GF(2) kills all cross terms, so
    a harmonic field satisfies the same relation at horizontal and vertical
    distance 2^k for every k the grid can accommodate.
    """
    d = 2 ** k
    if 2 * d >= field.width or 2 * d >= field.height:
        raise ValueError(f"distance 2^{k} = {d} too large for the grid")
    c = field.cells
    mid = c[d:-d]
    total = (
        np.roll(mid, d, axis=1)
        ^ np.roll(mid, -d, axis=1)
        ^ c[2 * d:]
        ^ c[: -2 * d]
    )
    return bool((mid == total).all())


_HEADINGS = {
    "up": (0, 1),
    "down": (0, -1),
    "left": (-1, 0),
    "right": (1, 0),
}


@dataclass(frozen=True)
class ThreadTrace:
    """A walk along white cells emitting turn symbols -1 (left), 0, +1 (right)."""

    start: tuple[int, int]
    direction: str
    symbols: tuple[int, ...]
    path: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.symbols)

    def to_csv(self) -> str:
        lines = ["step,symbol"]
        for i, s in enumerate(self.symbols):
            lines.append(f"{i},{s}")
        return "\n".join(lines) + "\n"


def trace_thread(
    field: HarmonicField, start: tuple[int, int], direction: str
) -> ThreadTrace:
    """Walk from a white cell along white cells in a fixed heading.

    Each step inspects the three cells one row (or column) ahead; the walk
    moves to the white one, preferring straight ahead (0), then right (+1),
    then left (-1), and stops when none is white, the move leaves the grid
    vertically, or a cell repeats (possible for horizontal headings on the
    wrapped axis).
    """
    if direction not in _HEADINGS:
        raise ValueError(f"direction must be one of {sorted(_HEADINGS)}")
    x, y = start
    x %= field.width
    if not 0 <= y < field.height or field[x, y] != 1:
        raise ValueError("start cell must be white (value 1)")
    dx, dy = _HEADINGS[direction]
    # clockwise perpendicular: +1 steps to the right of the heading
    px, py = dy, -dx
    symbols: list[int] = []
    path = [(x, y)]
    seen = {(x, y)}
    while True:
        step = None
        for sym in (0, 1, -1):
            nx = (x + dx + sym * px) % field.width
            ny = y + dy + sym * py
            if not 0 <= ny < field.height:
                continue
            if field.cells[ny, nx] == 1:
                step = (sym, nx, ny)
                break
        if step is None:
            break
        sym, x, y = step
        if (x, y) in seen:
            break
        symbols.append(sym)
        path.append((x, y))
        seen.add((x, y))
    return ThreadTrace((path[0][0], path[0][1]), direction, tuple(symbols), tuple(path))


def thread_statistics(field: HarmonicField, samples: int, seed: int) -> dict:
    """Longest upward trace over sampled white starts, plus its coverage."""
    rng = np.random.default_rng(seed)
    ys, xs = np.nonzero(field.cells)
    whites = len(xs)
    if whites == 0 or samples <= 0:
        return {"max_len": 0, "coverage_fraction": 0.0, "seed": seed}
    best: ThreadTrace | None = None
    for idx in rng.integers(0, whites, size=samples):
        trace = trace_thread(field, (int(xs[idx]), int(ys[idx])), "up")
        if best is None or trace.length > best.length:
            best = trace
    assert best is not None
    return {
        "max_len": best.length,
        "coverage_fraction": len(set(best.path)) / whites,
        "seed": seed,
    }


def statistics_json(stats: dict) -> str:
    return json.dumps(stats, sort_keys=True) + "\n"


def render_pgm(field: HarmonicField, path: str) -> None:
    """Binary PGM (P5), white (255) for value 1, black for 0."""
    header = f"P5\n{field.width} {field.height}\n255\n".encode("ascii")
    body = (field.cells * np.uint8(255)).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + body)
