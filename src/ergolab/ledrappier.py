"""Harmonic GF(2) fields on a cylinder: sampling, checks and threads.

A field assigns 0/1 to cells (x, y) with x wrapping modulo the width and y
free; at every interior cell the value equals the mod-2 sum of its four
neighbours. Sampling fills the two bottom rows uniformly and propagates
upward, which satisfies the relation by construction.

Fields grow as packed rows: row y is one w-bit int whose bit x is cell
(x, y), so a roll of the row by +-1 is a rotate of its word and the next row
is ``row ^ rotl(row) ^ rotr(row) ^ prev``. The two seed rows are packed
into words, and all words unpacked once into the uint8 cell array, by
`_bits`.

The thread-walking rule here (move to the unique white cell among
ahead-left/ahead/ahead-right, preferring forward, then right, then left) is
one deterministic formalization of the visually thread-like traces; the
notion has no canonical definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits


@dataclass(frozen=True, eq=False)
class HarmonicField:
    """GF(2) cells indexed [y, x]; x wraps (cylinder), y is free. Equality
    is identity.

    Caller cells are checked to be a 2-D array of 0/1 values.
    `field_from_rows` builds its field through `_built` without that check:
    it unpacks its cells bit by bit, so each is 0 or 1 by construction.
    """

    cells: np.ndarray

    def __post_init__(self):
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if not _binary(self.cells):
            raise ValueError("cells must be 0/1 valued")

    @classmethod
    def _built(cls, cells: np.ndarray) -> HarmonicField:
        """The field of a 2-D array of 0/1 cells, taken as it is."""
        field = object.__new__(cls)
        object.__setattr__(field, "cells", cells)
        return field

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
    """Deterministic field grown from two given bottom rows.

    Each row is held as one w-bit int, bit x standing for cell x; a roll by
    +-1 is a rotate of that word, with the wrap bit carried across. All rows
    are unpacked once, at the end, into the (height, w) uint8 cells.
    """
    r0 = np.asarray(row0, dtype=np.uint8)
    r1 = np.asarray(row1, dtype=np.uint8)
    if r0.shape != r1.shape or r0.ndim != 1:
        raise ValueError("rows must be 1-D of equal length")
    if height < 2:
        raise ValueError("need height >= 2")
    width = r0.size
    # allocated before the rows are checked or grown: a height that is not an
    # int, or too large to hold, fails here
    cells = np.empty((height, width), dtype=np.uint8)
    # packing would read any nonzero byte as 1
    if not (_binary(r0) and _binary(r1)):
        raise ValueError("cells must be 0/1 valued")
    mask = (1 << width) - 1
    top = max(width - 1, 0)  # width 0 has no wrap bit
    prev, row = _bits.pack(r0), _bits.pack(r1)
    words = [prev, row]
    for _ in range(height - 2):
        rotl = ((row << 1) & mask) | (row >> top)
        rotr = (row >> 1) | ((row & 1) << top)
        prev, row = row, row ^ rotl ^ rotr ^ prev
        words.append(row)
    cells[:] = _bits.unpack(words, width)
    return HarmonicField._built(cells)


def _binary(a: np.ndarray) -> bool:
    """Every entry equals 0 or 1: np.isin(a, (0, 1)).all() at a fraction of
    its cost."""
    return bool(((a == 0) | (a == 1)).all())


def _cross_holds(cells: np.ndarray, d: int) -> bool:
    """Every cell with rows d below and above equals the mod-2 sum of the
    four cells at horizontal and vertical distance d (x wraps)."""
    mid = cells[d:-d]
    ends = cells[2 * d:] ^ cells[:-2 * d]
    total = np.roll(mid, d, axis=1) ^ np.roll(mid, -d, axis=1) ^ ends
    return bool((mid == total).all())


def verify_harmonicity(field: HarmonicField) -> bool:
    """True iff every interior cell equals the mod-2 sum of its neighbours."""
    return field.height < 3 or _cross_holds(field.cells, 1)


def power_identity_check(field: HarmonicField, k: int) -> bool:
    """Check the distance-2^k cross relation wherever all five cells exist.

    Squaring the neighbourhood stencil over GF(2) kills all cross terms, so
    a harmonic field satisfies the same relation at horizontal and vertical
    distance 2^k for every k >= 0 the grid can accommodate.
    """
    if k < 0:
        raise ValueError(f"exponent k = {k} must be non-negative")
    d = 2 ** k
    if 2 * d >= field.width or 2 * d >= field.height:
        raise ValueError(f"distance 2^{k} = {d} too large for the grid")
    return _cross_holds(field.cells, d)


def power_checks(field: HarmonicField) -> dict[int, bool]:
    """`power_identity_check` at every k the grid holds, keyed by k.

    k runs while 2^(k+1) < m = min(width, height), that is while
    k + 1 < (m - 1).bit_length(); no k fits when m <= 2.
    """
    top = (min(field.width, field.height) - 1).bit_length() - 1
    return {k: power_identity_check(field, k) for k in range(top)}


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
    width, height, cells = field.width, field.height, field.cells
    x, y = start
    x %= width
    if not 0 <= y < height or cells[y, x] != 1:
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
            nx = (x + dx + sym * px) % width
            ny = y + dy + sym * py
            if not 0 <= ny < height:
                continue
            if cells[ny, nx] == 1:
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
    """Longest upward trace over sampled white starts, plus its coverage;
    ValueError for fewer than one sample. A trace never repeats a cell, so
    a trace of length L covers L + 1 of the white cells."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    ys, xs = np.nonzero(field.cells)
    whites = len(xs)
    if whites == 0:
        return {"max_len": 0, "coverage_fraction": 0.0, "seed": seed}
    max_len = max(trace_thread(field, (int(xs[i]), int(ys[i])), "up").length
                  for i in rng.integers(0, whites, size=samples))
    return {"max_len": max_len, "coverage_fraction": (max_len + 1) / whites, "seed": seed}

