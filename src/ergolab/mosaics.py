"""Tilings by k-by-k red squares and isolated 1-by-1 blue squares.

Blue cells must not touch, where touching defaults to 8-adjacency (corner
contact counts); 4-adjacency is available behind a flag since the intended
reading is not pinned down. Counting is exact (big integers) via a transfer
map over interface profiles: per column, the overhang depth of red tiles
crossing the current row boundary and the blue flags of the previous row.

With free boundaries a board has at most one mosaic, for either adjacency:
one blue cell on the 1-by-1 board, else the aligned k-by-k grid when k
divides both sides. Proof: a single row or column of length >= 2 would be
all blue, which fails. Take w, h >= 2 and suppose (0, y) is blue. Then
(1, y) is red, so its tile is anchored at column 1 and reaches row y-1 or
y+1. Column 0's cell in that row touches (0, y), so it is red; its tile is
anchored at column 0 and covers column 1 there too: the tiles overlap. So
column 0 holds no blue; it is a stack of tiles over columns 0..k-1, and the
rest is a mosaic of width w-k. `count_mosaics` does not assume this; it is
the reference the generator is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceeded, Infeasible

BLUE = -1
WIDTH_CAP = 12


@dataclass(frozen=True)
class Mosaic:
    """Grid of cell labels: BLUE or a red tile id (anchored k-by-k block)."""

    width: int
    height: int
    k: int
    cells: tuple[tuple[int, ...], ...]  # rows of labels, cells[y][x]
    adjacency: int = 8


def _neighbors(x: int, y: int, w: int, h: int, adjacency: int):
    if adjacency == 8:
        offs = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
    else:
        offs = ((0, -1), (-1, 0), (1, 0), (0, 1))
    for dx, dy in offs:
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h:
            yield nx, ny


def validate_mosaic(mosaic: Mosaic) -> bool:
    """Independent check: reds partition into k-by-k blocks, blues isolated."""
    w, h, k = mosaic.width, mosaic.height, mosaic.k
    grid = [list(row) for row in mosaic.cells]
    if len(grid) != h or any(len(r) != w for r in grid):
        return False
    claimed = [[False] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            lab = grid[y][x]
            if lab == BLUE:
                claimed[y][x] = True
                for nx, ny in _neighbors(x, y, w, h, mosaic.adjacency):
                    if grid[ny][nx] == BLUE:
                        return False
            elif lab < BLUE:
                return False
    # greedy block check: first unclaimed red cell must anchor a full block
    for y in range(h):
        for x in range(w):
            if claimed[y][x]:
                continue
            if x + k > w or y + k > h:
                return False
            tile = grid[y][x]
            for yy in range(y, y + k):
                for xx in range(x, x + k):
                    if claimed[yy][xx] or grid[yy][xx] != tile:
                        return False
                    claimed[yy][xx] = True
    return True


def _check_board(width: int, height: int, k: int, adjacency: int) -> None:
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    if width < 1 or height < 1:
        raise ValueError("board must be non-empty")
    if adjacency not in (4, 8):
        raise ValueError("adjacency must be 4 or 8")


def generate_mosaic(width: int, height: int, k: int, adjacency: int = 8) -> Mosaic:
    """The board's only mosaic, tile ids in scanline order; raises Infeasible."""
    _check_board(width, height, k, adjacency)
    if width == height == 1:
        return Mosaic(1, 1, k, ((BLUE,),), adjacency)
    if width % k or height % k:
        raise Infeasible(f"no {width}x{height} mosaic with k={k}")
    cols = width // k
    cells = tuple(
        tuple(y // k * cols + x // k for x in range(width)) for y in range(height)
    )
    return Mosaic(width, height, k, cells, adjacency)


def _row_transitions(state, w, k, adjacency):
    """All ways to fill the next row given (overhangs, previous blues); a
    tile crossing the bottom edge is rejected by the final zero-overhang filter."""
    overhang, prev_blue = state
    out = []

    def place(x, depth, row_blue):
        if x == w:
            out.append((tuple(depth), tuple(row_blue)))
            return
        if overhang[x] > 0:
            depth[x] = overhang[x] - 1
            place(x + 1, depth, row_blue)
            depth[x] = 0
            return
        # blue cell: left neighbour and the cell above always conflict;
        # 8-adjacency adds the two diagonals of the previous row
        ok = not prev_blue[x] and not (x > 0 and row_blue[x - 1])
        if ok and adjacency == 8:
            if x > 0 and prev_blue[x - 1]:
                ok = False
            if ok and x + 1 < w and prev_blue[x + 1]:
                ok = False
        if ok:
            row_blue[x] = 1
            place(x + 1, depth, row_blue)
            row_blue[x] = 0
        # new k-by-k tile anchored here
        if x + k <= w and all(overhang[x + i] == 0 for i in range(k)):
            for i in range(k):
                depth[x + i] = k - 1
            place(x + k, depth, row_blue)
            for i in range(k):
                depth[x + i] = 0

    place(0, [0] * w, [0] * w)
    return out


def count_mosaics(width: int, height: int, k: int, adjacency: int = 8) -> int:
    """Exact tiling count via the interface-profile transfer map."""
    _check_board(width, height, k, adjacency)
    if width > WIDTH_CAP:
        raise CapExceeded(f"width {width} exceeds transfer cap {WIDTH_CAP}")
    start = ((0,) * width, (0,) * width)
    counts = {start: 1}
    cache: dict = {}
    for _ in range(height):
        nxt: dict = {}
        for state, c in counts.items():
            if state not in cache:
                cache[state] = _row_transitions(state, width, k, adjacency)
            for ns in cache[state]:
                nxt[ns] = nxt.get(ns, 0) + c
        counts = nxt
    total = 0
    for (overhang, _), c in counts.items():
        if all(d == 0 for d in overhang):
            total += c
    return total


def entropy_profile(
    sizes: list[tuple[int, int]], k: int, adjacency: int = 8
) -> list[tuple[int, int, float]]:
    """Per-site entropy log2(count)/(w*h) for each (w, h) board."""
    out = []
    for w, h in sizes:
        c = count_mosaics(w, h, k, adjacency)
        ent = 0.0 if c == 0 else math.log2(c) / (w * h)
        out.append((w, h, ent))
    return out


def spin_map(mosaic: Mosaic) -> dict:
    """Spins for the k=2 family: +1 on even lattice phase, -1 on odd.

    The diagnostic |#(+1) - #(-1)| / #blue measures how far the blues are
    from a single-phase (quasicrystal-like) arrangement.
    """
    if mosaic.k != 2:
        raise ValueError("spins are defined for the k=2 family only")
    spins = {}
    plus = minus = 0
    for y in range(mosaic.height):
        for x in range(mosaic.width):
            if mosaic.cells[y][x] == BLUE:
                s = 1 if (x + y) % 2 == 0 else -1
                spins[(x, y)] = s
                if s > 0:
                    plus += 1
                else:
                    minus += 1
    blues = plus + minus
    diag = abs(plus - minus) / blues if blues else 0.0
    return {"spins": spins, "plus": plus, "minus": minus, "diagnostic": diag}

