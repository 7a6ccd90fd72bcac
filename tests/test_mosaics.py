import pytest

from ergolab import cli
from ergolab import mosaics as mo
from ergolab.errors import CapExceeded, Infeasible

BLUE = mo.BLUE


def brute_force_count(w, h, k, adjacency=8):
    """Exhaustive scanline enumeration with direct grid checks; the counting
    authority for small boards."""
    grid = [[None] * w for _ in range(h)]

    def blue_ok(x, y):
        if adjacency == 8:
            offs = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
        else:
            offs = [(0, -1), (-1, 0), (1, 0), (0, 1)]
        for dx, dy in offs:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and grid[ny][nx] == BLUE:
                return False
        return True

    def red_ok(x, y):
        if x + k > w or y + k > h:
            return False
        return all(
            grid[yy][xx] is None for yy in range(y, y + k) for xx in range(x, x + k)
        )

    def count_from(pos):
        while pos < w * h and grid[pos // w][pos % w] is not None:
            pos += 1
        if pos == w * h:
            return 1
        y, x = divmod(pos, w)
        total = 0
        if blue_ok(x, y):
            grid[y][x] = BLUE
            total += count_from(pos + 1)
            grid[y][x] = None
        if red_ok(x, y):
            for yy in range(y, y + k):
                for xx in range(x, x + k):
                    grid[yy][xx] = 0
            total += count_from(pos + 1)
            for yy in range(y, y + k):
                for xx in range(x, x + k):
                    grid[yy][xx] = None
        return total

    return count_from(0)


def test_count_matches_brute_force_small_boards():
    for k in (2, 3):
        for w in range(1, 7):
            for h in range(1, 7):
                expected = brute_force_count(w, h, k)
                assert mo.count_mosaics(w, h, k) == expected, (w, h, k)


def test_count_matches_brute_force_4_adjacency():
    for k in (2, 3):
        for w in range(1, 6):
            for h in range(1, 6):
                expected = brute_force_count(w, h, k, adjacency=4)
                assert mo.count_mosaics(w, h, k, adjacency=4) == expected, (w, h, k)


def test_count_anchor_values():
    assert mo.count_mosaics(3, 3, 3) == 1
    assert mo.count_mosaics(4, 4, 3) == 0
    assert mo.count_mosaics(1, 1, 2) == 1
    # the brute force is the authority for the 2x2 board: only the red tile
    assert brute_force_count(2, 2, 2) == 1
    assert mo.count_mosaics(2, 2, 2) == 1


def test_count_single_column_closed_form():
    # width 1: no tile fits, blues may not stack, so only the 1x1 board works
    for k in (2, 3):
        assert mo.count_mosaics(1, 1, k) == 1
        for h in range(2, 10):
            assert mo.count_mosaics(1, h, k) == 0


def test_count_transpose_symmetry():
    for k in (2, 3):
        for w in range(1, 7):
            for h in range(1, 7):
                assert mo.count_mosaics(w, h, k) == mo.count_mosaics(h, w, k)


def test_count_width_cap():
    with pytest.raises(CapExceeded):
        mo.count_mosaics(mo.WIDTH_CAP + 1, 3, 2)


def test_generate_examples():
    m = mo.generate_mosaic(3, 3, 3)
    assert m.cells == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert mo.validate_mosaic(m)

    with pytest.raises(Infeasible):
        mo.generate_mosaic(4, 4, 3)

    m = mo.generate_mosaic(1, 1, 3)
    assert m.cells == ((BLUE,),)
    assert mo.validate_mosaic(m)


def test_generate_matches_brute_force_feasibility():
    for k in (2, 3):
        for w in range(1, 7):
            for h in range(1, 7):
                feasible = brute_force_count(w, h, k) > 0
                try:
                    m = mo.generate_mosaic(w, h, k)
                except Infeasible:
                    assert not feasible, (w, h, k)
                else:
                    assert feasible, (w, h, k)
                    assert mo.validate_mosaic(m)


def test_generate_large_boards():
    m = mo.generate_mosaic(64, 64, 2)
    assert mo.validate_mosaic(m)
    m = mo.generate_mosaic(66, 33, 3)
    assert mo.validate_mosaic(m)
    with pytest.raises(Infeasible):
        mo.generate_mosaic(63, 64, 2)


def test_validator_rejects_corruption():
    m = mo.generate_mosaic(6, 6, 3)
    rows = [list(r) for r in m.cells]
    rows[0][0] = BLUE
    bad = mo.Mosaic(6, 6, 3, tuple(tuple(r) for r in rows))
    assert not mo.validate_mosaic(bad)
    # two touching blues
    grid = [[BLUE, BLUE]]
    assert not mo.validate_mosaic(mo.Mosaic(2, 1, 2, tuple(tuple(r) for r in grid)))
    # a row past the height, a column past the width, or a row short: the
    # rest of the check reads the first two as the 2-by-2 tile, a mosaic
    tile = ((0, 0), (0, 0))
    assert mo.validate_mosaic(mo.Mosaic(2, 2, 2, tile))
    for cells in (tile + ((0, 0),), ((0, 0, 1), (0, 0, 1)), tile[:1]):
        assert not mo.validate_mosaic(mo.Mosaic(2, 2, 2, cells)), cells
    # a 2-by-2 block labelled below BLUE, which the block check accepts
    assert not mo.validate_mosaic(mo.Mosaic(2, 2, 2, ((-2, -2), (-2, -2))))
    # a tile whose block would reach past the edge
    assert not mo.validate_mosaic(mo.Mosaic(3, 2, 2, ((0, 0, 1), (0, 0, 1))))


def test_entropy_profile_k3_non_increasing_on_doublings():
    rows = mo.entropy_profile([(3, 3), (6, 6), (12, 12)], 3)
    values = [e for _, _, e in rows]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_entropy_zero_count_is_zero():
    rows = mo.entropy_profile([(4, 4)], 3)
    assert rows[0][2] == 0.0


def test_spin_map():
    grid = [
        [BLUE, 0, 0],
        [0, 0, BLUE],
    ]
    m = mo.Mosaic(3, 2, 2, tuple(tuple(r) for r in grid))
    result = mo.spin_map(m)
    assert result["spins"][(0, 0)] == 1
    assert result["spins"][(2, 1)] == -1
    assert result["plus"] == 1 and result["minus"] == 1
    assert result["diagnostic"] == 0.0

    m = mo.generate_mosaic(64, 64, 2)
    result = mo.spin_map(m)
    assert 0.0 <= result["diagnostic"] <= 1.0

    with pytest.raises(ValueError):
        mo.spin_map(mo.generate_mosaic(3, 3, 3))


def test_render_ppm(tmp_path):
    path = tmp_path / "m.ppm"

    def render_ppm(w, h, k):
        argv = ["mosaic", "generate", "--w", str(w), "--h", str(h), "--k", str(k),
                "--seed", "0", "--out", str(path)]
        assert cli.main(argv) == 0

    assert mo.generate_mosaic(1, 1, 2) == mo.Mosaic(1, 1, 2, ((BLUE,),))
    render_ppm(1, 1, 2)
    assert path.read_bytes() == b"P6\n1 1\n255\n\x00\x00\xff"

    render_ppm(3, 3, 3)
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert body == b"\xff\x00\x00" * 9

    render_ppm(6, 4, 2)
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert len(body) == 3 * 6 * 4


def test_generate_scanline_tile_ids():
    m = mo.generate_mosaic(4, 4, 2)
    assert m.cells == ((0, 0, 1, 1), (0, 0, 1, 1), (2, 2, 3, 3), (2, 2, 3, 3))
    assert mo.generate_mosaic(4, 4, 2) == m


def test_generate_agrees_with_transfer_count_every_board():
    # free boundaries admit at most one mosaic; the transfer map, which does
    # not assume this, decides feasibility for every board under its cap
    for k in (2, 3):
        for adjacency in (4, 8):
            for w in range(1, mo.WIDTH_CAP + 1):
                for h in range(1, 25):
                    count = mo.count_mosaics(w, h, k, adjacency)
                    assert count <= 1, (w, h, k, adjacency)
                    try:
                        m = mo.generate_mosaic(w, h, k, adjacency)
                    except Infeasible:
                        assert count == 0, (w, h, k, adjacency)
                    else:
                        assert count == 1, (w, h, k, adjacency)
                        assert m.adjacency == adjacency
                        assert mo.validate_mosaic(m), (w, h, k, adjacency)


def test_row_transitions_keep_blues_off_the_diagonals():
    # a blue in the middle of the previous row: under 8-adjacency neither
    # corner may be blue, and a tile covers only two of the three columns
    state = ((0, 0, 0), (0, 1, 0))
    assert mo._row_transitions(state, 3, 2, 8) == []
    assert sorted(mo._row_transitions(state, 3, 2, 4)) == [
        ((0, 1, 1), (1, 0, 0)),
        ((1, 1, 0), (0, 0, 1)),
    ]


def test_every_board_entry_rejects_a_bad_k_or_an_empty_board():
    for k, w, h, message in (
        (4, 4, 4, "k must be 2 or 3"),
        (1, 4, 4, "k must be 2 or 3"),
        (2, 0, 4, "board must be non-empty"),
        (3, 3, 0, "board must be non-empty"),
    ):
        for call in (
            lambda: mo.count_mosaics(w, h, k),
            lambda: mo.entropy_profile([(w, h)], k),
            lambda: mo.generate_mosaic(w, h, k),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_every_board_entry_rejects_an_adjacency_other_than_4_or_8():
    for adjacency in (5, 7):
        for call in (
            lambda: mo.count_mosaics(2, 2, 2, adjacency),
            lambda: mo.entropy_profile([(2, 2), (4, 4)], 2, adjacency),
            lambda: mo.generate_mosaic(2, 2, 2, adjacency),
        ):
            with pytest.raises(ValueError, match="adjacency must be 4 or 8"):
                call()
