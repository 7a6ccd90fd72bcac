import itertools

import numpy as np
import pytest

from ergolab import cli
from ergolab import ledrappier as led


def reference_cells(row0, row1, height):
    """The row-by-row np.roll growth that `field_from_rows` replaced by packed
    row words; its cells are the byte-for-byte reference."""
    r0 = np.asarray(row0, dtype=np.uint8)
    r1 = np.asarray(row1, dtype=np.uint8)
    cells = np.zeros((height, r0.size), dtype=np.uint8)
    cells[0], cells[1] = r0, r1
    for y in range(1, height - 1):
        row = cells[y]
        cells[y + 1] = row ^ np.roll(row, 1) ^ np.roll(row, -1) ^ cells[y - 1]
    return cells


def assert_same_cells(cells, expected):
    assert cells.dtype == np.uint8 and cells.shape == expected.shape
    assert cells.tobytes() == expected.tobytes()


def cross(d):
    return frozenset([(0, 0), (d, 0), (-d, 0), (0, d), (0, -d)])


def poly_mul_gf2(p, q):
    """Convolution of support sets over GF(2): symmetric-difference count."""
    out = set()
    for a in p:
        for b in q:
            v = (a[0] + b[0], a[1] + b[1])
            if v in out:
                out.remove(v)
            else:
                out.add(v)
    return frozenset(out)


def test_stencil_squares_to_spread_cross():
    # the algebraic identity behind the distance-2^k relation, derived by
    # honest convolution rather than the freshman's-dream shortcut
    p = cross(1)
    for k in range(1, 6):
        p = poly_mul_gf2(p, p)
        assert p == cross(2**k), k


def test_sample_field_satisfies_relation():
    for seed in range(20):
        f = led.sample_field(48, 40, seed)
        assert led.verify_harmonicity(f)


def test_packed_rows_match_the_roll_reference():
    # every width 1-130 (the 8-, 64- and 128-bit word boundaries included),
    # every height 2-70, rows given as lists, bool arrays and uint8 arrays
    rng = np.random.default_rng(0)
    for width in range(1, 131):
        for height in (2, 2 + width % 69, 70):
            r0, r1 = rng.integers(0, 2, size=(2, width), dtype=np.uint8)
            expected = reference_cells(r0, r1, height)
            for form in (lambda r: r.tolist(), lambda r: r.astype(bool), lambda r: r):
                f = led.field_from_rows(form(r0), form(r1), height)
                assert_same_cells(f.cells, expected)


def test_sampled_fields_match_the_roll_reference():
    for width, height in ((64, 64), (96, 48), (128, 128), (2048, 2048)):
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            r0 = rng.integers(0, 2, size=width, dtype=np.uint8)
            r1 = rng.integers(0, 2, size=width, dtype=np.uint8)
            cells = led.sample_field(width, height, seed).cells
            assert_same_cells(cells, reference_cells(r0, r1, height))


def test_cell_check_is_the_isin_predicate():
    rejected = [
        np.array([[0, 2]]),
        np.array([[0, -1]], dtype=np.int8),
        np.array([[0.5, 1.0]]),
        np.array([[255, 0]], dtype=np.uint8),
        np.array([[np.nan, 0.0]]),
    ]
    accepted = [
        np.array([[True, False]]),
        np.array([[0, 1]], dtype=np.int64),
        np.array([[0.0, 1.0], [-0.0, 1.0]]),
        np.zeros((3, 0), dtype=np.uint8),
    ]
    for cells in rejected + accepted:
        assert led._binary(cells) == bool(np.isin(cells, (0, 1)).all())
    for cells in rejected:
        with pytest.raises(ValueError, match="0/1 valued"):
            led.HarmonicField(cells)
    for cells in (np.array([0, 1, 1]), np.zeros((2, 2, 2), dtype=np.uint8), np.array(1)):
        with pytest.raises(ValueError, match="cells must be a 2-D array"):
            led.HarmonicField(cells)
    for cells in accepted:
        assert led.HarmonicField(cells).cells is cells


def test_zero_rows_stay_zero():
    f = led.field_from_rows([0] * 8, [0] * 8, 6)
    assert not f.cells.any()
    assert led.verify_harmonicity(f)


def test_single_one_propagates_to_three():
    r0 = [0] * 9
    r1 = [0] * 9
    r1[4] = 1
    f = led.field_from_rows(r0, r1, 3)
    assert f.cells[2].tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0]


def test_flip_breaks_harmonicity():
    f = led.sample_field(32, 32, 3)
    cells = f.cells.copy()
    cells[15, 7] ^= 1
    assert not led.verify_harmonicity(led.HarmonicField(cells))


def test_flip_breaks_harmonicity_at_height_three():
    # the one interior row of a height-3 field is checked too
    f = led.field_from_rows([1, 0, 1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 0, 1], 3)
    assert f.height == 3 and led.verify_harmonicity(f)
    cells = f.cells.copy()
    cells[1, 4] ^= 1
    assert not led.verify_harmonicity(led.HarmonicField(cells))


def test_no_interior_rows_is_vacuous():
    f = led.field_from_rows([1, 0, 1], [0, 1, 1], 2)
    assert led.verify_harmonicity(f)


def test_power_identity_on_sampled_fields():
    f = led.sample_field(64, 64, 11)
    for k in range(0, 5):
        assert led.power_identity_check(f, k)
    with pytest.raises(ValueError):
        led.power_identity_check(f, 5)
    with pytest.raises(ValueError, match="non-negative"):
        led.power_identity_check(f, -1)


def test_power_identity_detects_corruption():
    f = led.sample_field(64, 64, 2)
    cells = f.cells.copy()
    cells[30, 30] ^= 1
    broken = led.HarmonicField(cells)
    assert any(not led.power_identity_check(broken, k) for k in range(5))


def test_power_checks_cover_every_distance_the_grid_holds():
    rng = np.random.default_rng(29)
    for m in (2, 3, 4, 5, 8, 9, 16, 17):
        for width, height in ((m, 33), (33, m)):
            rows = rng.integers(0, 2, size=(2, width), dtype=np.uint8)
            f = led.field_from_rows(rows[0], rows[1], height)
            checks = led.power_checks(f)
            assert list(checks) == [k for k in range(64) if 2 ** (k + 1) < m], (width, height)
            assert all(v is True for v in checks.values())
    broken = led.sample_field(17, 17, 2).cells.copy()
    broken[8, 8] ^= 1
    assert False in led.power_checks(led.HarmonicField(broken)).values()


def test_xor_of_harmonic_fields_is_harmonic():
    a = led.sample_field(40, 36, 1)
    b = led.sample_field(40, 36, 2)
    assert led.verify_harmonicity(led.HarmonicField(a.cells ^ b.cells))


def test_trace_vertical_line():
    cells = np.zeros((7, 5), dtype=np.uint8)
    cells[:, 2] = 1
    f = led.HarmonicField(cells)
    tr = led.trace_thread(f, (2, 0), "up")
    assert tr.symbols == (0,) * 6
    assert tr.length == 6


def test_trace_staircase_alternates():
    cells = np.zeros((8, 8), dtype=np.uint8)
    path = [(0, 0), (1, 1), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6), (4, 7)]
    for x, y in path:
        cells[y, x] = 1
    f = led.HarmonicField(cells)
    tr = led.trace_thread(f, (0, 0), "up")
    assert tr.symbols == (1, 0, 1, 0, 1, 0, 1)
    assert tr.path == tuple(path)


def test_trace_isolated_cell_and_bad_start():
    cells = np.zeros((4, 4), dtype=np.uint8)
    cells[1, 1] = 1
    f = led.HarmonicField(cells)
    assert led.trace_thread(f, (1, 1), "up").symbols == ()
    with pytest.raises(ValueError):
        led.trace_thread(f, (0, 0), "up")
    with pytest.raises(ValueError):
        led.trace_thread(f, (1, 1), "diagonal")


def test_trace_prefers_forward_then_right():
    cells = np.zeros((3, 5), dtype=np.uint8)
    cells[0, 2] = 1
    cells[1, 1] = cells[1, 2] = cells[1, 3] = 1
    f = led.HarmonicField(cells)
    tr = led.trace_thread(f, (2, 0), "up")
    assert tr.symbols[0] == 0
    cells[1, 2] = 0
    tr = led.trace_thread(led.HarmonicField(cells), (2, 0), "up")
    assert tr.symbols[0] == 1  # right beats left


def test_trace_horizontal_stops_on_revisit():
    cells = np.ones((1, 6), dtype=np.uint8)
    f = led.HarmonicField(cells)
    tr = led.trace_thread(f, (0, 0), "right")
    assert tr.length <= 6


def test_trace_deterministic():
    f = led.sample_field(64, 64, 5)
    ys, xs = np.nonzero(f.cells)
    start = (int(xs[0]), int(ys[0]))
    a = led.trace_thread(f, start, "up")
    b = led.trace_thread(f, start, "up")
    assert a == b


def reference_trace(field, start, direction):
    """The step loop that reads the field's `width`, `height` and `cells`
    per step, as `trace_thread` did before it read them once; its traces
    are the reference."""
    dx, dy = {"up": (0, 1), "down": (0, -1), "left": (-1, 0), "right": (1, 0)}[direction]
    x, y = start
    x %= field.width
    assert 0 <= y < field.height and field[x, y] == 1
    px, py = dy, -dx
    symbols = []
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
    return led.ThreadTrace((path[0][0], path[0][1]), direction, tuple(symbols), tuple(path))


def test_traces_match_the_reference_from_every_white_cell():
    traced = 0
    for width, height, seed in ((16, 16, 4), (33, 20, 11)):
        f = led.sample_field(width, height, seed)
        ys, xs = np.nonzero(f.cells)
        for x, y in zip(xs.tolist(), ys.tolist()):
            # a start left of the grid wraps to the same cell
            for start in ((x, y), (x - width, y)):
                for direction in ("up", "down", "left", "right"):
                    got = led.trace_thread(f, start, direction)
                    assert got == reference_trace(f, start, direction), (start, direction)
                    traced += got.length > 0
    assert traced > 1000


def test_statistics_zero_field():
    f = led.field_from_rows([0] * 6, [0] * 6, 5)
    stats = led.thread_statistics(f, 16, 3)
    assert stats == {"max_len": 0, "coverage_fraction": 0.0, "seed": 3}


def test_statistics_need_at_least_one_sample():
    zero = led.field_from_rows([0] * 6, [0] * 6, 5)
    for f in (led.sample_field(16, 16, 2), zero):
        for samples in (0, -2):
            with pytest.raises(ValueError, match="at least one sample"):
                led.thread_statistics(f, samples, 3)
    assert led.thread_statistics(zero, 1, 3)["max_len"] == 0


def reference_statistics(field, samples, seed):
    """The first longest of the sampled upward traces, the white count and
    how many samples reach the longest length."""
    rng = np.random.default_rng(seed)
    ys, xs = np.nonzero(field.cells)
    traces = [led.trace_thread(field, (int(xs[i]), int(ys[i])), "up")
              for i in rng.integers(0, len(xs), size=samples)]
    longest = max(t.length for t in traces)
    best = next(t for t in traces if t.length == longest)
    return best, len(xs), sum(t.length == longest for t in traces)


def test_statistics_match_the_first_longest_trace():
    ties = 0
    for width, height in ((64, 64), (96, 48)):
        for seed in range(10):
            f = led.sample_field(width, height, seed)
            best, whites, tied = reference_statistics(f, 40, seed)
            assert led.thread_statistics(f, 40, seed) == {
                "max_len": best.length,
                "coverage_fraction": len(set(best.path)) / whites,
                "seed": seed,
            }, (width, height, seed)
            ties += tied > 1
    assert ties > 0


def test_statistics_reproducible():
    f = led.sample_field(128, 128, 9)
    s1 = led.thread_statistics(f, 40, 17)
    s2 = led.thread_statistics(f, 40, 17)
    assert s1 == s2
    assert 0.0 <= s1["coverage_fraction"] <= 1.0


def test_render_pgm(tmp_path, monkeypatch):
    path = tmp_path / "zero.pgm"
    sampled = led.sample_field(17, 9, 4)

    def render_pgm(f):
        # `ledrappier sample` writes the field its sampler returns
        monkeypatch.setattr(led, "sample_field", lambda width, height, seed: f)
        argv = ["ledrappier", "sample", "--n", str(f.width), "--m", str(f.height),
                "--seed", "0", "--out", str(path)]
        assert cli.main(argv) == 0

    render_pgm(led.field_from_rows([0, 0, 0], [0, 0, 0], 2))
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + b"\x00" * 6

    cells = np.zeros((2, 3), dtype=np.uint8)
    cells[1, 2] = 1
    render_pgm(led.HarmonicField(cells))
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert body.count(b"\xff") == 1 and len(body) == 6
    assert body == b"\x00" * 5 + b"\xff"

    render_pgm(sampled)
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert len(body) == 17 * 9


def test_sample_field_validation():
    with pytest.raises(ValueError):
        led.sample_field(2, 5, 0)
    with pytest.raises(ValueError):
        led.sample_field(5, 1, 0)


def test_field_from_rows_validation():
    with pytest.raises(ValueError):
        led.field_from_rows([1, 0, 1], [0, 1, 1], 1)
    with pytest.raises(ValueError):
        led.field_from_rows([1, 0, 1], [0, 1], 4)
    for bad in (2, 255):
        for height in (2, 4):
            with pytest.raises(ValueError, match="0/1 valued"):
                led.field_from_rows([0, bad, 1], [1, 0, 1], height)
            with pytest.raises(ValueError, match="0/1 valued"):
                led.field_from_rows(np.array([1, 0, 1], dtype=np.uint8),
                                    np.array([0, 0, bad], dtype=np.uint8), height)
    for height in (2, 5):
        cells = led.field_from_rows([], [], height).cells
        assert cells.shape == (height, 0) and cells.dtype == np.uint8
    for width in (1, 2):
        for r0, r1 in itertools.product(itertools.product((0, 1), repeat=width), repeat=2):
            for height in (2, 3, 7):
                f = led.field_from_rows(r0, r1, height)
                assert_same_cells(f.cells, reference_cells(r0, r1, height))
