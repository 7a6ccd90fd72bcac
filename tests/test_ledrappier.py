import numpy as np
import pytest

from ergolab import ledrappier as led


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


def test_no_interior_rows_is_vacuous():
    f = led.field_from_rows([1, 0, 1], [0, 1, 1], 2)
    assert led.verify_harmonicity(f)


def test_power_identity_on_sampled_fields():
    f = led.sample_field(64, 64, 11)
    for k in range(0, 5):
        assert led.power_identity_check(f, k)
    with pytest.raises(ValueError):
        led.power_identity_check(f, 5)


def test_power_identity_detects_corruption():
    f = led.sample_field(64, 64, 2)
    cells = f.cells.copy()
    cells[30, 30] ^= 1
    broken = led.HarmonicField(cells)
    assert any(not led.power_identity_check(broken, k) for k in range(5))


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


def test_statistics_zero_field():
    f = led.field_from_rows([0] * 6, [0] * 6, 5)
    stats = led.thread_statistics(f, 16, 3)
    assert stats == {"max_len": 0, "coverage_fraction": 0.0, "seed": 3}


def test_statistics_reproducible():
    f = led.sample_field(128, 128, 9)
    s1 = led.thread_statistics(f, 40, 17)
    s2 = led.thread_statistics(f, 40, 17)
    assert s1 == s2
    assert 0.0 <= s1["coverage_fraction"] <= 1.0


def test_render_pgm(tmp_path):
    f = led.field_from_rows([0, 0, 0], [0, 0, 0], 2)
    path = tmp_path / "zero.pgm"
    led.render_pgm(f, str(path))
    data = path.read_bytes()
    assert data == b"P5\n3 2\n255\n" + b"\x00" * 6

    cells = np.zeros((2, 3), dtype=np.uint8)
    cells[1, 2] = 1
    led.render_pgm(led.HarmonicField(cells), str(path))
    body = path.read_bytes().split(b"255\n", 1)[1]
    assert body.count(b"\xff") == 1 and len(body) == 6

    f = led.sample_field(17, 9, 4)
    led.render_pgm(f, str(path))
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
