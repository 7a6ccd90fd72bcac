import tracemalloc

import numpy as np
import pytest

from ergolab import perms
from ergolab.core import FinitePermutationSystem
from ergolab.involutions import (
    InvolutionTriple,
    cycle_two_involutions,
    factor_three_involutions,
)


# Reference: the stagewise pipeline of the module docstring, stage by stage
# on atoms. The closed forms in `factor_three_involutions` must reproduce
# its triple byte for byte.


def _reflections(p: np.ndarray, cycles: np.ndarray, lengths: np.ndarray):
    """Involutions (r1, r2) with r1(r2(x)) = P(x), by per-cycle reversal.

    `cycles` lists every atom once, cycle after cycle, each cycle in P's
    order from its anchor; `lengths` gives the cycle lengths. Position i of
    a cycle of length m goes to -i mod m under r2; r2 is an involution, so
    r1 = P after r2, which sends position i to 1-i mod m.
    """
    m = np.repeat(lengths, lengths)
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i = np.arange(cycles.size) - start
    r2 = np.empty_like(cycles)
    r2[cycles] = cycles[start + -i % m]
    return p[r2], r2


def _pipeline_parts(sys: FinitePermutationSystem, height: int):
    """Internal stages of the factorization: the correcting involution, the
    two lifted base factors, their product, the periodic part, and the
    cycles of the periodic part with their lengths (as `_reflections`
    takes them)."""
    n = sys.n
    order = sys.walk()
    h = min(height, n)
    q, r = divmod(n, h)

    # walk layout: q columns of h atoms; residual runs spread over the gaps,
    # the first r % q gaps getting one extra atom when r > q
    run_len = r // q + (np.arange(q) < r % q)
    col_start = np.arange(q) * h + np.cumsum(run_len) - run_len

    # correcting involution: swap each run's last atom with its column top
    s = np.arange(n)
    has_run = run_len > 0
    tops = order[col_start[has_run] + h - 1]
    lasts = order[col_start[has_run] + h + run_len[has_run] - 1]
    s[tops] = lasts
    s[lasts] = tops

    # base-cycle factors lifted to levels 0 and 1; the climb applies the
    # level-0 factor, then the level-1 factor, then the top hop, and the
    # reversal pair composes back to the +1 column shift
    lift1, lift2 = cycle_two_involutions(q)
    d1 = np.arange(n)
    d2 = np.arange(n)
    d1[order[col_start]] = order[col_start[lift1]]
    d2[order[col_start + 1]] = order[col_start[lift2] + 1]
    big_s = s.copy()
    big_s[order[col_start]] = d1[order[col_start]]
    big_s[order[col_start + 1]] = d2[order[col_start + 1]]

    # periodic part P = T after S
    p = perms.compose(sys.map, big_s)

    # P's cycles, read off the layout: the cycle anchored at column k's base
    # steps to level 1 of column lift1[k], climbs column lift2[lift1[k]] and
    # hops back to column k's base; each residual run is one cycle, stepping
    # along the walk and from its last atom back to its first
    cols = np.empty((q, h), dtype=np.int64)
    cols[:, 0] = np.arange(q)
    cols[:, 1] = lift1
    cols[:, 2:] = lift2[lift1][:, None]
    column_pos = (col_start[cols] + np.arange(h)).ravel()
    in_column = np.zeros(n, dtype=bool)
    in_column[column_pos] = True
    cycles = np.concatenate([order[column_pos], order[~in_column]])
    lengths = np.concatenate([np.full(q, h), run_len])
    return s, d1, d2, big_s, p, cycles, lengths


def reference_factor(sys: FinitePermutationSystem, height: int = 11) -> InvolutionTriple:
    """The triple (P S P^-1, r1, r2) built stage by stage."""
    if height < 3:
        raise ValueError("tower height must be at least 3")
    n = sys.n
    if n <= 2:
        sys.walk()
        ident = np.arange(n)
        return InvolutionTriple(ident, ident, sys.map)
    _, _, _, big_s, p, cycles, lengths = _pipeline_parts(sys, height)
    refl1, refl2 = _reflections(p, cycles, lengths)
    s_first = np.empty_like(p)
    s_first[p] = p[big_s]
    return InvolutionTriple(s_first, refl1, refl2)


def test_cycle_two_involutions_k3():
    s1, s2 = cycle_two_involutions(3)
    assert s2.tolist() == [0, 2, 1]  # swaps 1, 2
    assert s1.tolist() == [1, 0, 2]  # swaps 0, 1, fixes 2
    assert perms.compose(s1, s2).tolist() == [1, 2, 0]


def test_cycle_two_involutions_k1():
    s1, s2 = cycle_two_involutions(1)
    assert s1.tolist() == [0] and s2.tolist() == [0]
    for k in (0, -3):
        with pytest.raises(ValueError, match="k must be positive"):
            cycle_two_involutions(k)


def test_cycle_two_involutions_k11():
    s1, s2 = cycle_two_involutions(11)
    rot = (np.arange(11) + 1) % 11
    assert (perms.compose(s1, s2) == rot).all()
    assert perms.is_involution(s1) and perms.is_involution(s2)


def test_cycle_two_involutions_composes_to_rotation_up_to_1e4():
    for k in list(range(1, 300)) + [1024, 4097, 10**4]:
        s1, s2 = cycle_two_involutions(k)
        rot = (np.arange(k) + 1) % k
        assert (s1[s2] == rot).all(), k
        assert (s1[s1] == np.arange(k)).all() and (s2[s2] == np.arange(k)).all()


def test_factor_examples():
    sys_ = FinitePermutationSystem.cycle(12)
    triple = factor_three_involutions(sys_)
    assert triple.verify(sys_.map)

    swap = FinitePermutationSystem((1, 0))
    triple = factor_three_involutions(swap)
    assert triple.verify(swap.map)

    not_cycle = FinitePermutationSystem((1, 0, 3, 2))
    with pytest.raises(ValueError):
        factor_three_involutions(not_cycle)


def test_factor_small_and_awkward_sizes():
    # includes sizes where the residual outnumbers the columns; n <= 2 is
    # the trivial triple
    for n in [1, 2, 3, 4, 5, 7, 11, 12, 13, 14, 21, 22, 23, 25, 32, 109, 110, 121]:
        sys_ = FinitePermutationSystem.cycle(n)
        triple = factor_three_involutions(sys_)
        assert triple.verify(sys_.map), n
        for s in (triple.s1, triple.s2, triple.s3):
            assert s.dtype == np.int64 and s.shape == (n,) and not s.flags.writeable, n


def test_factor_random_cycles_sample():
    import random

    rng = random.Random(99)
    for _ in range(15):
        n = rng.randrange(11, 5000)
        sys_ = FinitePermutationSystem.random_cycle(n, rng.randrange(2**31))
        assert factor_three_involutions(sys_).verify(sys_.map), n


def test_factor_default_height_is_eleven():
    sys_ = FinitePermutationSystem.random_cycle(1000, 31)
    default = factor_three_involutions(sys_)
    eleven = factor_three_involutions(sys_, 11)
    for name in ("s1", "s2", "s3"):
        assert np.array_equal(getattr(default, name), getattr(eleven, name)), name
    # a default of 12 would give other tables
    other = factor_three_involutions(sys_, 12)
    assert not np.array_equal(default.s1, other.s1)


def test_factor_custom_height():
    sys_ = FinitePermutationSystem.cycle(100)
    for height in (3, 5, 7, 23):
        assert factor_three_involutions(sys_, height).verify(sys_.map)
    with pytest.raises(ValueError):
        factor_three_involutions(sys_, 2)


def test_pipeline_pieces_disjoint_supports_and_commute():
    for n in (21, 25, 33, 110, 1234):  # 21 and 25: runs longer than one atom
        sys_ = FinitePermutationSystem.random_cycle(n, seed=n)
        s, d1, d2, big_s, p, cycles, lengths = _pipeline_parts(sys_, 11)
        ident = np.arange(n)
        for piece in (s, d1, d2, big_s):
            assert (piece[piece] == ident).all()
        supports = [np.nonzero(piece != ident)[0] for piece in (s, d1, d2)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not set(supports[i].tolist()) & set(supports[j].tolist())
        # disjoint supports make the factors commute
        assert (s[d1[d2]] == d2[d1[s]]).all()
        # the combined involution against the periodic part recovers the map
        assert (p[big_s] == sys_.map).all()
        # the layout lists every atom once, and P steps along each cycle
        assert sorted(cycles.tolist()) == list(range(n))
        at = 0
        for m in lengths.tolist():
            cyc = cycles[at:at + m]
            assert (p[cyc] == np.roll(cyc, -1)).all()
            at += m


def test_periodic_part_has_period_height_when_runs_short():
    # residual runs of length <= 1: every tower orbit of P closes in h steps
    n, h = 121, 11  # q = 11 >= r = 0
    sys_ = FinitePermutationSystem.cycle(n)
    p = _pipeline_parts(sys_, h)[4]
    cur = np.arange(n)
    for _ in range(h):
        cur = p[cur]
    assert (cur == np.arange(n)).all()

    n = 115  # q = 10, r = 5 <= q
    sys_ = FinitePermutationSystem.cycle(n)
    p = _pipeline_parts(sys_, h)[4]
    cur = np.arange(n)
    for _ in range(h):
        cur = p[cur]
    assert (cur == np.arange(n)).all()


def test_triple_factors_are_involutions_and_ordered():
    sys_ = FinitePermutationSystem.random_cycle(4096, seed=17)
    triple = factor_three_involutions(sys_)
    for s in (triple.s1, triple.s2, triple.s3):
        assert perms.is_involution(s)
    assert (triple.compose() == sys_.map).all()


def test_verify_rejects_swapped_entries():
    sys_ = FinitePermutationSystem.random_cycle(300, seed=1)
    triple = factor_three_involutions(sys_)
    assert triple.verify(sys_.map)
    s1 = triple.s1.copy()
    s1[[0, 1]] = s1[[1, 0]]
    assert not InvolutionTriple(s1, triple.s2, triple.s3).verify(sys_.map)


def test_public_triple_rejects_non_bijections_and_mixed_sizes():
    ident = [0, 1, 2]
    for fields in ([[0, 0, 2], ident, ident], [ident, [0, 0, 2], ident],
                   [ident, ident, [0, 0, 2]], [ident, ident, [0, 1, 3]]):
        with pytest.raises(ValueError, match="bijection"):
            InvolutionTriple(*fields)
    for fields in ([[0, 1], ident, ident], [ident, [0], ident], [ident, ident, [1, 0]]):
        with pytest.raises(ValueError, match="different atom counts"):
            InvolutionTriple(*fields)


def test_verify_rejects_a_built_triple_with_a_duplicate_entry():
    # the library's own triples skip the bijection check; verify still
    # catches a non-bijection, since no such map squares to the identity
    sys_ = FinitePermutationSystem.random_cycle(300, seed=1)
    triple = factor_three_involutions(sys_)
    fields = [triple.s1, triple.s2, triple.s3]
    for k in range(3):
        bad = fields[k].copy()
        bad[0] = bad[1]  # in range, but atom bad[1] now has two preimages
        broken = fields[:k] + [bad] + fields[k + 1:]
        assert not InvolutionTriple._built(*broken).verify(sys_.map), k
        with pytest.raises(ValueError, match="bijection"):
            InvolutionTriple(*broken)


def test_factor_peak_memory_at_1e5():
    n = 10**5
    sys_ = FinitePermutationSystem.random_cycle(n, 1)
    sys_.walk()  # the walk is the system's, kept for later calls
    tracemalloc.start()
    try:
        factor_three_involutions(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # s1, s2 and s3 are 3 n-sized int64 arrays; at the peak the grid of
    # column atoms and the gather s1 T that s3 is read through are 2 more
    assert peak < 6.5 * 8 * n, peak / (8 * n)


def _outcome(factor, sys_, height):
    try:
        triple = factor(sys_, height)
    except ValueError as err:
        return str(err)
    return [(s.dtype.str, s.tobytes()) for s in (triple.s1, triple.s2, triple.s3)]


def test_closed_forms_match_the_stagewise_reference_byte_for_byte():
    for n in range(1, 301):
        systems = [FinitePermutationSystem.cycle(n)]
        systems += [FinitePermutationSystem.random_cycle(n, seed) for seed in (0, 1, n)]
        for sys_ in systems:
            for height in (3, 4, 5, 11, n):
                got = _outcome(factor_three_involutions, sys_, height)
                assert got == _outcome(reference_factor, sys_, height), (n, height)


def _tower_labels(n: int, h: int) -> list[tuple]:
    """The label of each walk position: ("col", k, l) for level l of column
    k, ("run", k, i, L) for index i of residual run k of length L."""
    q, r = divmod(n, h)
    labels = []
    for k in range(q):
        labels += [("col", k, level) for level in range(h)]
        run = r // q + (k < r % q)
        labels += [("run", k, i, run) for i in range(run)]
    return labels


def _table_images(n: int, h: int) -> tuple[dict, dict, dict]:
    """The three involutions of the module docstring's table, as label maps
    holding only the labels they move."""
    q = n // h
    labels = _tower_labels(n, h)
    s1, s2, s3 = {}, {}, {}
    for label in labels:
        if label[0] == "run":
            _, k, i, run = label
            s2[label] = ("run", k, (1 - i) % run, run)
            s3[label] = ("run", k, -i % run, run)
            if i == 0:
                s1[label] = ("col", (k + 1) % q, 0)
                s1[("col", (k + 1) % q, 0)] = label
            continue
        _, k, level = label
        if level in (1, 2):
            s1[label] = ("col", ((1 if level == 1 else 0) - k) % q, level)
        if level == 0:
            s2[label] = ("col", (1 - k) % q, 1)
        elif level == 1:
            s2[label] = ("col", (1 - k) % q, 0)
            s3[label] = ("col", -k % q, h - 1)
        else:
            s2[label] = ("col", k, h + 1 - level)
            s3[label] = ("col", -k % q, 1) if level == h - 1 else ("col", k, h - level)
    # an entry equal to its key names a fixed point
    return tuple({a: b for a, b in s.items() if a != b} for s in (s1, s2, s3))


def test_each_involution_moves_exactly_the_table_entries_on_walk_positions():
    # 21 and 25: residual runs longer than one atom; 10: the height clamps to n
    for n, height in ((21, 11), (25, 11), (26, 5), (30, 4), (40, 3), (115, 11),
                      (121, 11), (10, 11), (130, 11)):
        h = min(height, n)
        sys_ = FinitePermutationSystem.random_cycle(n, seed=n)
        order = sys_.walk()
        pos = perms.inverse(order)
        labels = _tower_labels(n, h)
        assert len(labels) == n
        triple = factor_three_involutions(sys_, height)
        for s, table in zip((triple.s1, triple.s2, triple.s3), _table_images(n, h)):
            moved = {labels[j]: labels[pos[s[order[j]]]] for j in range(n)}
            assert {a: b for a, b in moved.items() if a != b} == table, (n, h)


def test_verify_rejects_a_triple_composing_to_the_target_with_a_non_involution():
    # (T, id, id) composes to T, but for n >= 3 the cycle T is no involution
    for n in (3, 4, 7):
        sys_ = FinitePermutationSystem.cycle(n)
        identity = np.arange(n)
        triple = InvolutionTriple(sys_.map, identity, identity)
        assert (triple.compose() == sys_.map).all()
        assert not triple.verify(sys_.map), n
