import numpy as np
import pytest

from ergolab import perms
from ergolab.core import FinitePermutationSystem
from ergolab.involutions import (
    InvolutionTriple,
    _pipeline_parts,
    cycle_two_involutions,
    factor_three_involutions,
)


def test_cycle_two_involutions_k3():
    s1, s2 = cycle_two_involutions(3)
    assert s2.tolist() == [0, 2, 1]  # swaps 1, 2
    assert s1.tolist() == [1, 0, 2]  # swaps 0, 1, fixes 2
    assert perms.compose(s1, s2).tolist() == [1, 2, 0]


def test_cycle_two_involutions_k1():
    s1, s2 = cycle_two_involutions(1)
    assert s1.tolist() == [0] and s2.tolist() == [0]


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
    # includes sizes where the residual outnumbers the columns
    for n in [3, 4, 5, 7, 11, 12, 13, 14, 21, 22, 23, 25, 32, 109, 110, 121]:
        sys_ = FinitePermutationSystem.cycle(n)
        assert factor_three_involutions(sys_).verify(sys_.map), n


def test_factor_random_cycles_sample():
    import random

    rng = random.Random(99)
    for _ in range(15):
        n = rng.randrange(11, 5000)
        sys_ = FinitePermutationSystem.random_cycle(n, rng.randrange(2**31))
        assert factor_three_involutions(sys_).verify(sys_.map), n


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
