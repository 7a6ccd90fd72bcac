import numpy as np
import pytest
from hypothesis import given, strategies as st

from ergolab import perms
from ergolab.core import FinitePermutationSystem


def random_perm(n, seed):
    return perms.as_permutation(np.random.default_rng(seed).permutation(n))


@given(st.integers(1, 50), st.integers(0, 10**6))
def test_inverse_round_trip(n, seed):
    p = random_perm(n, seed)
    ident = np.arange(n)
    assert (perms.compose(p, perms.inverse(p)) == ident).all()
    assert (perms.compose(perms.inverse(p), p) == ident).all()


@given(st.integers(1, 40), st.integers(0, 10**6), st.integers(-30, 30))
def test_power_matches_iteration(n, seed, k):
    p = random_perm(n, seed)
    expected = np.arange(n)
    step = p if k >= 0 else perms.inverse(p)
    for _ in range(abs(k)):
        expected = perms.compose(step, expected)
    assert (perms.power(p, k) == expected).all()


@given(st.integers(1, 40), st.integers(0, 10**6), st.integers(-(10**12), 10**12))
def test_power_far_beyond_n_reduces_by_cycle_length(n, seed, k):
    # p^k moves each atom k mod (its cycle length) steps along its cycle
    p = random_perm(n, seed)
    got = perms.power(p, k)
    for x in range(n):
        orbit = perms.cycle_order_from(p, x)
        assert got[x] == orbit[k % orbit.size]


def test_cycles_partition():
    p = perms.as_permutation([1, 0, 3, 4, 2, 5])
    orbits = {tuple(sorted(perms.cycle_order_from(p, x).tolist())) for x in range(6)}
    assert sorted(sum(orbits, ())) == list(range(6))
    assert orbits == {(0, 1), (2, 3, 4), (5,)}
    assert perms.cycle_order_from(p, 3).tolist() == [3, 4, 2]


def test_single_cycle_detection():
    assert FinitePermutationSystem([1, 2, 0]).walk().tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="single n-cycle"):
        FinitePermutationSystem([1, 0, 2]).walk()
    p = FinitePermutationSystem.random_cycle(37, 5).map
    order = FinitePermutationSystem(p).walk()  # a caller-given map is walked
    assert sorted(order.tolist()) == list(range(37))
    assert (p[order] == np.roll(order, -1)).all()


def test_cycle_order_walks_whole_cycle():
    p = FinitePermutationSystem.random_cycle(12, 9).map
    order = perms.cycle_order_from(p, 0)
    assert sorted(order.tolist()) == list(range(12))
    assert order[0] == 0
    assert (p[order[:-1]] == order[1:]).all() and p[order[-1]] == 0


def test_results_are_read_only_int64():
    p = random_perm(9, 3)
    for q in (p, perms.compose(p, p), perms.inverse(p), perms.power(p, -4),
              perms.cycle_order_from(p, 0)):
        assert q.dtype == np.int64 and not q.flags.writeable


def test_system_map_is_a_read_only_int64_array():
    sys_ = FinitePermutationSystem((2, 0, 1))
    assert isinstance(sys_.map, np.ndarray) and sys_.map.dtype == np.int64
    assert sys_.map.tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        sys_.map[0] = 1
    source = np.array([1, 2, 0])
    sys_ = FinitePermutationSystem(source)
    source[0] = 0  # the system keeps its own copy
    assert sys_.map.tolist() == [1, 2, 0]


@pytest.mark.parametrize(
    "bad", [(0, 0, 1), (1, 2, 3), (-1, 0, 1), (), (0.0, 1.0), [[0, 1], [1, 0]]]
)
def test_system_rejects_a_non_bijection(bad):
    with pytest.raises(ValueError):
        FinitePermutationSystem(bad)
