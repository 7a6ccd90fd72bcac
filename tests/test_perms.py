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


@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
def test_cycles_list_every_orbit_from_its_least_atom(images):
    p = perms.as_permutation(images)
    n = p.size
    order, lengths = perms.cycles(p)
    for q in (order, lengths):
        assert q.dtype == np.int64 and not q.flags.writeable
    assert sorted(order.tolist()) == list(range(n)) and lengths.sum() == n
    assert (lengths >= 1).all()
    starts = np.cumsum(lengths) - lengths
    for start, m in zip(starts.tolist(), lengths.tolist()):
        orbit = order[start:start + m]
        assert orbit[0] == orbit.min()
        assert (p[orbit] == np.roll(orbit, -1)).all()  # steps along p, then closes
    assert (np.diff(order[starts]) > 0).all()


def test_cycles_partition():
    p = perms.as_permutation([1, 0, 4, 2, 3, 5])
    order, lengths = perms.cycles(p)
    assert order.tolist() == [0, 1, 2, 4, 3, 5]
    assert lengths.tolist() == [2, 3, 1]


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
    order, lengths = perms.cycles(p)
    assert lengths.tolist() == [12]
    assert sorted(order.tolist()) == list(range(12))
    assert order[0] == 0
    assert (p[order[:-1]] == order[1:]).all() and p[order[-1]] == 0


def test_results_are_read_only_int64():
    p = random_perm(9, 3)
    for q in (p, perms.compose(p, p), perms.inverse(p), *perms.cycles(p)):
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
