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


def is_permutation_oracle(values):
    """A bijection of {0..n-1} with n >= 1, by sorting: the oracle for the
    caller check, made apart from the code under test."""
    return len(values) >= 1 and sorted(values) == list(range(len(values)))


def test_as_permutation_matches_a_sorting_oracle():
    rng = np.random.default_rng(2104)
    dtypes = (np.int64, np.int32, np.int8, np.uint8, np.uint16, np.uint64)
    cases = [np.array([], dtype=d) for d in dtypes] + [[], [0], [1], [-1]]
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        p = rng.permutation(n)
        fault = int(rng.integers(6))
        i, j = rng.integers(n, size=2)
        if fault == 1:  # a repeat, which leaves a gap
            p[i] = p[j]
        elif fault == 2:  # an image past the last atom
            p[i] = n + rng.integers(3)
        elif fault == 3:  # a negative image (wraps to a large one if unsigned)
            p[i] = -1 - rng.integers(3)
        elif fault == 4:  # shifted up by one: 0 missing, n present
            p = p + 1
        elif fault == 5:  # two repeats that keep min and max in range
            p[i], p[j] = p[j], p[j]
            p[rng.integers(n)] = 0
        cases.append(p.astype(dtypes[int(rng.integers(len(dtypes)))]))
        cases.append(p.tolist())
    valid = 0
    for p in cases:
        values = np.asarray(p).tolist()
        if is_permutation_oracle(values):
            got = perms.as_permutation(p)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == values
            assert not np.shares_memory(got, np.asarray(p))
            valid += 1
        else:
            message = "not a bijection" if values else "need at least one atom"
            with pytest.raises(ValueError, match=message):
                perms.as_permutation(p)
    assert 1000 < valid < len(cases) - 2000
