import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ergolab import recurrence as rec
from ergolab.core import FinitePermutationSystem

from test_core import members


def brute_triple(sys_, a, a1, a2, i):
    """Literal-orbit oracle: step the (inverse) map one atom at a time."""
    n = sys_.n
    inv = {v: k for k, v in enumerate(sys_.map)}
    count, in1, in2 = 0, members(a1), members(a2)
    for x in members(a):
        y = x
        for _ in range(abs(i)):
            y = inv[y] if i >= 0 else sys_.map[y]
        z = y
        for _ in range(abs(i)):
            z = inv[z] if i >= 0 else sys_.map[z]
        if y in in1 and z in in2:
            count += 1
    return Fraction(count, n)


def random_system(n, seed, cyclic=False):
    rng = random.Random(seed)
    if cyclic:
        return FinitePermutationSystem.random_cycle(n, seed)
    p = list(range(n))
    rng.shuffle(p)
    return FinitePermutationSystem(tuple(p))


def random_subset(n, seed):
    rng = random.Random(seed)
    return frozenset(x for x in range(n) if rng.random() < rng.uniform(0.2, 0.8))


def test_triple_intersection_examples():
    z9 = FinitePermutationSystem.cycle(9)
    a = z9.subset([0, 1])
    assert rec.triple_intersection(z9, a, a, a, 0) == a.measure
    assert rec.triple_intersection(z9, a, a, a, 3) == 0
    assert rec.triple_intersection(z9, a, a, a, 9) == a.measure
    b, c = z9.subset([0, 1, 2]), z9.subset([3, 4])
    assert rec.triple_intersection(z9, a, b, c, 9) == Fraction(0)


def rotation_pair_system(n1, n2):
    """The rotations of Z/n1 and Z/n2 acting together on pairs
    x = (x // n2, x % n2); a single cycle exactly when gcd(n1, n2) = 1."""
    return FinitePermutationSystem(
        [((x // n2 + 1) % n1) * n2 + (x % n2 + 1) % n2 for x in range(n1 * n2)]
    )


def test_triple_intersection_matches_brute_force():
    rng = random.Random(4242)
    cases = 0
    systems = [
        random_system(n, seed=n * 3 + 1, cyclic=(n % 2 == 0))
        for n in list(range(1, 26)) + [97, 128, 200]
    ] + [rotation_pair_system(4, 5), rotation_pair_system(4, 6)]
    for sys_ in systems:
        n = sys_.n
        for _ in range(2 if n <= 25 else 4):
            seed = rng.randrange(10**9)
            a = sys_.subset(random_subset(n, seed))
            a1 = sys_.subset(random_subset(n, seed + 1))
            a2 = sys_.subset(random_subset(n, seed + 2))
            for i in (0, 1, rng.randrange(0, 2 * n), -3):
                assert rec.triple_intersection(sys_, a, a1, a2, i) == brute_triple(
                    sys_, a, a1, a2, i
                ), (n, i)
            cases += 1
    assert cases >= 50


def test_furstenberg_average_examples():
    z5 = FinitePermutationSystem.cycle(5)
    a = z5.subset([0])
    avg = rec.furstenberg_average(z5, a, a, a, 5)
    assert avg.value == Fraction(1, 25)
    assert avg.product == Fraction(1, 125)

    z7 = FinitePermutationSystem.cycle(7)
    a = z7.subset([1, 4])
    full = z7.subset(range(7))
    avg = rec.furstenberg_average(z7, a, full, full, 11)
    assert avg.value == a.measure


def test_furstenberg_average_is_mean_of_triples():
    sys_ = random_system(23, seed=5)
    a = sys_.subset(random_subset(23, 1))
    a1 = sys_.subset(random_subset(23, 2))
    a2 = sys_.subset(random_subset(23, 3))
    n_h = 17
    avg = rec.furstenberg_average(sys_, a, a1, a2, n_h)
    total = sum(
        rec.triple_intersection(sys_, a, a1, a2, i) for i in range(1, n_h + 1)
    )
    assert avg.value == total / n_h
    # exactness: N * value is a multiple of 1/n^2
    assert (avg.value * n_h * 23**2).denominator == 1


def test_roth_witness_examples():
    z9 = FinitePermutationSystem.cycle(9)
    assert rec.roth_witness(z9, z9.subset([0, 1, 2]), 9) == 1
    assert rec.roth_witness(z9, z9.subset([0, 1]), 9) == 9
    assert rec.roth_witness(z9, z9.subset(range(9)), 9) == 1
    assert rec.roth_witness(z9, z9.subset([0, 1]), 8) is None
    with pytest.raises(ValueError):
        rec.roth_witness(z9, z9.subset([]), 5)


def test_roth_witness_minimality():
    for seed in range(12):
        n = 10 + seed
        sys_ = random_system(n, seed, cyclic=True)
        a = sys_.subset(random_subset(n, seed + 100) or frozenset([0]))
        w = rec.roth_witness(sys_, a, 2 * n)
        assert w is not None
        for i in range(1, w):
            assert rec.triple_intersection(sys_, a, a, a, i) == 0


def test_shift_invariance_of_triple_terms():
    for seed in range(10):
        n = 12 + seed
        sys_ = random_system(n, seed * 11, cyclic=False)
        a = sys_.subset(random_subset(n, seed))
        a1 = sys_.subset(random_subset(n, seed + 50))
        a2 = sys_.subset(random_subset(n, seed + 99))
        i = seed % 7
        before = rec.triple_intersection(sys_, a, a1, a2, i)
        after = rec.triple_intersection(
            sys_, *(sys_.subset(sys_.map[s.atoms]) for s in (a, a1, a2)), i
        )
        assert before == after


def test_average_concentrates_for_random_sets_on_prime_rotation():
    # empirical concentration of 3-progression counts, thirty seeds
    n = 101
    sys_ = FinitePermutationSystem.cycle(n)
    for seed in range(30):
        a = sys_.subset(random_subset(n, seed))
        a1 = sys_.subset(random_subset(n, seed + 1000))
        a2 = sys_.subset(random_subset(n, seed + 2000))
        avg = rec.furstenberg_average(sys_, a, a1, a2, n)
        product = a.measure * a1.measure * a2.measure
        assert abs(avg.value - product) <= Fraction(3) / int(math.isqrt(n))


def _is_single_cycle(sys_):
    try:
        sys_.walk()
    except ValueError:
        return False
    return True


def test_engine_matches_brute_force_on_every_path():
    rng = random.Random(1111)
    given = FinitePermutationSystem(FinitePermutationSystem.random_cycle(14, 2).map.tolist())
    pair = rotation_pair_system(4, 5)
    assert given._cycles is None and pair._cycles is None  # walked on first use
    systems = (
        [FinitePermutationSystem.cycle(n) for n in (1, 2, 7, 12)]
        + [FinitePermutationSystem.random_cycle(n, n + 40) for n in (1, 5, 13, 24)]
        + [given, pair, rotation_pair_system(4, 6)]
        + [random_system(n, seed=n + 7) for n in (2, 9, 16, 21)]
    )
    paths = {_is_single_cycle(s) for s in systems}
    assert paths == {True, False}
    for sys_ in systems:
        n = sys_.n
        horizon = 2 * n + 3  # past n and 2n: both rotations wrap
        drawn = [sys_.subset(random_subset(n, rng.randrange(10**9))) for _ in range(3)]
        empty, full = sys_.subset([]), sys_.subset(range(n))
        for a, a1, a2 in (drawn, (drawn[0], empty, drawn[2]), (full, full, empty), (full,) * 3):
            expect = [brute_triple(sys_, a, a1, a2, i) for i in range(1, horizon + 1)]
            assert rec.triple_profile(sys_, a, a1, a2, horizon) == expect, n
            for n_h in (1, n, horizon):
                avg = rec.furstenberg_average(sys_, a, a1, a2, n_h)
                assert avg.value == sum(expect[:n_h]) / n_h, (n, n_h)
            for i in (0, -1, -3, -(n + 2), 2 * n + 5):
                assert rec.triple_intersection(sys_, a, a1, a2, i) == brute_triple(
                    sys_, a, a1, a2, i
                ), (n, i)
            if len(a):
                hits = [
                    i for i in range(1, horizon + 1) if brute_triple(sys_, a, a, a, i)
                ]
                for i_max in range(1, horizon + 1):
                    expected = next((i for i in hits if i <= i_max), None)
                    assert rec.roth_witness(sys_, a, i_max) == expected, (n, i_max)


def lengths_system(lengths, seed):
    """Cycles of the given lengths side by side, atoms relabelled by a seeded
    shuffle so that no cycle sits on consecutive atoms."""
    starts = np.cumsum(lengths) - lengths
    p = np.concatenate([s + np.roll(np.arange(m), -1) for s, m in zip(starts, lengths)])
    label = np.random.default_rng(seed).permutation(p.size)
    relabelled = np.empty_like(p)
    relabelled[label] = label[p]
    return FinitePermutationSystem(relabelled)


def test_engine_matches_oracles_on_many_cycle_lengths():
    rng = random.Random(2718)
    cases = [list(range(1, k + 1)) for k in (3, 6, 9)] + [
        [5, 1, 5, 2, 5, 2, 1, 7],
        [rng.randrange(1, 12) for _ in range(14)],
        [1] * 17,  # the identity
    ]
    for seed, lengths in enumerate(cases):
        sys_ = lengths_system(lengths, seed)
        assert sorted(sys_.cycles()[1].tolist()) == sorted(lengths)
        n, period = sys_.n, math.lcm(*lengths)
        horizon = 2 * n + 3
        a, a1, a2 = (sys_.subset(random_subset(n, rng.randrange(10**9))) for _ in range(3))
        expect = [brute_triple(sys_, a, a1, a2, i) for i in range(1, horizon + 1)]
        assert expect == [
            Fraction(_gather_count(sys_, a, a1, a2, i), n) for i in range(1, horizon + 1)
        ]
        assert rec.triple_profile(sys_, a, a1, a2, horizon) == expect, n
        avg = rec.furstenberg_average(sys_, a, a1, a2, horizon)
        assert avg.value == sum(expect) / horizon
        for i in (0, -1, -7, -(n + 2)):
            assert rec.triple_intersection(sys_, a, a1, a2, i) == brute_triple(
                sys_, a, a1, a2, i
            ), (n, i)
        for i in (10**12 + 3, -(10**12)):  # T^period is the identity
            assert rec.triple_intersection(sys_, a, a1, a2, i) == brute_triple(
                sys_, a, a1, a2, i % period
            ), (n, i)
        if len(a):
            hits = [i for i in range(1, horizon + 1) if brute_triple(sys_, a, a, a, i)]
            assert rec.roth_witness(sys_, a, horizon) == (hits[0] if hits else None)


def test_horizon_below_one_raises():
    z5 = FinitePermutationSystem.cycle(5)
    a = z5.subset([0, 2])
    for n_h in (0, -3):
        for call in (
            lambda: rec.furstenberg_average(z5, a, a, a, n_h),
            lambda: rec.roth_witness(z5, a, n_h),
            lambda: rec.triple_profile(z5, a, a, a, n_h),
        ):
            with pytest.raises(ValueError, match="horizon must be at least 1"):
                call()


def _gather_count(sys_, a, a1, a2, i):
    """n * mu(A & T^i A1 & T^2i A2) for i >= 0, with T^-i built by squaring
    the inverse map: numpy gathers only."""
    n = sys_.n
    inv = np.empty(n, dtype=np.int64)
    inv[sys_.map] = np.arange(n)
    back, step = np.arange(n), inv
    while i:
        if i & 1:
            back = step[back]
        step, i = step[step], i >> 1
    y = back[a.atoms]
    return int(np.count_nonzero(a1.mask()[y] & a2.mask()[back[y]]))


def _gather_total(sys_, a, a1, a2, n_horizon):
    """Sum of n * mu(A & T^i A1 & T^2i A2) over i = 1..n_horizon, stepping
    the atoms of A back one time at a time."""
    inv = np.empty(sys_.n, dtype=np.int64)
    inv[sys_.map] = np.arange(sys_.n)
    in1, in2 = a1.mask(), a2.mask()
    y = z = a.atoms
    total = 0
    for _ in range(n_horizon):
        y, z = inv[y], inv[inv[z]]
        total += int(np.count_nonzero(in1[y] & in2[z]))
    return total


def test_exact_and_within_budget_at_scale():
    n = 10**5
    rng = np.random.default_rng(2024)
    for sys_ in (FinitePermutationSystem.cycle(n), FinitePermutationSystem.random_cycle(n, 9)):
        a, a1, a2 = (
            sys_.subset(np.flatnonzero(rng.random(n) < 0.3).tolist()) for _ in range(3)
        )
        for i in (1, 2, n // 2, n - 1, n, 2 * n + 3):
            assert rec.triple_intersection(sys_, a, a1, a2, i) == Fraction(
                _gather_count(sys_, a, a1, a2, i), n
            ), i
        t0 = time.perf_counter()
        avg = rec.furstenberg_average(sys_, a, a1, a2, 2000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, elapsed
        assert avg.value == Fraction(_gather_total(sys_, a, a1, a2, 2000), n * 2000)
