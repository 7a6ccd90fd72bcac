import math
import random
from fractions import Fraction

import pytest

from ergolab import recurrence as rec
from ergolab.core import FinitePermutationSystem


def brute_triple(sys_, a, a1, a2, i):
    """Literal-orbit oracle: step the (inverse) map one atom at a time."""
    n = sys_.n
    inv = {v: k for k, v in enumerate(sys_.map)}
    count = 0
    for x in a.members:
        y = x
        for _ in range(abs(i)):
            y = inv[y] if i >= 0 else sys_.map[y]
        z = y
        for _ in range(abs(i)):
            z = inv[z] if i >= 0 else sys_.map[z]
        if y in a1.members and z in a2.members:
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
            sys_, sys_.image(a), sys_.image(a1), sys_.image(a2), i
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
