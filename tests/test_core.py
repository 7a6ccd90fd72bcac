import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergolab import core, perms
from ergolab.core import FinitePermutationSystem
from ergolab.errors import Infeasible
from ergolab.involutions import factor_three_involutions


def brute_force_roof_subsets(n, h, y_pos):
    """All subsets of y_pos (cycle positions) that cut the n-cycle into arcs
    of length divisible by h; the exhaustive oracle for tower feasibility."""
    if n % h == 0:
        yield ()
    for size in range(1, len(y_pos) + 1):
        for sub in combinations(sorted(y_pos), size):
            gaps = [
                (sub[(i + 1) % size] - sub[i] - 1) % n for i in range(size)
            ]
            if size == 1:
                gaps = [n - 1]
            if all(g % h == 0 for g in gaps):
                yield sub


def members(s):
    """The atoms of an AtomSet as a frozenset of Python ints."""
    return frozenset(s.atoms.tolist())


def walk_from_atom_0(p):
    """Atom 0's orbit in p's order, one step at a time: the oracle walk,
    made apart from the code under test."""
    order, j = [0], int(p[0])
    while j != 0:
        order.append(j)
        j = int(p[j])
    return order


def test_rokhlin_examples():
    sys_ = FinitePermutationSystem.cycle(12)
    t = core.rokhlin_tower(sys_, 11)
    assert t.base.atoms.tolist() == [0]
    assert t.residual.atoms.tolist() == [11]
    assert sys_.map[11] in t.base  # roof returns to the base
    assert core.validate_tower(sys_, t)

    sys_ = FinitePermutationSystem.cycle(10)
    t = core.rokhlin_tower(sys_, 3)
    assert t.base.atoms.tolist() == [0, 3, 6]
    assert t.residual.atoms.tolist() == [9]
    assert t.residual.measure == Fraction(1, 10)
    assert core.validate_tower(sys_, t)

    for n in (1, 5, 9):
        sys_ = FinitePermutationSystem.cycle(n)
        t = core.rokhlin_tower(sys_, 1)
        assert len(t.base) == n and len(t.residual) == 0


def test_rokhlin_errors():
    not_cycle = FinitePermutationSystem((1, 0, 3, 2))
    with pytest.raises(ValueError):
        core.rokhlin_tower(not_cycle, 2)
    sys_ = FinitePermutationSystem.cycle(5)
    with pytest.raises(ValueError):
        core.rokhlin_tower(sys_, 6)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            FinitePermutationSystem.cycle(n)


def test_rokhlin_residual_bound_all_small():
    for n in range(1, 21):
        sys_ = FinitePermutationSystem.random_cycle(n, seed=n)
        for h in range(1, n + 1):
            t = core.rokhlin_tower(sys_, h)
            assert core.validate_tower(sys_, t)
            assert t.residual.measure == Fraction(n % h, n)
            assert t.residual.measure < Fraction(h, n)


def test_lehrer_weiss_examples():
    sys_ = FinitePermutationSystem.cycle(7)
    t = core.lehrer_weiss_tower(sys_, 3, sys_.subset([0]))
    assert t.residual.atoms.tolist() == [0]
    assert core.validate_tower(sys_, t)

    sys_ = FinitePermutationSystem.cycle(8)
    t = core.lehrer_weiss_tower(sys_, 3, sys_.subset([0, 4]))
    assert t.residual.atoms.tolist() == [0, 4]
    assert core.validate_tower(sys_, t)

    with pytest.raises(Infeasible):
        core.lehrer_weiss_tower(sys_, 3, sys_.subset([0]))


def test_lehrer_weiss_empty_roof_when_divisible():
    sys_ = FinitePermutationSystem.cycle(9)
    t = core.lehrer_weiss_tower(sys_, 3, sys_.subset([5]))
    assert len(t.residual) == 0
    assert core.validate_tower(sys_, t)


def test_lehrer_weiss_chains_through_every_atom():
    # the roof chain holds n//2 positions; the scan keeps no stack for it
    for n in (1999, 3999):
        sys_ = FinitePermutationSystem.cycle(n)
        h = n // 2 + 1
        t = core.lehrer_weiss_tower(sys_, h, sys_.subset(range(n)))
        assert core.validate_tower(sys_, t)
        assert len(t.base) == 1 and len(t.residual) == n - h


def test_lehrer_weiss_infeasible_roof_is_linear():
    # every residue but h-2 and h-1: chains of earliest successors break
    # after h-2 positions, so no roof of n mod h = 159 atoms exists, and a
    # search that backtracks over the long chains takes seconds
    h = 160
    sys_ = FinitePermutationSystem.cycle(1599)
    y = sys_.subset(a for a in range(1599) if a % h < h - 2)
    t0 = time.perf_counter()
    with pytest.raises(Infeasible):
        core.lehrer_weiss_tower(sys_, h, y)
    assert time.perf_counter() - t0 < 1.0

    sys_ = FinitePermutationSystem.cycle(1597)
    y = sys_.subset(a for a in range(1597) if a % h < h - 2)
    t = core.lehrer_weiss_tower(sys_, h, y)
    assert core.validate_tower(sys_, t)
    assert len(t.residual) == 157


def test_lehrer_weiss_requires_nonempty_target():
    sys_ = FinitePermutationSystem.cycle(6)
    with pytest.raises(ValueError):
        core.lehrer_weiss_tower(sys_, 2, sys_.subset([]))


def test_lehrer_weiss_input_errors():
    sys_ = FinitePermutationSystem.cycle(6)
    y = sys_.subset([1, 3])
    for h in (0, -2, 7):
        with pytest.raises(ValueError, match="need 1 <= h <= n"):
            core.lehrer_weiss_tower(sys_, h, y)
    with pytest.raises(ValueError, match="different system"):
        core.lehrer_weiss_tower(sys_, 2, FinitePermutationSystem.cycle(7).subset([1, 3]))


def test_lehrer_weiss_matches_brute_force_small():
    import random

    rng = random.Random(2024)
    for n in range(2, 13):
        sys_ = FinitePermutationSystem.random_cycle(n, seed=n * 7)
        order = walk_from_atom_0(sys_.map)
        pos_of = {a: p for p, a in enumerate(order)}
        for h in range(1, n + 1):
            for _ in range(6):
                y_atoms = [a for a in range(n) if rng.random() < 0.5]
                if not y_atoms:
                    continue
                y = sys_.subset(y_atoms)
                y_pos = [pos_of[a] for a in y_atoms]
                first = next(brute_force_roof_subsets(n, h, y_pos), None)
                feasible = first is not None
                try:
                    t = core.lehrer_weiss_tower(sys_, h, y)
                except Infeasible:
                    assert not feasible, (n, h, sorted(y_pos))
                else:
                    assert feasible, (n, h, sorted(y_pos))
                    assert core.validate_tower(sys_, t)
                    assert members(t.residual) <= members(y)
                    assert len(t.residual) == n % h
                    # the oracle yields by size, then lexicographically
                    roof = sorted(pos_of[a] for a in members(t.residual))
                    assert roof == list(first)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10**6), st.data())
def test_tower_disjoint_cover_property(n, seed, data):
    sys_ = FinitePermutationSystem.random_cycle(n, seed)
    h = data.draw(st.integers(1, n))
    t = core.rokhlin_tower(sys_, h)
    level, seen = t.base.atoms, set()
    for _ in range(t.height):  # level k is T^k base, stepped along the map
        lv = set(level.tolist())
        assert not (seen & lv)
        seen |= lv
        level = sys_.map[level]
    assert not (seen & members(t.residual))
    assert len(seen) + len(t.residual) == n


def cover_oracle(p, base, height, residual):
    """Each atom lies in exactly one of the levels T^k base (0 <= k < height)
    and the residual: the brute-force set cover, one atom at a time."""
    counts = [0] * len(p)
    for a in residual:
        counts[a] += 1
    for a in base:
        for _ in range(height):
            counts[a] += 1
            a = p[a]
    return all(c == 1 for c in counts)


def test_validate_tower_rejects_overlaps_that_keep_the_count():
    # each case holds n atoms in all, so only the cover can fail
    cases = [
        (FinitePermutationSystem.cycle(4), [0, 1], 2, []),  # levels {0, 1}, {1, 2}
        (FinitePermutationSystem.cycle(4), [0], 2, [1, 3]),  # residual meets level 1
        (FinitePermutationSystem([1, 0, 3, 2]), [0, 1], 2, []),  # two 2-cycles
    ]
    for sys_, base, h, residual in cases:
        t = core.Tower(sys_.subset(base), h, sys_.subset(residual))
        assert h * len(base) + len(residual) == sys_.n
        assert not cover_oracle(sys_.map.tolist(), base, h, residual)
        assert not core.validate_tower(sys_, t), (base, h, residual)


def test_validate_tower_below_height_one_needs_the_residual_to_be_every_atom():
    sys_ = FinitePermutationSystem.cycle(5)
    for h in (0, -1, -3):
        for base in ([], [0, 1]):
            every = core.Tower(sys_.subset(base), h, sys_.subset(range(5)))
            assert core.validate_tower(sys_, every)
            short = core.Tower(sys_.subset(base), h, sys_.subset(range(4)))
            assert not core.validate_tower(sys_, short)


def test_validate_tower_matches_the_cover_oracle():
    rng = np.random.default_rng(30)
    verdicts = set()
    for trial in range(600):
        n = int(rng.integers(1, 9))
        if trial % 2:  # valid Rokhlin towers, some of them perturbed
            sys_ = FinitePermutationSystem.random_cycle(n, trial)
            t = core.rokhlin_tower(sys_, int(rng.integers(1, n + 1)))
            base, h, residual = t.base.atoms.tolist(), t.height, t.residual.atoms.tolist()
            if rng.random() < 0.5:
                a = int(rng.integers(n))
                residual = sorted(set(residual) ^ {a})
            if rng.random() < 0.3:
                h += int(rng.choice([-1, 1]))
        else:
            sys_ = FinitePermutationSystem(rng.permutation(n))
            base = np.flatnonzero(rng.random(n) < 0.4).tolist()
            residual = np.flatnonzero(rng.random(n) < 0.4).tolist()
            h = int(rng.integers(-1, n + 2))
        t = core.Tower(sys_.subset(base), h, sys_.subset(residual))
        want = cover_oracle(sys_.map.tolist(), base, h, residual)
        assert core.validate_tower(sys_, t) == want, (sys_.map.tolist(), base, h, residual)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_validate_tower_refuses_a_tower_of_another_system():
    sys_ = FinitePermutationSystem.cycle(6)
    for other in (12, 4):
        t = core.rokhlin_tower(FinitePermutationSystem.cycle(other), 3)
        with pytest.raises(ValueError, match="different system"):
            core.validate_tower(sys_, t)
    mixed = core.Tower(sys_.subset([0, 3]), 3, core.AtomSet([], 7))
    with pytest.raises(ValueError, match="different system"):
        core.validate_tower(sys_, mixed)


def test_atom_set_measure_is_computed():
    s = core.AtomSet(frozenset([0, 2, 4]), 12)
    assert s.measure == Fraction(1, 4)
    for bad in ([12], [-1], [0, 5, 12], [-1, 3, 11]):
        with pytest.raises(ValueError):
            core.AtomSet(frozenset(bad), 12)
    empty = core.AtomSet(frozenset(), 12)
    assert len(empty) == 0 and empty.measure == 0
    assert core.AtomSet(frozenset([0, 11]), 12).measure == Fraction(1, 6)
    # one sorted, distinct, read-only int64 array, whatever the input
    given = np.array([9, 4, 0, 4, 11, 9], dtype=np.int64)
    for atoms in (
        frozenset([0, 4, 9, 11]), [11, 4, 0, 9, 4], (a for a in (9, 0, 11, 4)),
        given, given.astype(np.uint8), np.array([11, 9, 4, 0], dtype=np.int32),
    ):
        s = core.AtomSet(atoms, 12)
        got = s.atoms
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == [0, 4, 9, 11]
        assert len(s) == 4 and s.measure == Fraction(1, 3)
        assert s.mask().tolist() == [a in (0, 4, 9, 11) for a in range(12)]
        assert [a for a in range(-3, 15) if a in s] == [0, 4, 9, 11]
        assert -1 not in s and 12 not in s and 2**70 not in s and -(2**70) not in s
    assert given.flags.writeable and given.tolist() == [9, 4, 0, 4, 11, 9]
    # a repeat is dropped from the shortest inputs too
    for atoms, distinct in (([5, 5], [5]), ([5, 5, 5], [5]), ([7, 3, 7], [3, 7]), ([5], [5])):
        s = core.AtomSet(atoms, 12)
        assert s.atoms.tolist() == distinct and s.measure == Fraction(len(distinct), 12)
    for empty in ([], frozenset(), np.array([], dtype=np.int64), iter(())):
        e = core.AtomSet(empty, 12)
        assert len(e) == 0 and e.measure == 0 and e.atoms.dtype == np.int64
        assert 0 not in e and not e.mask().any()
    # out of int64 range (numpy would make object or float arrays of these),
    # or not integers at all
    for bad in (
        [2**64], [-1, 2**63], [-(2**65)], [2**70, 3], np.array([12], np.uint64),
        [1.5], [True], np.array([0.0]),
    ):
        with pytest.raises(ValueError, match="atom index out of range"):
            core.AtomSet(bad, 12)


WALK_SIZES = (1, 2, 3, 11, 12, 997)
WALK_SEEDS = (0, 1, 7, 2**31 - 1)


def test_constructors_carry_the_walk_from_atom_0():
    systems = [FinitePermutationSystem.cycle(n) for n in WALK_SIZES] + [
        FinitePermutationSystem.random_cycle(n, seed)
        for n in WALK_SIZES
        for seed in WALK_SEEDS
    ]
    for sys_ in systems:
        order = sys_.walk()
        assert order.dtype == np.int64 and not order.flags.writeable
        assert order[0] == 0
        assert order.tolist() == walk_from_atom_0(sys_.map)
    assert FinitePermutationSystem.cycle(12).walk().tolist() == list(range(12))


def test_random_cycle_map_steps_along_the_seeded_permutation():
    # the map steps along the seeded permutation itself: rotating the kept
    # order to atom 0 must not move a single byte of it
    for n in WALK_SIZES:
        for seed in WALK_SEEDS:
            order = np.random.default_rng(seed).permutation(n)
            p = np.empty(n, dtype=np.int64)
            p[order] = np.roll(order, -1)
            got = FinitePermutationSystem.random_cycle(n, seed).map
            assert got.dtype == np.int64 and got.tobytes() == p.tobytes()
        assert FinitePermutationSystem.cycle(n).map.tolist() == np.roll(
            np.arange(n), -1
        ).tolist()
    with pytest.raises(ValueError):
        FinitePermutationSystem.random_cycle(0, 1)


def _tower_sets(build, *args):
    """(base, residual) of the tower `build(*args)`, or None if Infeasible."""
    try:
        t = build(*args)
    except Infeasible:
        return None
    return t.base.atoms.tolist(), t.residual.atoms.tolist()


def test_caller_map_matches_the_constructor_it_copies():
    rng = np.random.default_rng(5)
    feasible_roofs = 0
    for built in (
        FinitePermutationSystem.cycle(997),
        FinitePermutationSystem.random_cycle(997, 3),
        FinitePermutationSystem.random_cycle(12, 8),
    ):
        given = FinitePermutationSystem(built.map.tolist())
        n = given.n
        assert given.walk().tolist() == built.walk().tolist()
        assert given.walk() is given.walk()  # walked once, then kept
        assert not given.walk().flags.writeable
        y_atoms = rng.choice(n, size=n // 2, replace=False).tolist()
        for h in (1, 2, 3, 11, n):
            rokhlin = [_tower_sets(core.rokhlin_tower, s, h) for s in (built, given)]
            roofed = [
                _tower_sets(core.lehrer_weiss_tower, s, h, s.subset(y_atoms))
                for s in (built, given)
            ]
            assert rokhlin[0] == rokhlin[1] and roofed[0] == roofed[1]
            feasible_roofs += roofed[0] is not None and len(roofed[0][1]) > 0
        triples = [factor_three_involutions(s) for s in (built, given)]
        for name in ("s1", "s2", "s3"):
            a, b = (getattr(t, name) for t in triples)
            assert a.tobytes() == b.tobytes()
    assert feasible_roofs >= 5


def test_caller_non_cycle_raises_from_every_walk():
    for p in ((1, 0, 3, 2), (0, 1), (0,) + tuple(range(2, 12)) + (1,)):
        sys_ = FinitePermutationSystem(p)
        for _ in range(2):  # the kept short orbit raises again
            with pytest.raises(ValueError, match="single n-cycle"):
                sys_.walk()
        with pytest.raises(ValueError, match="single n-cycle"):
            core.rokhlin_tower(sys_, 1)
        with pytest.raises(ValueError, match="single n-cycle"):
            core.lehrer_weiss_tower(sys_, 1, sys_.subset([0]))
        with pytest.raises(ValueError, match="single n-cycle"):
            factor_three_involutions(sys_)


def test_non_cycle_is_walked_once(monkeypatch):
    calls = []
    cycles = perms.cycles

    def counted(p):
        calls.append(p.size)
        return cycles(p)

    monkeypatch.setattr(perms, "cycles", counted)
    # atom 0 on a 600-cycle, the other 400 atoms on a second cycle
    two_cycles = np.r_[np.roll(np.arange(600), -1), 600 + np.roll(np.arange(400), -1)]
    sys_ = FinitePermutationSystem(two_cycles)
    for _ in range(2):
        with pytest.raises(ValueError, match="single n-cycle"):
            sys_.walk()
    assert calls == [1000]
    # a caller-given single cycle is walked once too, and keeps its order
    cyc = FinitePermutationSystem(np.roll(np.arange(50), -1))
    assert cyc.walk() is cyc.walk()
    assert calls == [1000, 50]


CONTRACT_SIZES = (1, 2, 3, 11, 12, 1000, 99991)


def test_walk_built_systems_are_frozen_bijections_with_their_walk(monkeypatch):
    checked = []
    as_permutation = perms.as_permutation

    def counted(p):
        checked.append(len(p))
        return as_permutation(p)

    monkeypatch.setattr(perms, "as_permutation", counted)
    systems = [FinitePermutationSystem.cycle(n) for n in CONTRACT_SIZES] + [
        FinitePermutationSystem.random_cycle(n, seed)
        for n in CONTRACT_SIZES
        for seed in WALK_SEEDS
    ]
    assert checked == []  # built maps skip the caller check
    for sys_ in systems:
        order, lengths = sys_.cycles()
        for a in (sys_.map, order, lengths):
            assert a.dtype == np.int64 and not a.flags.writeable
        assert sys_.map.tobytes() == as_permutation(sys_.map).tobytes()
        walked_order, walked_lengths = perms.cycles(sys_.map)
        assert order.tobytes() == walked_order.tobytes()
        assert lengths.tolist() == walked_lengths.tolist() == [sys_.n]
        assert sys_.walk() is order


def test_caller_maps_are_checked_and_copied():
    with pytest.raises(TypeError):
        FinitePermutationSystem(np.arange(3), None)  # the listing is keyword-only
    for bad in ((0, 0, 1), np.array([2, 0, 2]), np.array([1, 1], dtype=np.uint8)):
        with pytest.raises(ValueError, match="not a bijection"):
            FinitePermutationSystem(bad)
    source = np.array([2, 0, 1], dtype=np.int64)
    sys_ = FinitePermutationSystem(source)
    assert source.flags.writeable and not sys_.map.flags.writeable
    source[:] = [0, 1, 2]
    assert sys_.map.tolist() == [2, 0, 1] and sys_._cycles is None
    assert sys_.walk().tolist() == [0, 2, 1]


def test_towers_compare_and_hash_by_identity():
    t = core.rokhlin_tower(FinitePermutationSystem.cycle(12), 5)
    same_fields = core.Tower(t.base, t.height, t.residual)
    assert t == t and same_fields != t and not (same_fields == t)
    assert len({t, same_fields, t}) == 2 and hash(t) == hash(t)
