import gc
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from ergolab import cli
from ergolab import rank_one as r1
from ergolab.errors import DesignError


# intervals [10^j, 2*10^j], j = 2..6: the decades construction
DECADES = [(10**j, 2 * 10**j) for j in range(2, 7)]


def geometric_spec(stages, h1=1):
    """Spacers s_j = h_j, the smallest growth the deviation results need."""
    hs = [h1]
    spacers = []
    for _ in range(stages):
        spacers.append(hs[-1])
        hs.append(3 * hs[-1])
    return r1.RankOneSpec(h1, tuple(spacers))


def occupancy_oracle(spec, a, stage):
    """Stage tower as an explicit cell mask built by the cut-and-stack
    recursion: mask_{j+1} = mask_j ++ mask_j ++ zeros(s_j), with
    s_j = h_{j+1} - 2*h_j."""
    hs = r1.heights(spec, stage)
    mask = np.zeros(hs[a.stage - 1], dtype=bool)
    mask[list(a.levels)] = True
    for j in range(a.stage - 1, stage - 1):
        mask = np.concatenate(
            [mask, mask, np.zeros(hs[j + 1] - 2 * hs[j], dtype=bool)]
        )
    return mask


def correlation_oracle(spec, a, n, stage):
    """Count overlaps of the mask with its n-shift; exact when no occupied
    cell sits in the top n levels."""
    mask = occupancy_oracle(spec, a, stage)
    if n == 0:
        return int(mask.sum()) * r1.level_width(stage)
    assert not mask[len(mask) - n:].any(), "oracle stage too shallow"
    hits = int((mask[:-n] & mask[n:]).sum())
    return hits * r1.level_width(stage)


def test_heights_examples():
    assert r1.heights(r1.RankOneSpec(1, (3,)), 2) == [1, 5]
    spec = r1.RankOneSpec(1, (0,) * 11)
    assert r1.heights(spec, 12) == [2**j for j in range(12)]
    design = r1.design_spacers(DECADES, 1)
    hs = r1.heights(design.spec, design.spec.max_stage)
    for h, (lo, hi) in zip(hs[1:], DECADES):
        assert lo <= h <= hi


def test_heights_validation():
    # past the explicit spacers the construction continues with s_j = h_j
    spec = r1.RankOneSpec(1, (3,))
    assert spec.max_stage == 2
    assert r1.heights(spec, 4) == [1, 5, 15, 45]
    assert r1.heights(r1.RankOneSpec(2, ()), 3) == [2, 6, 18]
    with pytest.raises(ValueError):
        r1.heights(spec, 0)
    with pytest.raises(ValueError):
        r1.RankOneSpec(0, (1,))
    with pytest.raises(ValueError):
        r1.RankOneSpec(1, (-1,))
    for stage in (0, -1):
        with pytest.raises(ValueError, match="stage must be positive"):
            r1.LevelSet(stage, frozenset([0]))


def test_correlation_zero_time_is_measure():
    spec = geometric_spec(4)
    a = r1.LevelSet(2, frozenset([0, 2]))
    assert r1.correlation(spec, a, 0, 4) == a.measure() == Fraction(2, 2)
    # D(0) counts A's levels at every working stage
    for a in (r1.LevelSet(1, frozenset()), r1.LevelSet(3, frozenset([2, 5, 6]))):
        for stage in range(a.stage, 7):
            assert r1.correlation(spec, a, 0, stage) == a.measure(), (a, stage)


def test_halving_at_stage_heights():
    spec = geometric_spec(13)
    for j in range(1, 13):
        hj = r1.heights(spec, j)[-1]
        a = r1.LevelSet(j, frozenset([0]))
        assert r1.correlation(spec, a, hj, j + 1) == a.measure() / 2
    # unions of levels halve too
    a = r1.LevelSet(3, frozenset([0, 4, 7]))
    h3 = r1.heights(spec, 3)[-1]
    assert r1.correlation(spec, a, h3, 4) == a.measure() / 2


def test_halving_with_single_spacer():
    # one spacer per stage is already enough for the level-0 set
    spec = r1.RankOneSpec(1, tuple([1, 3, 9, 27, 81]))
    a = r1.LevelSet(1, frozenset([0]))
    h1 = 1
    assert r1.correlation(spec, a, h1, 2) == a.measure() / 2


def test_correlation_against_occupancy_oracle():
    spec = geometric_spec(8)
    cases = [
        (r1.LevelSet(1, frozenset([0])), 5),
        (r1.LevelSet(2, frozenset([1, 2])), 6),
        (r1.LevelSet(3, frozenset([0, 3, 8])), 7),
        (r1.LevelSet(4, frozenset([5, 11, 20])), 7),
    ]
    for a, stage in cases:
        h_top = r1.heights(spec, stage)[-1]
        safe = h_top - int(occupancy_oracle(spec, a, stage).nonzero()[0].max())
        for n in range(0, min(safe, 260)):
            got = r1.correlation(spec, a, n, stage)
            assert got == correlation_oracle(spec, a, n, stage), (a, n)


def test_correlation_series_matches_pointwise(tmp_path):
    spec = geometric_spec(9)
    a = r1.LevelSet(2, frozenset([0, 1]))
    series = r1.correlation_series(spec, a, 120)
    for n in range(121):
        assert series.value(n) == correlation_oracle(spec, a, n, 8)
    out = tmp_path / "corr.csv"
    spacers = ",".join(map(str, spec.spacers))
    assert cli.main(["rankone", "correlate", "--h1", "1", "--spacers", spacers,
                     "--A", "2:0,1", "--n-max", "120", "--out", str(out)]) == 0
    csv = out.read_text()
    assert csv.splitlines()[0] == "n,numerator,denominator"
    assert csv.splitlines()[1] == f"0,{a.measure().numerator},{a.measure().denominator}"
    assert csv.splitlines()[1:] == [
        f"{n},{v.numerator},{v.denominator}" for n, v in series.entries
    ]


def series_oracle(spec, a, n_max, stage):
    """Correlation series from the occupancy mask, one shift per n."""
    return [correlation_oracle(spec, a, n, stage) for n in range(n_max + 1)]


def test_series_matches_occupancy_oracle_on_random_specs():
    rng = random.Random(20210405)
    covered = set()
    for _ in range(60):
        h1 = rng.randint(1, 4)
        hs, spacers = [h1], []
        for _ in range(rng.randint(1, 4)):
            # zero spacers (stages that add no gap) among growing ones
            spacers.append(rng.choice([0, 0, 1, rng.randint(0, 3 * hs[-1])]))
            hs.append(2 * hs[-1] + spacers[-1])
        a_stage = rng.randint(1, len(hs))
        size = rng.randint(1, min(6, hs[a_stage - 1]))
        a = r1.LevelSet(a_stage, frozenset(rng.sample(range(hs[a_stage - 1]), size)))
        n_max = rng.randint(0, 80)
        # continued past the certifying stage, so deeper stages exist
        prefix = r1.RankOneSpec(h1, tuple(spacers))
        spec = r1.extend_spec(prefix, a, 4 * n_max + 9)
        stage = r1.min_exact_stage(spec, a, n_max)
        series = r1.correlation_series(spec, a, n_max)
        # the written-out tail changes nothing
        assert r1.min_exact_stage(prefix, a, n_max) == stage
        assert r1.correlation_series(prefix, a, n_max) == series
        if stage > prefix.max_stage:
            covered.add("past the explicit spacers")
        assert [n for n, _ in series.entries] == list(range(n_max + 1))
        assert all(type(v) is Fraction for _, v in series.entries)
        assert [v for _, v in series.entries] == series_oracle(spec, a, n_max, stage)
        for deeper in range(stage + 1, spec.max_stage + 1):
            assert [
                r1.correlation(spec, a, n, deeper) for n in range(1, n_max + 1)
            ] == [series.value(n) for n in range(1, n_max + 1)]
            covered.add("deeper")
        top = max(a.levels) + sum(r1.heights(spec, stage)[a_stage - 1 : -1])
        if top - min(a.levels) < n_max:
            covered.add("past the largest difference")
        # the set's own stage certifies times below its distance to the top
        own = r1.heights(spec, a_stage)[-1] - max(a.levels) - 1
        got = r1.correlation_series(spec, a, own)
        assert [v for _, v in got.entries] == series_oracle(spec, a, own, a_stage)
        if own > max(a.levels) - min(a.levels):
            covered.add("own stage past the largest difference")
        covered.add("zero spacer" if 0 in spacers else "growth only")
    assert covered == {
        "deeper", "past the largest difference", "past the explicit spacers",
        "own stage past the largest difference", "zero spacer", "growth only",
    }


def test_series_of_a_large_base_set_matches_oracle():
    spec = geometric_spec(6, h1=1000)
    assert r1.heights(spec, 2) == [1000, 3000]
    rng = random.Random(7)
    a = r1.LevelSet(2, frozenset(rng.sample(range(2999), 399)) | {2999})
    assert len(a.levels) == 400
    n_max = 1500
    stage = r1.min_exact_stage(spec, a, n_max)
    series = r1.correlation_series(spec, a, n_max)
    assert all(type(v) is Fraction for _, v in series.entries)
    assert [v for _, v in series.entries] == series_oracle(spec, a, n_max, stage)
    assert [r1.correlation(spec, a, n, stage + 2) for n in range(1, n_max + 1)] == [
        series.value(n) for n in range(1, n_max + 1)
    ]


def test_series_with_levels_far_apart_in_a_tall_tower():
    # the difference span is about 10^12 while the stage-2 set has 4 levels
    h = 10**12
    spec = r1.RankOneSpec(h, (h, h))
    a = r1.LevelSet(1, frozenset([h - 2, h - 1]))
    series = r1.correlation_series(spec, a, 5)
    assert r1.min_exact_stage(spec, a, 5) == 2
    for n in range(6):
        assert series.value(n) == r1.correlation(spec, a, n, 2), n
    assert [v for _, v in series.entries] == [2, 1, 0, 0, 0, 0]


def _decades_series(n_max):
    """The series of acceptance test_04: one stage-1 level, stages designed
    into the decades [10^j, 2*10^j], j = 2..6."""
    spec = r1.design_spacers(DECADES, 1).spec
    return r1.correlation_series(spec, r1.LevelSet(1, frozenset([0])), n_max)


def test_long_series_holds_no_object_per_time():
    n_max = 10**5
    _decades_series(10)  # lazy set-up inside numpy is not the series' own
    gc.collect()
    before = len(gc.get_objects())
    series = _decades_series(n_max)
    grown = len(gc.get_objects()) - before
    assert len(series.entries) == n_max + 1
    # the shared Fractions, one per distinct count, plus O(1)
    assert grown <= 1000, grown


def reference_values(spec, a, n_max):
    """The series' values by another route: counts grown from A's own
    levels over every step to the working stage, far ones included,
    np.unique for the distinct counts, one product with the level width per
    distinct count and a Python call per time to pick each shared value."""
    stage = r1.min_exact_stage(spec, a, n_max)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if a.levels:
        d = r1._grown_differences(
            np.array(sorted(a.levels), dtype=np.int64),
            r1.heights(spec, stage)[a.stage - 1 : -1],
            n_max,
        )[: n_max + 1]
        counts[: len(d)] = d
    distinct = np.unique(counts)
    w = r1.level_width(stage)
    shared = [c * w for c in distinct.tolist()]
    return list(map(shared.__getitem__, np.searchsorted(distinct, counts).tolist()))


def reference_series(spec, a, n_max):
    return r1.CorrelationSeries(tuple(enumerate(reference_values(spec, a, n_max))))


def benchmark_series_cases():
    """(name, spec, A, n_max) for the three benchmark constructions: a set
    of the given size and stage that holds its stage's top level, and the
    horizon the benchmark asks of it."""
    rng = random.Random(19)
    squares = r1.design_spacers(r1.gap_intervals((k * k for k in range(1, 400)), 9), 1)
    decades = r1.design_spacers(DECADES, 1)
    shapes = (
        ("squares", squares.spec, 3, 12, 10**4),
        ("decades", decades.spec, 3, 384, 10**5),
        ("geometric", geometric_spec(13), 5, 48, 5000),
    )
    for name, spec, stage, size, n_max in shapes:
        top = r1.heights(spec, stage)[-1] - 1
        a = r1.LevelSet(stage, frozenset([top] + rng.sample(range(top), size - 1)))
        yield name, r1.extend_spec(spec, a, n_max), a, n_max


def test_series_matches_the_unique_and_product_reference(monkeypatch):
    pair_sizes = []
    real = r1._pair_differences
    monkeypatch.setattr(
        r1, "_pair_differences",
        lambda s, length: pair_sizes.append(len(s)) or real(s, length),
    )
    cases = list(benchmark_series_cases()) + [
        ("empty A", geometric_spec(6), r1.LevelSet(3, frozenset()), 40),
        ("n_max = 0", geometric_spec(6), r1.LevelSet(2, frozenset([0, 2])), 0),
        # one level and no time past 0: a single distinct count
        ("one count", r1.RankOneSpec(4, ()), r1.LevelSet(1, frozenset([3])), 0),
        # levels far apart in a tower just above them: their gap is clamped
        # at n_max + 1, and the grown set's short span takes the recursion
        ("sparse", r1.RankOneSpec(10**6 + 1, (0, 0)),
         r1.LevelSet(1, frozenset([0, 10**6])), 10),
        # the same set at a horizon past its size squared: the clamped span
        # is long next to the grown set, so its pairs are counted directly
        ("pairs", r1.RankOneSpec(10**6 + 1, (0, 0)),
         r1.LevelSet(1, frozenset([0, 10**6])), 10**4),
        # 2^15 levels at the working stage: the table of counts is far
        # longer than the series
        ("long table", r1.RankOneSpec(1, (0,) * 14), r1.LevelSet(1, frozenset([0])), 3),
        # counts 0-4 and 8, none of 5-7: the unused slots are never read
        ("holes", r1.RankOneSpec(100, ()), r1.LevelSet(1, frozenset([0, 10, 30, 60])), 70),
    ]
    rng = random.Random(1904)
    for _ in range(40):
        spec = r1.RankOneSpec(rng.randint(1, 5), tuple(rng.randint(0, 4) for _ in range(3)))
        stage = rng.randint(1, 3)
        h = r1.heights(spec, stage)[-1]
        a = r1.LevelSet(stage, frozenset(rng.sample(range(h), rng.randint(0, min(h, 5)))))
        cases.append(("random", spec, a, rng.randint(0, 60)))
    covered = set()
    for name, spec, a, n_max in cases:
        pair_sizes.clear()
        got = r1.correlation_series(spec, a, n_max)
        if pair_sizes and len(a.levels) > 1:
            covered.add("pairs" if pair_sizes[0] > len(a.levels) else "recursion")
        values = [v for _, v in got.entries]
        assert got.entries == reference_series(spec, a, n_max).entries, name
        assert all(type(v) is Fraction for v in values), name
        # one shared object per distinct value
        assert len({id(v) for v in values}) == len(set(values)), name
        if name == "one count":
            assert values == [Fraction(1)]
        width = r1.level_width(r1.min_exact_stage(spec, a, n_max))
        used = {v / width for v in values}
        if name == "long table":
            assert max(used) == 2**15 and len(values) == 4
        if name == "holes":
            assert used == {0, 1, 2, 3, 4, 8}
        levels = sorted(a.levels)
        if any(m - l > n_max + 1 for l, m in zip(levels, levels[1:])):
            covered.add("clamped")
        if levels:
            span = levels[-1] - levels[0]
            for h in r1.heights(spec, r1.min_exact_stage(spec, a, n_max))[a.stage - 1 : -1]:
                if h - span > n_max:
                    covered.add("far step")
                    break
                span += h
    assert covered == {"pairs", "recursion", "far step", "clamped"}


def test_sparse_series_matches_pointwise_queries(monkeypatch):
    # two levels far apart and k zero spacers: the gap is clamped at
    # n_max + 1, so the recursion runs over a short array instead of
    # counting the pairs of the |A| * 2^(k+1) grown levels
    pair_sizes, lengths = [], []
    pairs, grown = r1._pair_differences, r1._grown_differences
    monkeypatch.setattr(
        r1, "_pair_differences",
        lambda s, length: pair_sizes.append(len(s)) or pairs(s, length),
    )
    monkeypatch.setattr(
        r1, "_grown_differences",
        lambda s, steps, n_max: lengths.append(len(d := grown(s, steps, n_max))) or d,
    )
    a = r1.LevelSet(1, frozenset([0, 10**6]))
    n_max = 10
    for k in range(3, 15):
        spec = r1.RankOneSpec(10**6 + 1, (0,) * k)
        pair_sizes.clear()
        lengths.clear()
        series = r1.correlation_series(spec, a, n_max)
        assert max(pair_sizes) <= len(a.levels), k
        assert max(lengths) < 16 * 2**k * (n_max + 1), k
        stage = r1.min_exact_stage(spec, a, n_max)
        assert [v for _, v in series.entries] == [
            r1.correlation(spec, a, n, stage) for n in range(n_max + 1)
        ], k
        assert series.value(1) == 1 - Fraction(1, 2 ** (k + 1))


def min_exact_stage_reference(spec, a, n_max):
    """The certifying stage found by trying each stage in turn, with the
    heights and A's top level recomputed from h1 for every candidate."""
    stage = a.stage + 1
    while (hs := r1.heights(spec, stage))[-1] - r1._top_level(hs, a) <= n_max:
        stage += 1
    return stage


def test_min_exact_stage_matches_the_stage_by_stage_search():
    rng = random.Random(20260419)
    covered = set()
    for _ in range(400):
        spec = r1.RankOneSpec(
            rng.randint(1, 6),
            tuple(rng.choice([0, 1, rng.randint(0, 20)]) for _ in range(rng.randint(0, 6))),
        )
        stage = rng.randint(1, spec.max_stage + 2)
        place = (stage > spec.max_stage) - (stage < spec.max_stage)
        covered.add(("below", "at", "past")[place + 1])
        h = r1.heights(spec, stage)[-1]
        a = r1.LevelSet(stage, frozenset(rng.sample(range(h), rng.randint(0, min(h, 6)))))
        n_max = rng.choice([0, rng.randint(0, 10), rng.randint(0, 10**4)])
        covered.add("n_max = 0" if n_max == 0 else "n_max > 0")
        covered.add("empty" if not a.levels else "levels")
        assert r1.min_exact_stage(spec, a, n_max) == min_exact_stage_reference(spec, a, n_max)
    assert covered == {"below", "at", "past", "n_max = 0", "n_max > 0", "empty", "levels"}
    # the set is checked once, with the errors of the stage-by-stage search
    spec = geometric_spec(3)
    for levels, message in (([0, -1], "negative level index"), ([3], "outside its stage tower")):
        for search in (r1.min_exact_stage, min_exact_stage_reference):
            with pytest.raises(ValueError, match=message):
                search(spec, r1.LevelSet(2, frozenset(levels)), 5)


def test_series_past_int64_step_heights_matches_pointwise():
    cases = [
        # the first step height is 2^63: D only doubles from there on
        (r1.RankOneSpec(2**63, ()), r1.LevelSet(1, frozenset([0, 5])), 8),
        # 63 zero spacers reach h_64 = 2^63 with a one-level set
        (r1.RankOneSpec(1, (0,) * 66), r1.LevelSet(64, frozenset([0])), 8),
        # levels themselves past int64, read as offsets from the least one
        (r1.RankOneSpec(2**65, (3,)), r1.LevelSet(1, frozenset([2**64, 2**64 + 3])), 7),
    ]
    for spec, a, n_max in cases:
        stage = r1.min_exact_stage(spec, a, n_max)
        series = r1.correlation_series(spec, a, n_max)
        assert [v for _, v in series.entries] == [
            r1.correlation(spec, a, n, stage) for n in range(n_max + 1)
        ]
    assert [v for _, v in r1.correlation_series(*cases[0]).entries] == [
        2, 0, 0, 0, 0, 1, 0, 0, 0,
    ]
    assert r1.correlation_series(*cases[1]).value(0) == Fraction(1, 2**63)


def test_series_of_a_set_spanning_int64_matches_pointwise():
    for spec, a, head in (
        # A itself spans 2^63 levels
        (r1.RankOneSpec(2**63 + 1, ()), r1.LevelSet(1, frozenset([0, 2**63])),
         [2, Fraction(1, 2)]),
        # A spans less, but its first copy lies within n_max of it
        (r1.RankOneSpec(3 * 2**61, (0,)), r1.LevelSet(1, frozenset([0, 3 * 2**61 - 1])),
         [2, Fraction(3, 4)]),
    ):
        stage = r1.min_exact_stage(spec, a, 8)
        values = [v for _, v in r1.correlation_series(spec, a, 8).entries]
        assert values == head + [0] * 7
        assert values == [r1.correlation(spec, a, n, stage) for n in range(9)]
        assert values == [propagated_correlation(spec, a, n, stage) for n in range(9)]
    # gaps of 2^62 at a horizon of 2^63 are not clamped: the set's own
    # span leaves int64 offsets, and the series raises rather than wraps
    spec, a = r1.RankOneSpec(2**63 + 1, ()), r1.LevelSet(1, frozenset([0, 2**62, 2**63]))
    with pytest.raises(ValueError, match="clamped level set spans 2\\^63 levels"):
        r1.correlation_series(spec, a, 2**63)


def test_series_pairs_read_as_a_tuple_of_pairs():
    series = _decades_series(300)
    pairs = tuple(series.entries)
    entries = series.entries
    assert len(entries) == len(pairs) == 301
    assert [entries[n] for n in range(301)] == list(pairs)
    assert entries[-1] == pairs[-1] == (300, series.value(300))
    assert entries[-301] == pairs[0]
    for n in (301, -302):
        with pytest.raises(IndexError):
            entries[n]
    assert list(entries) == list(entries) == list(pairs)
    assert entries == pairs and pairs == entries
    assert entries == list(pairs) and not entries != pairs
    assert entries != pairs[:-1] and pairs[:-1] != entries
    changed = list(pairs)
    changed[100] = (100, changed[100][1] + Fraction(1, 2**40))
    assert entries != tuple(changed) and tuple(changed) != entries
    assert entries != changed
    again = _decades_series(300)
    assert again == series and hash(again) == hash(series)
    assert hash(entries) == hash(pairs)
    # built from a tuple of pairs, as the benchmark's checks build one
    built = r1.CorrelationSeries(pairs)
    assert [built.value(n) for n in range(301)] == [series.value(n) for n in range(301)]
    assert built == series and series == built and hash(built) == hash(series)
    assert r1.CorrelationSeries(tuple(changed)) != series
    # a value that is no sequence is left to its own equality
    for other in (None, 301, {n: v for n, v in pairs}):
        assert entries.__eq__(other) is NotImplemented
        assert entries != other and not entries == other


def _three_level_series(n_max):
    """Levels 0, 7 and 100 of stage 2 of the decades construction: the set
    grown for n_max = 10^6 spans 166,750 levels."""
    spec = r1.design_spacers(DECADES, 1).spec
    return r1.correlation_series(spec, r1.LevelSet(2, frozenset([0, 7, 100])), n_max)


def test_series_tail_past_the_span_matches_the_reference():
    decades = next(c for c in benchmark_series_cases() if c[0] == "decades")
    spec = r1.design_spacers(DECADES, 1).spec
    cases = [
        decades,
        ("three levels", spec, r1.LevelSet(2, frozenset([0, 7, 100])), 10**6),
        ("empty A", spec, r1.LevelSet(3, frozenset()), 1000),
    ]
    for name, spec, a, n_max in cases:
        entries = r1.correlation_series(spec, a, n_max).entries
        stored = len(entries.values)
        assert len(entries) == n_max + 1, name
        # most of the horizon lies past the grown set's span
        assert stored <= n_max // 5, name
        expected = reference_values(spec, a, n_max)
        assert all(
            p == (n, v) and type(p[1]) is Fraction
            for p, n, v in zip(entries, range(n_max + 1), expected, strict=True)
        ), name
        zero = entries.zero
        assert zero == 0 and type(zero) is Fraction, name
        # every tail entry is the one shared zero, also read by index
        assert all(v is zero for _, v in islice(entries, stored, None)), name
        assert all(entries[n][1] is zero for n in (stored, (stored + n_max) // 2, n_max)), name
        # and it is the object a stored zero count maps to
        assert all(v is zero for v in entries.values if v == 0), name


def test_series_cost_follows_the_span_not_the_horizon():
    n_max = 10**6
    _three_level_series(10)  # lazy set-up inside numpy is not the series' own
    tracemalloc.start()
    try:
        series = _three_level_series(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a value per time holds 8 MB of references alone, and an int64 count
    # per time 8 MB more
    assert peak < 8 * 2**20, peak
    assert len(series.entries) == n_max + 1
    assert len(series.entries.values) == 166_751


def test_equal_series_may_store_different_prefixes():
    # levels 0 and 50 in a tower of height 51 span past n_max = 10, so the
    # series stores its trailing zeros
    a = r1.LevelSet(1, frozenset([0, 50]))
    series = r1.correlation_series(r1.RankOneSpec(51, ()), a, 10)
    entries = series.entries
    assert [v for _, v in entries] == [2, Fraction(1, 2)] + [0] * 9
    assert len(entries.values) == 11
    short = r1._Pairs(entries.values[:2], 11, entries.zero)
    assert short.values != entries.values
    assert short == entries and entries == short and not short != entries
    assert hash(short) == hash(entries)
    assert r1.CorrelationSeries(short) == series
    # negative controls: a changed tail value, zero or length is unequal
    long = _three_level_series(3000).entries
    values, length, zero = long.values, len(long), long.zero
    assert len(values) < length - 1
    for other in (
        r1._Pairs(
            values + (zero,) * (length - len(values) - 1) + (Fraction(1, 2**40),),
            length, zero,
        ),
        r1._Pairs(values, length, Fraction(1, 2**40)),
        r1._Pairs(values, length + 1, zero),
        r1._Pairs(values, length - 1, zero),
    ):
        assert other != long and long != other and not other == long
    # zeros that no time reads do not count: both prefixes cover the length
    full = entries.values
    other_zero = r1._Pairs(full, len(full), Fraction(1, 2**40))
    assert other_zero == entries and entries == other_zero


def test_series_slices_read_as_tuple_slices():
    entries = _three_level_series(400).entries
    pairs = tuple(entries)
    assert entries[1:3] == pairs[1:3] == ((1, pairs[1][1]), (2, pairs[2][1]))
    stored, length = len(entries.values), len(entries)
    assert 0 < stored < length
    bounds = (
        None, 0, 5, stored - 3, stored, stored + 3, length, length + 9,
        -1, -(length - stored) - 2, -length - 9,
    )
    for start, stop, step in product(bounds, bounds, (None, 1, 2, 7, -1, -3)):
        s = slice(start, stop, step)
        got = entries[s]
        assert type(got) is tuple and got == pairs[s], s
    # a slice that crosses from the stored values into the zero tail
    assert entries[stored - 2 : stored + 2] == (
        (stored - 2, entries.values[-2]), (stored - 1, entries.values[-1]),
        (stored, entries.zero), (stored + 1, entries.zero),
    )
    assert entries[::-1] == pairs[::-1] and entries[-1:-4:-1][0] == (length - 1, entries.zero)
    with pytest.raises(ValueError):
        entries[::0]


def propagated_levels(spec, a, stage):
    """Level indices of `a` in the stage tower, grown by S -> S + (S + h_j)."""
    s = frozenset(a.levels)
    for h in r1.heights(spec, stage)[a.stage - 1 : -1]:
        s |= {x + h for x in s}
    return s


def propagated_correlation(spec, a, n, stage):
    """Hits, the levels l with l + n in the propagated set, times the width."""
    levels = propagated_levels(spec, a, stage)
    return sum(l + n in levels for l in levels) * r1.level_width(stage)


def correlation_reference(spec, a, n, stage):
    """(value, rule) for 0 < n < h_stage from propagated level sets: the value
    is certified when no level lies in the top n, and UNSTABLE otherwise,
    also when stage - 1 gives the same value."""
    hs = r1.heights(spec, stage)
    if all(l + n < hs[-1] for l in propagated_levels(spec, a, stage)):
        return propagated_correlation(spec, a, n, stage), "certified"
    if stage - 1 >= a.stage and n < hs[-2] and propagated_correlation(
        spec, a, n, stage - 1
    ) == propagated_correlation(spec, a, n, stage):
        return r1.UNSTABLE, "stages agree, mass at the top"
    return r1.UNSTABLE, "unstable"


def test_correlation_matches_propagated_sets_on_random_specs():
    rng = random.Random(20210406)
    covered = set()
    for _ in range(300):
        spacers = [rng.choice([0, 1, rng.randint(0, 6)]) for _ in range(rng.randint(0, 4))]
        spec = r1.RankOneSpec(rng.randint(1, 3), tuple(spacers))
        stage = rng.randint(1, spec.max_stage + 3)
        hs = r1.heights(spec, stage)
        a_stage = rng.randint(1, stage)
        size = rng.randint(1, min(5, hs[a_stage - 1]))
        a = r1.LevelSet(a_stage, frozenset(rng.sample(range(hs[a_stage - 1]), size)))
        for n in rng.sample(range(1, hs[-1]), min(8, hs[-1] - 1)):
            value, rule = correlation_reference(spec, a, n, stage)
            assert r1.correlation(spec, a, n, stage) == value, (spec, a, n, stage)
            covered.add(rule)
            if stage > spec.max_stage and value is not r1.UNSTABLE:
                covered.add("past the explicit spacers")
    assert covered == {
        "certified", "stages agree, mass at the top", "unstable",
        "past the explicit spacers",
    }


def test_stage_agreement_is_no_certificate():
    spec = r1.RankOneSpec(2, (3, 1, 3, 5, 3))
    a = r1.LevelSet(1, frozenset([1]))
    # the propagated sets give 0 at stages 2 and 3, then 1/8 from stage 4 on
    assert [propagated_correlation(spec, a, 6, j) for j in range(2, 7)] == [
        0, 0, Fraction(1, 8), Fraction(1, 8), Fraction(1, 8),
    ]
    assert r1.min_exact_stage(spec, a, 6) == 4
    assert correlation_reference(spec, a, 6, 3) == (
        r1.UNSTABLE, "stages agree, mass at the top"
    )
    assert r1.correlation(spec, a, 6, 3) is r1.UNSTABLE
    assert r1.correlation(spec, a, 6, 4) == r1.correlation(spec, a, 6, 6) == Fraction(1, 8)


def test_every_returned_correlation_is_the_certified_value():
    rng = random.Random(1)
    returned = 0
    for _ in range(20_000):
        spacers = tuple(rng.randint(0, 6) for _ in range(rng.randint(0, 5)))
        spec = r1.RankOneSpec(rng.randint(1, 3), spacers)
        stage = rng.randint(1, spec.max_stage + 2)
        hs = r1.heights(spec, stage)
        if hs[-1] < 2:
            continue
        a_stage = rng.randint(1, stage)
        h = hs[a_stage - 1]
        a = r1.LevelSet(a_stage, frozenset(rng.sample(range(h), rng.randint(1, min(3, h)))))
        n = rng.randrange(1, hs[-1])
        value = r1.correlation(spec, a, n, stage)
        if value is r1.UNSTABLE:
            continue
        returned += 1
        deep = max(stage, r1.min_exact_stage(spec, a, n))
        assert correlation_reference(spec, a, n, deep) == (value, "certified"), (
            spec, a, n, stage
        )
    assert returned > 1000, returned


def test_levels_outside_their_stage_tower_raise():
    # time 0 takes the same checks as the other times
    spec = geometric_spec(3)
    for levels, message in (([0, -1], "negative level index"), ([3], "outside its stage tower")):
        a = r1.LevelSet(2, frozenset(levels))
        for n in (0, 1):
            with pytest.raises(ValueError, match=message):
                r1.correlation(spec, a, n, 3)
        with pytest.raises(ValueError, match=message):
            r1.correlation_series(spec, a, 2)
    for n in (0, 1):
        with pytest.raises(ValueError, match="working stage is shallower"):
            r1.correlation(spec, r1.LevelSet(4, frozenset([0])), n, 3)


def test_correlation_unstable_without_spacers():
    # no spacers: every level stays occupied, counts never settle
    spec = r1.RankOneSpec(1, (0,) * 10)
    a = r1.LevelSet(1, frozenset([0]))
    assert r1.correlation(spec, a, 3, 6) is r1.UNSTABLE


def test_correlation_time_out_of_range():
    spec = geometric_spec(4)
    a = r1.LevelSet(1, frozenset([0]))
    with pytest.raises(ValueError):
        r1.correlation(spec, a, r1.heights(spec, 4)[-1] + 1, 4)
    with pytest.raises(ValueError):
        r1.correlation(spec, a, -1, 4)


def test_series_horizon_must_be_non_negative():
    spec = geometric_spec(4)
    for a in (r1.LevelSet(2, frozenset([0, 1])), r1.LevelSet(2, frozenset())):
        for n_max in (-1, -5):
            with pytest.raises(ValueError, match="n_max must be non-negative"):
                r1.correlation_series(spec, a, n_max)
        # n_max = 0 is the one-entry series mu(A)
        assert r1.correlation_series(spec, a, 0).entries == ((0, a.measure()),)


def exhaustive_signed_sums(hs, max_terms):
    """All values of signed sums with strictly decreasing stages."""
    vals = {}
    idx = range(len(hs))
    for m in range(1, max_terms + 1):
        for stages in product(idx, repeat=m):
            if any(stages[i] <= stages[i + 1] for i in range(m - 1)):
                continue
            for signs in product((1, -1), repeat=m):
                if signs[0] != 1:
                    continue  # leading term is positive
                v = sum(s * hs[j] for s, j in zip(signs, stages))
                vals.setdefault(v, (signs, stages))
    return vals


def test_decomposition_examples():
    spec = geometric_spec(8)
    hs = r1.heights(spec, 8)
    one = Fraction(1)

    d = r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), one)
    assert d.terms == ((1, 5),) and d.remainder == 0

    n = hs[4] + hs[2] - hs[1]
    d = r1.nonmixing_decomposition(n, hs, Fraction(1, 16), one)
    assert d.terms == ((1, 5), (1, 3), (-1, 2)) and d.remainder == 0

    # genuinely sparse spacers: midway times have no short representation
    sparse = r1.design_spacers(DECADES, 1)
    shs = r1.heights(sparse.spec, sparse.spec.max_stage)
    mid = (shs[2] + shs[3]) // 2
    assert r1.nonmixing_decomposition(mid, shs, Fraction(1, 4), one) is None
    sums = exhaustive_signed_sums(shs, 2)
    assert mid not in sums


def test_decomposition_greedy_matches_exhaustive_reachability():
    sparse = r1.design_spacers(DECADES, 1)
    hs = r1.heights(sparse.spec, sparse.spec.max_stage)
    sums = exhaustive_signed_sums(hs, 2)
    for n in range(1, 2000):
        d = r1.nonmixing_decomposition(n, hs, Fraction(1, 4), Fraction(1))
        assert (d is not None) == (n in sums), n
        if d is not None:
            total = sum(s * hs[j - 1] for s, j in d.terms)
            assert total + d.remainder == n
            assert d.remainder == 0
            js = [j for _, j in d.terms]
            assert js == sorted(js, reverse=True)


def test_decomposition_term_bound():
    spec = geometric_spec(8)
    hs = r1.heights(spec, 8)
    n = hs[5] + hs[3] - hs[1]
    # threshold mu(A)/4 allows only two terms: three-term times fall out
    assert r1.nonmixing_decomposition(n, hs, Fraction(1, 4), Fraction(1)) is None
    d = r1.nonmixing_decomposition(n, hs, Fraction(1, 8), Fraction(1))
    assert d is not None and len(d.terms) == 3


def test_decomposition_remainder_cap_must_be_non_negative():
    hs = r1.heights(geometric_spec(8), 8)
    for cap in (-1, -3):
        for n in (hs[4], hs[4] + 1):
            with pytest.raises(ValueError, match="remainder cap must be non-negative"):
                r1.nonmixing_decomposition(n, hs, Fraction(1, 4), Fraction(1), cap)
    d = r1.nonmixing_decomposition(hs[4] + 1, hs, Fraction(1, 4), Fraction(1), 1)
    assert d.terms == ((1, 5),) and d.remainder == 1


def test_decomposition_measure_must_be_positive():
    hs = r1.heights(geometric_spec(8), 8)
    for mu in (Fraction(0), Fraction(-1), Fraction(-3, 2)):
        with pytest.raises(ValueError, match="measure must be positive"):
            r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), mu)
    for c in (Fraction(0), Fraction(-1, 4), 0.0, -math.inf):
        with pytest.raises(ValueError, match="threshold must be positive"):
            r1.nonmixing_decomposition(hs[4], hs, c, Fraction(1))
    # mu above 1 is valid: stage-1 levels have width 1
    d = r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), Fraction(3))
    assert d.terms == ((1, 5),) and d.term_bound == 3


def reference_decomposition(n, hs, c, mu_a, remainder_cap=0, closer=operator.lt):
    """The greedy decomposition by a descending scan over the open stages,
    which keeps the first height `closer` to the remainder than the best so
    far (so operator.lt gives a tie to the larger stage), and the term
    bound by halving mu_a until it falls below c. The inputs are taken as
    valid."""
    m_bound = 0
    while Fraction(mu_a, 2 ** (m_bound + 1)) >= c:
        m_bound += 1
    if m_bound == 0:
        return None
    remaining = n
    terms = []
    next_j = len(hs) - 1
    while remaining != 0 and abs(remaining) > remainder_cap and len(terms) < m_bound:
        best = None
        for j in range(next_j, -1, -1):
            gain = abs(abs(remaining) - hs[j])
            if best is None or closer(gain, best[0]):
                best = (gain, j)
        if best is None or best[0] >= abs(remaining):
            break
        sign = 1 if remaining > 0 else -1
        j = best[1]
        terms.append((sign, j + 1))
        remaining -= sign * hs[j]
        next_j = j - 1
    if abs(remaining) > remainder_cap or not terms:
        return None
    return tuple(terms), remaining, m_bound


def decomposition_cases(rng, count):
    """(n, hs, c, mu_a, cap): random strictly increasing heights and those
    of the geometric and decades specs; times at heights, at midpoints
    between neighbours (ties when the sum is even), off signed sums and
    random, of either sign; mu_a / c at, just below and just above a power
    of two, a float c among them."""
    decades = r1.design_spacers(DECADES, 1).spec
    specs = [r1.heights(geometric_spec(12), 13), r1.heights(decades, decades.max_stage)]
    eps = Fraction(1, 10**9)
    for _ in range(count):
        if rng.random() < 0.3:
            hs = rng.choice(specs)
        else:
            top = rng.choice((40, 1000, 10**6))
            hs = sorted(rng.sample(range(1, top), rng.randrange(min(15, top - 1))))
        kind = rng.randrange(5)
        if len(hs) < 2 or kind == 0:
            n = rng.randrange(-2 * (hs[-1] if hs else 9), 2 * (hs[-1] if hs else 9) + 1)
        else:
            j = rng.randrange(len(hs) - 1)
            mid = (hs[j] + hs[j + 1]) // 2
            if kind == 1:
                n = hs[j + 1]
            elif kind == 2:
                n = mid
            else:
                # a larger height, then a tie or a height below it
                k = rng.randrange(j + 1, len(hs))
                n = hs[k] + rng.choice((1, -1)) * (mid if kind == 3 else hs[j])
            n += rng.choice((0, 0, 0, 1, -1))
        n *= rng.choice((1, -1))
        mu = Fraction(rng.randrange(1, 64), rng.randrange(1, 64))
        c = mu / 2 ** rng.randrange(8) * rng.choice((1, 1, 1 - eps, 1 + eps))
        if rng.random() < 0.1:
            c = float(c)
        yield n, hs, c, mu, rng.choice((0, 1, 5, 100))


def _fields(d):
    return None if d is None else (d.terms, d.remainder, d.term_bound)


def test_decomposition_matches_the_scan_reference():
    cases = list(decomposition_cases(random.Random(27), 20_000))
    decomposed = 0
    tie_breaks = 0
    for n, hs, c, mu, cap in cases:
        expected = reference_decomposition(n, hs, c, mu, cap)
        got = _fields(r1.nonmixing_decomposition(n, hs, c, mu, cap))
        assert got == expected, (n, hs, c, mu, cap)
        decomposed += got is not None
        # negative control: a tie to the smaller stage decomposes otherwise
        tie_breaks += reference_decomposition(n, hs, c, mu, cap, operator.le) != expected
    assert decomposed > 4000, decomposed
    assert tie_breaks > 500, tie_breaks


def test_decomposition_input_contract():
    hs = r1.heights(geometric_spec(8), 8)
    one = Fraction(1)

    def bound(c, mu):
        return r1.nonmixing_decomposition(hs[4], hs, c, mu).term_bound

    # a float threshold is compared as the binary fraction it holds:
    # 0.1 lies above 1/10, so 2/5 halved twice falls below it
    assert bound(0.1, one) == 3 and bound(1e-300, one) == 996
    assert bound(0.1, Fraction(2, 5)) == 1 and bound(Fraction(1, 10), Fraction(2, 5)) == 2
    for c in (math.inf, math.nan):
        assert r1.nonmixing_decomposition(hs[4], hs, c, one) is None
    with pytest.raises(TypeError):
        r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), 0.5)
    expected = r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), one)
    for mu in (1, True):
        assert r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 4), mu) == expected
    for bad in ([1, 3, 3, 9], [1, 9, 3], (5, 4)):
        with pytest.raises(ValueError, match="heights must be strictly increasing"):
            r1.nonmixing_decomposition(3, bad, Fraction(1, 4), one)
    for n in (0, 3, -3):
        assert r1.nonmixing_decomposition(n, [], Fraction(1, 4), one) is None
    t0 = time.perf_counter()
    d = r1.nonmixing_decomposition(hs[4], hs, Fraction(1, 2**14000), one)
    assert time.perf_counter() - t0 < 2.0
    assert d.term_bound == 14000 and d.terms == ((1, 5),)


def test_design_spacers_examples():
    d = r1.design_spacers([(100, 200)], 1)
    assert d.heights == (1, 150) and d.spec.spacers == (148,)

    fam = [(10**j, 2 * 10**j) for j in range(2, 8)]
    d = r1.design_spacers(fam, 1)
    assert d.heights[1] == 150 and d.spec.spacers[0] == 148
    hs = r1.heights(d.spec, d.spec.max_stage)
    for h, s in zip(hs[:-1], d.spec.spacers):
        assert s >= h

    with pytest.raises(DesignError):
        r1.design_spacers([(10, 20), (15, 40)], 1)  # overlapping
    with pytest.raises(DesignError):
        r1.design_spacers([(10, 20), (30, 35)], 1)  # lengths not increasing
    with pytest.raises(DesignError):
        r1.design_spacers([(2, 4)], 100)  # midpoint far below 3 * h1
    with pytest.raises(DesignError, match="no intervals given"):
        r1.design_spacers([])
    for bad in ((20, 10), (0, 5), (-3, 5)):
        with pytest.raises(DesignError, match="interval 1 is malformed"):
            r1.design_spacers([(1, 2), bad], 1)


def test_design_spacers_skips_dense_prefix():
    # first interval is too close to support the growth step, later ones work
    d = r1.design_spacers([(4, 6), (100, 200)], 2)
    assert d.selected == (1,)
    assert d.heights == (2, 150)


def test_gap_intervals_squares():
    gaps = r1.gap_intervals((k * k for k in range(1, 100)), 4)
    prev_hi = 0
    prev_len = 0
    squares = {k * k for k in range(1, 100)}
    for lo, hi in gaps:
        assert lo > prev_hi
        assert hi - lo + 1 > prev_len
        prev_hi, prev_len = hi, hi - lo + 1
        for v in range(lo, hi + 1):
            assert v not in squares


def test_gap_intervals_powers_of_two():
    gaps = r1.gap_intervals((2**k for k in range(1, 40)), 5)
    assert len(gaps) == 5
    for (lo, hi), (lo2, _) in zip(gaps, gaps[1:]):
        assert hi < lo2


def test_gap_intervals_errors():
    with pytest.raises(DesignError):
        r1.gap_intervals(iter(range(1000)), 2)  # gapless sequence
    with pytest.raises(DesignError):
        r1.gap_intervals(iter([]), 1)
    with pytest.raises(ValueError):
        r1.gap_intervals(iter([3, 3, 4]), 1)
    for count in (0, -2):
        with pytest.raises(ValueError, match="count must be positive"):
            r1.gap_intervals(iter([1, 4, 9, 16]), count)


def test_gap_intervals_stop_after_the_scan_cap(monkeypatch):
    squares = [k * k for k in range(1, 100)]
    assert len(r1.gap_intervals(iter(squares), 4)) == 4
    monkeypatch.setattr(r1, "SCAN_CAP", 2)
    with pytest.raises(DesignError, match="scan budget 2"):
        r1.gap_intervals(iter(squares), 4)


def test_design_from_gap_intervals_avoids_sequence():
    seq = [k * k for k in range(1, 400)]
    gaps = r1.gap_intervals(iter(seq), 8)
    design = r1.design_spacers(gaps, 1)
    hs = r1.heights(design.spec, design.spec.max_stage)
    assert all(h not in set(seq) for h in hs[1:])


def test_extend_spec_reaches_horizon():
    d = r1.design_spacers([(100, 200)], 1)
    a = r1.LevelSet(2, frozenset([5]))
    spec = r1.extend_spec(d.spec, a, 5000)
    series = r1.correlation_series(spec, a, 5000)
    assert series.value(150) == a.measure() / 2
