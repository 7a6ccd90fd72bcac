"""Seeded job lists for the three workloads.

A job is one operation on the program: `run` is the timed call and
`check` judges its result with `oracles`, never with a stored copy. The
seed chooses the contents of the inputs (which atoms, levels, cycles and
sets); the shape of every job (sizes, stages, horizons) is fixed, so each
pass does the same amount of work whatever the seed.

Program calls go through module attributes at call time (`lab.rank_one.
correlation_series(...)`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"

WORKLOADS = ("inv-factor", "rankone-series", "cli-mix")


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    outputs: list[str] = field(default_factory=list)  # removed before each run


def build(name: str, seed: int, lab, out_dir: str) -> list[Job]:
    rng = random.Random(f"{name}:{seed}")
    if name == "inv-factor":
        return inv_factor(rng, lab)
    if name == "rankone-series":
        return rankone_series(rng, lab)
    if name == "cli-mix":
        return cli_mix(rng, lab, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def _verdict(ok: bool) -> str:
    return OK if ok else WRONG


# ------------------------------------------------------------------ inv-factor


def inv_factor(rng: random.Random, lab) -> list[Job]:
    """100 single cycles, one per size stratum of [11, 10^5], as in the
    acceptance involution job: build, factor, verify."""
    width = (10**5 - 11 + 1) / 100
    params = [
        (rng.randrange(11 + int(i * width), 11 + int((i + 1) * width)), rng.randrange(2**31))
        for i in range(100)
    ]
    rng.shuffle(params)
    return [factor_job(lab, n, seed) for n, seed in params]


def factor_job(lab, n: int, seed: int) -> Job:
    def run():
        sys_ = lab.core.FinitePermutationSystem.random_cycle(n, seed)
        triple = lab.involutions.factor_three_involutions(sys_)
        return sys_.map, triple, triple.verify(sys_.map)

    def check(result):
        target, t, verified = result
        return _verdict(
            verified is True and len(target) == n
            and oracles.involution_triple_ok(target, t.s1, t.s2, t.s3)
        )

    return Job("factor", run, check)


# -------------------------------------------------------------- rankone-series

SQUARES = [k * k for k in range(1, 400)]
DECADES = [(10**j, 2 * 10**j) for j in range(2, 7)]
GEOMETRIC_STAGES = 15


@dataclass(frozen=True)
class Construction:
    """A rank-one spec built by the program, and the spacers the benchmark
    derives on its own (the sparse tail s_j = h_j continues both)."""

    name: str
    spacers: tuple[int, ...]  # the benchmark's own; h1 = 1 throughout
    make_spec: Callable  # (lab, level set, horizon) -> RankOneSpec
    series_shape: tuple[int, int, int]  # (stage of A, levels in A, n_max)
    point_stage: int  # stage of the point-query level sets
    point_levels: int
    depth: int  # deepest stage the point queries use


def _squares_spec(lab, a, horizon):
    r1 = lab.rank_one
    design = r1.design_spacers(r1.gap_intervals(iter(SQUARES), 9), 1)
    return r1.extend_spec(design.spec, a, horizon)


def _decades_spec(lab, a, horizon):
    r1 = lab.rank_one
    return r1.extend_spec(r1.design_spacers(DECADES, 1).spec, a, horizon)


def _geometric_spec(lab, a, horizon):
    hs = oracles.rank_one_heights(1, (), GEOMETRIC_STAGES)
    return lab.rank_one.RankOneSpec(1, tuple(hs[:-1]))


CONSTRUCTIONS = (
    # the working stage holds 1536 levels for every series: 12 * 2^7,
    # 384 * 2^2 and 48 * 2^5
    Construction(
        "squares", tuple(oracles.spacer_design(oracles.gap_intervals(SQUARES, 9), 1)[0]),
        _squares_spec, (3, 12, 10**4), 3, 8, 13,
    ),
    Construction(
        "decades", tuple(oracles.spacer_design(DECADES, 1)[0]),
        _decades_spec, (3, 384, 10**5), 2, 16, 9,
    ),
    Construction("geometric", (), _geometric_spec, (5, 48, 5000), 3, 8, 14),
)
POINT_HORIZON = 10**7  # deepens the designed specs to at least `depth` stages
SERIES_PER_CONSTRUCTION = 4
POINTS_PER_CONSTRUCTION = 20
DECOMPOSITIONS_PER_CONSTRUCTION = 10
TIMES_PER_DECOMPOSITION = 12


def _level_set(rng, hs, stage: int, size: int) -> list[int]:
    """`size` stage levels including the top one, so the working stage that
    certifies a horizon does not depend on the seed."""
    top = hs[stage - 1] - 1
    return sorted([top] + rng.sample(range(top), size - 1))


def _point_queries(hs, a_stage: int, depth: int) -> list[tuple[int, int]]:
    """(time, working stage): stage heights one stage up (certified),
    differences of consecutive heights at their own stage (mass crosses the
    top, usually UNSTABLE), sums one stage up, heights two stages up."""
    q = [(hs[j - 1], j + 1) for j in range(a_stage, depth)]
    q += [(hs[j - 1] - hs[j - 2], j) for j in range(a_stage + 1, depth + 1)]
    q += [(hs[j - 1] + hs[j - 2], j + 1) for j in range(a_stage + 1, depth)]
    q += [(hs[j - 1], j + 2) for j in range(a_stage, depth - 1)]
    return q[:POINTS_PER_CONSTRUCTION]


def series_job(lab, c: Construction, hs, rng) -> Job:
    a_stage, size, n_max = c.series_shape
    levels = _level_set(rng, hs, a_stage, size)

    def run():
        r1 = lab.rank_one
        a = r1.LevelSet(a_stage, frozenset(levels))
        spec = c.make_spec(lab, a, n_max)
        return r1.correlation_series(spec, a, n_max)

    def check(series):
        values = [v for _, v in series.entries]
        return _verdict(
            [n for n, _ in series.entries] == list(range(n_max + 1))
            and oracles.series_ok(values, 1, c.spacers, a_stage, levels, n_max)
        )

    return Job(f"series-{c.name}", run, check)


def point_job(lab, c: Construction, hs, rng, n: int, stage: int) -> Job:
    levels = _level_set(rng, hs, c.point_stage, c.point_levels)

    def run():
        r1 = lab.rank_one
        a = r1.LevelSet(c.point_stage, frozenset(levels))
        spec = c.make_spec(lab, a, POINT_HORIZON)
        return r1.correlation(spec, a, n, stage)

    def check(value):
        return _verdict(oracles.point_correlation_ok(
            value, repr(value) == "UNSTABLE", 1, c.spacers, c.point_stage, levels, n, stage,
        ))

    return Job(f"point-{c.name}", run, check)


def decomposition_job(lab, c: Construction, hs, rng) -> Job:
    """Signed-height decompositions of non-mixing times (sums and
    differences of stage heights) at threshold mu/4."""
    a_stage, size, _ = c.series_shape
    mu = Fraction(size, 2 ** (a_stage - 1))
    threshold = mu / 4
    top = c.depth
    times = []
    for _ in range(TIMES_PER_DECOMPOSITION):
        j = rng.randrange(2, top + 1)
        i = rng.randrange(1, j)
        times.append(rng.choice([hs[j - 1], hs[j - 1] + hs[i - 1], hs[j - 1] - hs[i - 1]]))
    heights_set = set(hs[:top])

    def run():
        r1 = lab.rank_one
        a = r1.LevelSet(c.point_stage, frozenset([hs[c.point_stage - 1] - 1]))
        spec = c.make_spec(lab, a, POINT_HORIZON)
        stage_heights = r1.heights(spec, top)
        return stage_heights, [
            r1.nonmixing_decomposition(n, stage_heights, threshold, mu) for n in times
        ]

    def check(result):
        stage_heights, decs = result
        if list(stage_heights) != hs[:top]:
            return WRONG
        for n, dec in zip(times, decs):
            if dec is None:
                if n in heights_set:  # a stage height is its own decomposition
                    return WRONG
                continue
            if not oracles.decomposition_ok(
                n, dec.terms, dec.remainder, dec.term_bound, hs[:top], mu, threshold, 0
            ):
                return WRONG
        return OK

    return Job(f"decompose-{c.name}", run, check)


def rankone_series(rng: random.Random, lab) -> list[Job]:
    jobs = []
    for c in CONSTRUCTIONS:
        hs = oracles.rank_one_heights(1, c.spacers, c.depth + 2)
        for _ in range(SERIES_PER_CONSTRUCTION):
            jobs.append(series_job(lab, c, hs, rng))
        for n, stage in _point_queries(hs, c.point_stage, c.depth):
            jobs.append(point_job(lab, c, hs, rng, n, stage))
        for _ in range(DECOMPOSITIONS_PER_CONSTRUCTION):
            jobs.append(decomposition_job(lab, c, hs, rng))
    return jobs


# --------------------------------------------------------------------- cli-mix


def _invoke(lab, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = lab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue()


def _load_json(path: str):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read_lines(path: str) -> list[list[str]]:
    with open(path, encoding="ascii") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


class _CliMix:
    """Builds the cli-mix job list; `answer_exists` says whether a correct
    run exits 0 (False: the correct answer is a refusal with exit 1)."""

    def __init__(self, rng: random.Random, lab, out_dir: str):
        self.rng, self.lab, self.out_dir = rng, lab, out_dir
        self.jobs: list[Job] = []

    def add(self, kind: str, argv: list[str], ext: str, answer_exists, valid) -> str:
        out = os.path.join(self.out_dir, f"{len(self.jobs):03d}-{kind}.{ext}")
        argv = [str(a) for a in argv] + ["--out", out]
        lab = self.lab

        def check(result):
            rc, _ = result
            exists = answer_exists() if callable(answer_exists) else answer_exists
            if rc != 0:
                return FAILED if exists or rc != 1 else OK
            return _verdict(exists and os.path.exists(out + ".manifest.json") and valid(out))

        self.jobs.append(Job(kind, lambda: _invoke(lab, argv), check, [out, out + ".manifest.json"]))
        return out

    # -- towers ------------------------------------------------------------
    def towers(self):
        rng = self.rng
        for n in (24, 40, 60, 97, 128, 150, 200, 256, 301, 333, 400, 450, 512, 577, 600, 640):
            h = rng.randrange(2, n)

            def valid(out, n=n, h=h):
                p = _load_json(out)
                return (
                    p["n"] == n and p["height"] == h and p["valid"] is True
                    and len(p["residual"]) == n % h
                    and _frac(p["residual_measure"]) == Fraction(n % h, n)
                    and oracles.tower_partition_ok(n, h, p["base"], p["residual"])
                )

            self.add("tower-rokhlin", ["tower", "--n", n, "--h", h], "json", True, valid)
        for i in range(18):
            n = 6 + i % 7
            h = rng.randrange(2, n + 1)
            y = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))

            def valid(out, n=n, h=h, y=y):
                p = _load_json(out)
                return (
                    p["height"] == h and p["valid"] is True
                    and set(p["residual"]) <= set(y)
                    and oracles.tower_partition_ok(n, h, p["base"], p["residual"])
                )

            self.add(
                "tower-roof", ["tower", "--n", n, "--h", h, "--y", ",".join(map(str, y))],
                "json", lambda n=n, h=h, y=y: oracles.roof_feasible(n, h, y), valid,
            )
        # known fault: the residual-chain search recurses once per chained
        # position, so a 1999-position chain overflows the interpreter stack
        n, h = 3999, 2000

        def valid_big(out):
            p = _load_json(out)
            return p["valid"] is True and oracles.tower_partition_ok(n, h, p["base"], p["residual"])

        self.add(
            "tower-roof-deep", ["tower", "--n", n, "--h", h, "--y", ",".join(map(str, range(n)))],
            "json", True, valid_big,
        )

    # -- recurrence -------------------------------------------------------
    def recurrence(self):
        rng = self.rng
        for i in range(6):
            n, horizon = 4000, 400
            sets = [sorted(rng.sample(range(n), n // 3)) for _ in range(3)]
            if i < 3:
                sets[1] = sets[2] = sets[0]
            a, a1, a2 = sets

            def valid(out, n=n, horizon=horizon, a=a, a1=a1, a2=a2):
                p = _load_json(out)
                total = sum(oracles.rotation_counts(n, a, a1, a2, horizon))
                return (
                    p["N"] == horizon
                    and _frac(p["value"]) == Fraction(total, n * horizon)
                    and _frac(p["product"]) == Fraction(len(a) * len(a1) * len(a2), n**3)
                )

            argv = ["recurrence", "average", "--n", n, "--A", ",".join(map(str, a)), "--N", horizon]
            if i >= 3:
                argv += ["--A1", ",".join(map(str, a1)), "--A2", ",".join(map(str, a2))]
            self.add("recurrence-average", argv, "json", True, valid)
        n, horizon = 3000, 300
        # witnesses planned at step w: A holds multiples of w (w divides n)
        # and one 3-term progression of step w, so no smaller step can work
        for w in (100, 150, 200, 250):
            base = rng.randrange(0, n, w)
            a = {base, (base + w) % n, (base + 2 * w) % n}
            a |= set(rng.sample(range(0, n, w), n // w // 3))
            self._witness(n, horizon, sorted(a))
        x = rng.randrange(n)
        self._witness(n, horizon, sorted({x, (x + rng.randrange(1, n)) % n}))
        for _ in range(4):
            n, horizon = 1500, 150
            a, a1, a2 = (sorted(rng.sample(range(n), n // 3)) for _ in range(3))

            def valid(out, n=n, horizon=horizon, a=a, a1=a1, a2=a2):
                counts = oracles.rotation_counts(n, a, a1, a2, horizon)
                rows = _read_lines(out)
                return [[int(t) for t in r] for r in rows] == [
                    [i, Fraction(c, n).numerator, Fraction(c, n).denominator]
                    for i, c in enumerate(counts, start=1)
                ]

            self.add(
                "recurrence-profile",
                ["recurrence", "profile", "--n", n, "--A", ",".join(map(str, a)),
                 "--A1", ",".join(map(str, a1)), "--A2", ",".join(map(str, a2)), "--N", horizon],
                "csv", True, valid,
            )

    def _witness(self, n, horizon, a):
        def valid(out):
            counts = oracles.rotation_counts(n, a, a, a, horizon)
            expected = next((i for i, c in enumerate(counts, start=1) if c > 0), None)
            p = _load_json(out)
            return p["witness"] == expected and p["i_max"] == horizon

        self.add(
            "recurrence-witness",
            ["recurrence", "witness", "--n", n, "--A", ",".join(map(str, a)), "--N", horizon],
            "json", True, valid,
        )

    # -- involutions ------------------------------------------------------
    def involutions(self):
        sizes = [(n, self.rng.randrange(2**31)) for n in (3000, 6000, 10000, 15000, 20000, 30000)]
        for n, seed in sizes + [(5000, None)]:

            def valid(out, n=n, seed=seed):
                p = _load_json(out)
                target = p["map"]
                if seed is None and target != [(i + 1) % n for i in range(n)]:
                    return False
                return (
                    p["n"] == n and p["verified"] is True and oracles.is_single_cycle(target)
                    and oracles.involution_triple_ok(target, p["s1"], p["s2"], p["s3"])
                )

            argv = ["involutions", "--n", n] + ([] if seed is None else ["--seed", seed])
            self.add("involutions", argv, "json", True, valid)

    # -- rank one ---------------------------------------------------------
    def _intervals(self, count: int) -> list[tuple[int, int]]:
        """Increasing intervals of strictly increasing length; the first
        midpoint is at least 3, so it admits a spacer >= h1 = 1."""
        rng = self.rng
        out, lo, length = [], rng.randrange(3, 30), rng.randrange(0, 10)
        for _ in range(count):
            out.append((lo, lo + length))
            lo = lo + length + rng.randrange(1, 3 * (lo + length))
            length += rng.randrange(1, 2 * length + 4)
        return out

    def rankone(self):
        rng = self.rng
        for _ in range(4):
            intervals = self._intervals(6)
            spacers, selected = oracles.spacer_design(intervals, 1)

            def valid(out, intervals=intervals, spacers=spacers, selected=selected):
                p = _load_json(out)
                return (
                    p["h1"] == 1 and p["spacers"] == spacers
                    and p["selected_intervals"] == selected
                    and p["heights"] == [1] + [(intervals[i][0] + intervals[i][1]) // 2 for i in selected]
                )

            self.add("rankone-design", ["rankone", "design", "--intervals", _fmt(intervals)],
                     "json", True, valid)
        sequences = [[k * k for k in range(1, 300)], [k**3 for k in range(1, 60)]]
        for _ in range(2):
            seq, x = [], rng.randrange(1, 10)
            for k in range(200):
                seq.append(x)
                x += rng.randrange(1, k + 3)
            sequences.append(seq)
        for seq in sequences:
            available = len(oracles.gap_intervals(seq, len(seq)))
            count = rng.randrange(max(1, available - 3), available + 1)
            expected = oracles.gap_intervals(seq, count)

            def valid(out, expected=expected):
                return [(d["lo"], d["hi"]) for d in _load_json(out)] == expected

            self.add("rankone-gaps", ["rankone", "gaps", "--sequence", ",".join(map(str, seq)),
                                      "--count", count], "json", True, valid)
        for i in range(4):
            spacers = self._spacers(8)
            hs = oracles.rank_one_heights(1, spacers, len(spacers) + 1)
            times = []
            for _ in range(6):
                j = rng.randrange(2, len(hs) + 1)
                k = rng.randrange(1, j)
                times.append(rng.choice([hs[j - 1], hs[j - 1] + hs[k - 1], hs[j - 1] - hs[k - 1]]))
            cap = 2 * (i % 2)
            mu, c = Fraction(1, 2), Fraction(1, 8)

            def valid(out, hs=hs, times=times, cap=cap, mu=mu, c=c):
                rows = _load_json(out)
                if [r["n"] for r in rows] != times:
                    return False
                for r in rows:
                    dec = r["decomposition"]
                    if dec is None:
                        if r["n"] in hs:
                            return False
                        continue
                    if any(t["height"] != hs[t["stage"] - 1] for t in dec):
                        return False
                    terms = [(t["sign"], t["stage"]) for t in dec]
                    if not oracles.decomposition_ok(
                        r["n"], terms, r["remainder"], r["term_bound"], hs, mu, c, cap
                    ):
                        return False
                return True

            self.add("rankone-decompose", [
                "rankone", "decompose", "--spacers", ",".join(map(str, spacers)),
                "--times", ",".join(map(str, times)), "--mu-num", 1, "--mu-den", 2,
                "--c-num", 1, "--c-den", 8, "--remainder-cap", cap,
            ], "json", True, valid)
        n_max = 2000
        for _ in range(2):
            intervals = self._intervals(5)
            spacers, _ = oracles.spacer_design(intervals, 1)
            stage = len(spacers) + 1
            level = rng.randrange(oracles.rank_one_heights(1, spacers, stage)[-1])
            self._correlate(["--spacers", "auto", "--intervals", _fmt(intervals),
                             "--A", f"level:{level}"], spacers, stage, [level], n_max)
        for _ in range(2):
            spacers = self._spacers(12)
            hs = oracles.rank_one_heights(1, spacers, len(spacers) + 1)
            levels = sorted(rng.sample(range(hs[2]), 3))
            self._correlate(["--spacers", ",".join(map(str, spacers)),
                             "--A", "3:" + ",".join(map(str, levels))], spacers, 3, levels, n_max)
        # known fault: an explicit spec too shallow for the horizon is
        # refused, although the construction continues with s_j = h_j
        self._correlate(["--spacers", "1,1", "--A", "2:0"], (1, 1), 2, [0], 100)

    def _spacers(self, count: int) -> list[int]:
        """Growth spacers h_j <= s_j <= 2 h_j from h1 = 1."""
        hs, out = [1], []
        for _ in range(count):
            s = hs[-1] + self.rng.randrange(hs[-1] + 1)
            out.append(s)
            hs.append(2 * hs[-1] + s)
        return out

    def _correlate(self, flags, spacers, stage, levels, n_max):
        def valid(out):
            rows = _read_lines(out)
            if [int(r[0]) for r in rows] != list(range(n_max + 1)):
                return False
            values = [Fraction(int(r[1]), int(r[2])) for r in rows]
            return oracles.series_ok(values, 1, spacers, stage, levels, n_max)

        self.add("rankone-correlate", ["rankone", "correlate", "--h1", 1] + flags
                 + ["--n-max", n_max], "csv", True, valid)

    # -- ledrappier -------------------------------------------------------
    def ledrappier(self):
        rng = self.rng
        for w, m in ((64, 64), (96, 48), (128, 128)):
            seed = rng.randrange(2**31)
            common = ["--n", w, "--m", m, "--seed", seed]
            pgm = self.add("ledrappier-sample", ["ledrappier", "sample"] + common, "pgm", True,
                           lambda out: oracles.harmonic_ok(oracles.read_field(out)))
            powers = []
            k = 0
            while 2 ** (k + 1) < min(w, m):
                powers.append(str(k))
                k += 1

            def valid_verify(out, powers=powers):
                p = _load_json(out)
                return p["harmonic"] is True and sorted(p["power_checks"]) == sorted(powers) \
                    and all(v is True for v in p["power_checks"].values())

            self.add("ledrappier-verify", ["ledrappier", "verify"] + common, "json", True, valid_verify)
            start = (rng.randrange(w), rng.randrange(m // 2))
            direction = rng.choice(["up", "right"])

            def start_white(pgm=pgm, start=start):
                return oracles.read_field(pgm)[start[1], start[0]] == 1

            def valid_trace(out, pgm=pgm, start=start, direction=direction):
                rows = _read_lines(out)
                symbols = [int(r[1]) for r in rows]
                return [int(r[0]) for r in rows] == list(range(len(rows))) and \
                    symbols == oracles.thread_walk(oracles.read_field(pgm), start, direction)

            self.add("ledrappier-trace", ["ledrappier", "trace"] + common + [
                "--start", f"{start[0]},{start[1]}", "--direction", direction,
            ], "csv", start_white, valid_trace)

            def valid_stats(out, pgm=pgm, m=m, seed=seed):
                p = _load_json(out)
                whites = int(oracles.read_field(pgm).sum())
                return p["seed"] == seed and 0 <= p["max_len"] <= m - 1 and \
                    p["coverage_fraction"] == (p["max_len"] + 1) / whites

            self.add("ledrappier-stats", ["ledrappier", "stats"] + common, "json", True, valid_stats)

    # -- mosaics ----------------------------------------------------------
    def mosaics(self):
        rng = self.rng
        ppms = {}
        for w, h, k in ((6, 6, 2), (4, 6, 2), (7, 7, 2), (12, 12, 3), (4, 4, 3)):
            seed = rng.randrange(2**31)
            small = w * h <= 49  # the brute force settles feasibility here

            def valid(out, k=k):
                rgb = oracles.read_netpbm(out, b"P6", 3)
                return rgb is not None and oracles.mosaic_ok(rgb, k, 8)

            exists = (lambda w=w, h=h, k=k: oracles.mosaic_count(w, h, k) > 0) if small else True
            ppms[(w, h, k)] = (seed, self.add(
                "mosaic-generate", ["mosaic", "generate", "--w", w, "--h", h, "--k", k,
                                    "--seed", seed], "ppm", exists, valid))
        for w, h, k, adj in ((5, 5, 2, 8), (6, 6, 3, 8), (5, 6, 2, 4), (6, 4, 2, 8)):

            def valid(out, w=w, h=h, k=k, adj=adj):
                p = _load_json(out)
                return int(p["count"]) == oracles.mosaic_count(w, h, k, adj) and \
                    (p["width"], p["height"], p["k"], p["adjacency"]) == (w, h, k, adj)

            self.add("mosaic-count", ["mosaic", "count", "--w", w, "--h", h, "--k", k,
                                      "--adjacency", adj], "json", True, valid)
        for widths, h, k in (((2, 4, 6), 4, 2), ((3, 6), 6, 3)):

            def valid(out, widths=widths, h=h, k=k):
                rows = _read_lines(out)
                return [(int(r[0]), int(r[1])) for r in rows] == [(w, h) for w in widths] and all(
                    abs(float(r[2]) - oracles.entropy(oracles.mosaic_count(w, h, k), w, h)) <= 1e-12
                    for r, w in zip(rows, widths)
                )

            self.add("mosaic-entropy", ["mosaic", "entropy", "--widths", ",".join(map(str, widths)),
                                        "--h", h, "--k", k], "csv", True, valid)
        for w, h in ((6, 6), (4, 6)):
            seed, ppm = ppms[(w, h, 2)]

            def valid(out, ppm=ppm):
                rgb = oracles.read_netpbm(ppm, b"P6", 3)
                ys, xs = (rgb == oracles.BLUE).all(axis=2).nonzero()
                plus = int(((xs + ys) % 2 == 0).sum())
                minus = len(xs) - plus
                p = _load_json(out)
                diag = abs(plus - minus) / len(xs) if len(xs) else 0.0
                return (p["plus"], p["minus"]) == (plus, minus) and abs(p["diagnostic"] - diag) <= 1e-12

            self.add("mosaic-spin", ["mosaic", "spin", "--w", w, "--h", h, "--k", 2, "--seed", seed],
                     "json", lambda w=w, h=h: oracles.mosaic_count(w, h, 2) > 0, valid)

    # -- f2 ---------------------------------------------------------------
    def f2(self):
        """Certificates for the cross family at radius 2 (the local peak and
        searched predicates) and the radius-1 local peak, whose translates
        overlap, so its correct verdict is False."""
        rng = self.rng
        runs = [["verify", "--radius", 1], ["verify", "--radius", 2]]
        runs += [["search", "--radius", 2, "--budget", 3000, "--seed", rng.randrange(2**31)]
                 for _ in range(3)]
        for flags in runs:
            radius = flags[2]

            def valid(out, radius=radius, searched=flags[0] == "search"):
                p = _load_json(out)
                window, assignments = p["window"], p["assignments"]
                mu = Fraction(len(assignments), 2 ** len(window))
                disjoint = oracles.rokhlin_family_ok(window, assignments)
                return (
                    window == oracles.ball(radius) and p["verdict"] is disjoint
                    and _frac(p["measure"]) == mu and (not disjoint or 5 * mu <= 1)
                    and all(0 <= m < 2 ** len(window) for m in assignments)
                    and (disjoint or not searched)
                )

            self.add("f2", ["f2"] + flags, "json", True, valid)


def _fmt(intervals) -> str:
    return ",".join(f"{lo}:{hi}" for lo, hi in intervals)


def cli_mix(rng: random.Random, lab, out_dir: str) -> list[Job]:
    """Small runs of every subcommand through `ergolab.cli.main`; recurrence
    carries the largest share of the time."""
    mix = _CliMix(rng, lab, out_dir)
    mix.towers()
    mix.recurrence()
    mix.involutions()
    mix.rankone()
    mix.ledrappier()
    mix.mosaics()
    mix.f2()
    return mix.jobs
