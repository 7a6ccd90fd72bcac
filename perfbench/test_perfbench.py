"""The benchmark's checks pass on the program's outputs and fail on a
corrupted copy of each; the tracer restores the program it wraps; the
metric list in BENCHMARK.json is the one the runner prints.

Every job here is small: no workload runs at full length.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
import run
import spans
import workloads

lab = run.import_program()

OK, WRONG, FAILED = workloads.OK, workloads.WRONG, workloads.FAILED


def test_factor_check_rejects_a_wrong_triple():
    job = workloads.factor_job(lab, 500, 7)
    target, triple, verified = job.run()
    assert job.check((target, triple, verified)) == OK
    s1 = list(triple.s1)
    s1[0], s1[1] = s1[1], s1[0]
    bad = lab.involutions.InvolutionTriple(tuple(s1), triple.s2, triple.s3)
    assert job.check((target, bad, verified)) == WRONG
    assert job.check((target, triple, False)) == WRONG


SMALL = workloads.Construction(
    "small", (), workloads._geometric_spec, (3, 2, 40), 3, 2, 8,
)


def test_rank_one_checks_reject_corrupted_values():
    hs = oracles.rank_one_heights(1, (), SMALL.depth + 2)
    rng = random.Random(3)
    job = workloads.series_job(lab, SMALL, hs, rng)
    series = job.run()
    assert job.check(series) == OK
    entries = list(series.entries)
    entries[5] = (5, entries[5][1] + Fraction(1, 2**20))
    assert job.check(lab.rank_one.CorrelationSeries(tuple(entries))) == WRONG

    for n, stage in workloads._point_queries(hs, SMALL.point_stage, SMALL.depth):
        job = workloads.point_job(lab, SMALL, hs, rng, n, stage)
        value = job.run()
        assert job.check(value) == OK
        if repr(value) == "UNSTABLE":
            assert job.check(Fraction(0)) == WRONG
        else:
            assert job.check(value + Fraction(1, 2**30)) == WRONG
            assert job.check(lab.rank_one.UNSTABLE) == WRONG

    job = workloads.decomposition_job(lab, SMALL, hs, rng)
    stage_heights, decs = job.run()
    assert job.check((stage_heights, decs)) == OK
    i = next(k for k, d in enumerate(decs) if d is not None)
    bad = lab.rank_one.SignedDecomposition(decs[i].terms, decs[i].remainder + 1, decs[i].term_bound)
    assert job.check((stage_heights, decs[:i] + [bad] + decs[i + 1:])) == WRONG


def test_series_oracle_matches_program_and_halves_at_heights():
    r1 = lab.rank_one
    spec = r1.RankOneSpec(1, (4, 8, 32))
    a = r1.LevelSet(2, frozenset([0, 3]))
    spec = r1.extend_spec(spec, a, 300)
    values = [v for _, v in r1.correlation_series(spec, a, 300).entries]
    assert oracles.series_ok(values, 1, (4, 8, 32), 2, [0, 3], 300)
    values[6] = values[6] / 2  # h_2 = 6: the half-mass return
    assert not oracles.series_ok(values, 1, (4, 8, 32), 2, [0, 3], 300)


# one corruption per cli-mix job kind: parsed output -> corrupted output
def _bump_json(edit):
    def corrupt(path):
        data = json.loads(Path(path).read_text())
        edit(data)
        Path(path).write_text(json.dumps(data))
    return corrupt


def _bump_csv(column):
    def corrupt(path):
        lines = Path(path).read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = str(float(cells[column]) + 1) if "." in cells[column] else str(int(cells[column]) + 1)
        lines[2] = ",".join(cells)
        Path(path).write_text("\n".join(lines) + "\n")
    return corrupt


def _append_step(path):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(lines + [f"{len(lines) - 1},0"]) + "\n")


def _flip_pixel(path):
    data = bytearray(Path(path).read_bytes())
    data[-len(data) // 2] ^= 0xFF  # a cell near the middle row
    Path(path).write_bytes(bytes(data))


def _recolour_red(path):
    raw = Path(path).read_bytes()
    head, body = raw[: raw.index(b"255\n") + 4], bytearray(raw[raw.index(b"255\n") + 4:])
    i = next(i for i in range(0, len(body), 3) if body[i:i + 3] == b"\xff\x00\x00")
    body[i:i + 3] = b"\x00\xff\x00"
    Path(path).write_bytes(head + bytes(body))


def _first_decomposed(rows):
    row = next(r for r in rows if r["decomposition"])
    row["remainder"] += 1


CORRUPT = {
    "tower-rokhlin": _bump_json(lambda p: p["base"].__setitem__(0, p["base"][0] + 1)),
    "tower-roof": _bump_json(lambda p: p["base"].pop()),
    "recurrence-average": _bump_json(lambda p: p["value"].__setitem__("num", p["value"]["num"] + 1)),
    "recurrence-witness": _bump_json(lambda p: p.__setitem__("witness", (p["witness"] or 0) + 1)),
    "recurrence-profile": _bump_csv(1),
    "involutions": _bump_json(lambda p: p["s3"].reverse()),
    "rankone-design": _bump_json(lambda p: p["spacers"].__setitem__(0, p["spacers"][0] + 1)),
    "rankone-gaps": _bump_json(lambda p: p[0].__setitem__("hi", p[0]["hi"] + 1)),
    "rankone-decompose": _bump_json(_first_decomposed),
    "rankone-correlate": _bump_csv(1),
    "ledrappier-sample": _flip_pixel,
    "ledrappier-verify": _bump_json(lambda p: p.__setitem__("harmonic", False)),
    "ledrappier-trace": _append_step,
    "ledrappier-stats": _bump_json(lambda p: p.__setitem__("max_len", p["max_len"] + 1)),
    "mosaic-generate": _recolour_red,
    "mosaic-count": _bump_json(lambda p: p.__setitem__("count", str(int(p["count"]) + 1))),
    "mosaic-entropy": _bump_csv(2),
    "mosaic-spin": _bump_json(lambda p: p.__setitem__("plus", p["plus"] + 1)),
    "f2": _bump_json(lambda p: p.__setitem__("verdict", not p["verdict"])),
}
HEAVY = {"tower-roof-deep"}  # the known stack overflow; covered by the runs


def test_cli_mix_checks_reject_corrupted_outputs(tmp_path):
    jobs = workloads.build("cli-mix", 1, lab, str(tmp_path))
    assert len(jobs) >= 100  # p90 keeps ten samples beyond it in one pass
    checked = {}
    # a thread trace from a black cell is rightly refused, so a seed may
    # have no trace to corrupt; later seeds supply one
    for seed in range(1, 6):
        (tmp_path / str(seed)).mkdir()
        for job in workloads.build("cli-mix", seed, lab, str(tmp_path / str(seed))):
            producer = job.kind in ("ledrappier-sample", "mosaic-generate")
            if job.kind in HEAVY or (job.kind in checked and not producer):
                continue
            result = job.run()
            if result[0] != 0 or job.kind in checked:  # refusals: tried below for mosaics
                continue
            assert job.check(result) == OK, job.kind
            assert job.check((1, "error")) == FAILED, job.kind
            checked[job.kind] = (job, result)
        if set(checked) == set(CORRUPT):
            break
    assert set(checked) == set(CORRUPT)
    # traces, stats and spins are checked against an earlier job's picture,
    # so corrupt in reverse order
    for job, result in reversed(checked.values()):
        CORRUPT[job.kind](job.outputs[0])
        assert run.check(job, result) == WRONG, job.kind
    # 7x7 with k=2 and 4x4 with k=3 have no tiling: the refusal is the
    # right answer, and claiming one must be caught
    refused = [j for j in jobs if j.kind == "mosaic-generate" and j.run()[0] == 1]
    assert len(refused) == 2
    for job in refused:
        assert job.check((1, "error")) == OK
        assert job.check((0, "")) == WRONG


def test_refusals_of_answerable_jobs_count_as_failed(tmp_path):
    jobs = workloads.build("cli-mix", 2, lab, str(tmp_path))
    shallow = [j for j in jobs if j.kind == "rankone-correlate"][-1]
    assert shallow.check((1, "spec too shallow")) == FAILED
    deep = next(j for j in jobs if j.kind == "tower-roof-deep")
    assert deep.check((1, "")) == FAILED


def test_oracles_reject_corrupted_structures():
    field = np.zeros((6, 6), dtype=np.uint8)
    assert oracles.harmonic_ok(field)
    field[3, 3] = 1
    assert not oracles.harmonic_ok(field)

    rgb = np.zeros((2, 4, 3), dtype=np.uint8)
    rgb[:, :] = oracles.RED
    assert oracles.mosaic_ok(rgb, 2, 8)
    rgb[0, 0] = oracles.BLUE
    assert not oracles.mosaic_ok(rgb, 2, 8)  # the 2x2 block at (0, 0) breaks
    for w in range(1, 6):
        for h in range(1, 6):
            assert oracles.mosaic_count(w, h, 2) == lab.mosaics.count_mosaics(w, h, 2)

    window = oracles.ball(2)
    assert oracles.rokhlin_family_ok(window, [1])
    assert not oracles.rokhlin_family_ok(oracles.ball(1), [1])
    assert not oracles.rokhlin_family_ok(window, [1, 0])  # the empty pattern meets itself

    assert oracles.decomposition_ok(10, [(1, 2), (1, 1)], 0, 2, [3, 7], Fraction(1, 2), Fraction(1, 8), 0)
    assert not oracles.decomposition_ok(10, [(1, 1), (1, 2)], 0, 2, [3, 7], Fraction(1, 2), Fraction(1, 8), 0)

    for n in range(2, 8):
        for h in range(1, n + 1):
            for bits in range(1, 2**n):
                y = [a for a in range(n) if bits >> a & 1]
                sys_ = lab.core.FinitePermutationSystem.cycle(n)
                try:
                    lab.core.lehrer_weiss_tower(sys_, h, sys_.subset(y))
                except lab.errors.Infeasible:
                    assert not oracles.roof_feasible(n, h, y), (n, h, y)
                else:
                    assert oracles.roof_feasible(n, h, y), (n, h, y)


def test_tracer_records_layers_and_restores_the_program():
    perms_compose = lab.perms.compose
    post_init = lab.core.FinitePermutationSystem.__dict__["__post_init__"]
    tracer = spans.Tracer(lab)
    tracer.install()
    try:
        assert lab.perms.compose is not perms_compose
        sys_ = lab.core.FinitePermutationSystem.random_cycle(300, 1)
        triple = lab.involutions.factor_three_involutions(sys_)
        assert triple.verify(sys_.map)
    finally:
        tracer.uninstall()
    assert lab.perms.compose is perms_compose
    assert lab.core.FinitePermutationSystem.__dict__["__post_init__"] is post_init
    m = tracer.layer_metrics()
    assert m["involutions.atoms"] == m["core.atoms"] == 300
    assert m["perms.calls"] >= 1 and m["perms.atoms"] >= 300
    assert m["involutions.verify_s"] > 0
    assert 0 <= m["perms.self_s"] and 0 < m["involutions.self_s"]
    assert set(m) == set(spans.layer_metric_names())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = spans.layer_metric_names() + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layer}


def test_job_lists_have_seed_independent_shapes(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, lab, str(tmp_path))
        b = workloads.build(name, 2, lab, str(tmp_path))
        assert [j.kind for j in a] == [j.kind for j in b]
