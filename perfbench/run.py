"""ergolab benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload inv-factor --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout that holds this file.
A run repeats whole passes over the workload's fixed job list until
`--seconds` have gone by, one job at a time (a closed loop with a single
client). Every job's output is checked apart from the timing. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`; per-layer metrics and the
tracing overhead with `--trace 1`).

Times are scaled to a nominal machine speed: a fixed reference computation
of the benchmark's own runs before every job, and each time is multiplied
by REF_SECONDS over the median reference time around it (see README).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
REF_SECONDS = 0.0025  # median reference time on the machine of the README figures
REF_WINDOW = 10  # reference times on each side of a job that set its scale
_REF_PERM = np.random.default_rng(0).permutation(1 << 16)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "cli.bytes_out" else "count"


def import_program():
    """ergolab and ergolab.cli from this checkout's src/, nowhere else."""
    if not (SRC / "ergolab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ergolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ergolab
    import ergolab.cli  # noqa: F401  (imports every module the workloads use)

    if Path(ergolab.__file__).resolve().parent != SRC / "ergolab":
        raise SystemExit(f"perfbench: ergolab was imported from {ergolab.__file__}")
    return ergolab


def reference_seconds() -> float:
    """Time of a fixed computation owned by the benchmark (an integer loop,
    a dict build and numpy gathers, the kinds of work the program does).
    On a shared machine CPU speed can drift by a quarter over tens of
    seconds; this tracks it, and the program's changes cannot move it."""
    t0 = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    for i in range(5000):
        table[i] = i
    p = _REF_PERM
    for _ in range(8):
        p = p[_REF_PERM]
    return perf_counter() - t0


def setup_probe_seconds(args) -> float:
    """Interpreter start to first job ready, in a fresh process. Not scaled:
    the reference is disturbed by the child's start and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


@dataclass
class Pass:
    traced: bool
    times: list[float] = field(default_factory=list)  # raw, per job
    refs: list[float] = field(default_factory=list)  # reference time before each job
    scaled: list[float] = field(default_factory=list)  # times at the nominal speed
    layers: dict = field(default_factory=dict)


def scale_passes(passes: list[Pass]) -> None:
    """Scale each job time by REF_SECONDS over the median reference time of
    the jobs around it, in run order across passes."""
    refs = [r for p in passes for r in p.refs]
    k = 0
    for p in passes:
        p.scaled = [
            t * REF_SECONDS / statistics.median(refs[max(0, k + i - REF_WINDOW): k + i + REF_WINDOW + 1])
            for i, t in enumerate(p.times)
        ]
        k += len(p.times)


def pass_wall(passes: list[Pass]) -> float:
    """Time for one pass: each job's median (scaled) time over the passes,
    summed, so a stall in one pass moves it by at most that job's share."""
    return sum(statistics.median(times) for times in zip(*(p.scaled for p in passes)))


def check(job, result) -> str:
    try:
        return job.check(result)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError):
        return workloads.WRONG  # missing or malformed output


def run_pass(jobs, record: Pass, tally: Counter, failures: Counter, wrong: Counter) -> None:
    """One pass over the job list, timing each job and checking its output."""
    for job in jobs:
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)
        record.refs.append(reference_seconds())
        t0 = perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            record.times.append(perf_counter() - t0)
            verdict = workloads.FAILED
            failures[f"{job.kind}: {type(exc).__name__}"] += 1
        else:
            record.times.append(perf_counter() - t0)
            verdict = check(job, result)
            if verdict == workloads.FAILED:
                failures[f"{job.kind}: refused"] += 1
            elif verdict == workloads.WRONG:
                wrong[job.kind] += 1
        tally[verdict] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("ERGOLAB_THREADS", None)  # one client, one thread
    lab = import_program()
    out_dir = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    jobs = workloads.build(args.workload, args.seed, lab, str(out_dir))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup = [setup_probe_seconds(args) for _ in range(SETUP_PROBES)] if args.trace == 0 else []
    tracer = spans.Tracer(lab) if args.trace else None
    tally, failures, wrong = Counter(), Counter(), Counter()
    passes: list[Pass] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    try:
        while True:
            # with tracing, untraced and traced passes alternate
            record = Pass(traced=bool(tracer) and len(passes) % 2 == 1)
            if record.traced:
                tracer.reset()
                tracer.install()
            try:
                run_pass(jobs, record, tally, failures, wrong)
            finally:
                if record.traced:
                    tracer.uninstall()
            if record.traced:
                record.layers = tracer.layer_metrics()
            passes.append(record)
            if perf_counter() - start >= args.seconds and (not tracer or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # left in place while another run uses it

    scale_passes(passes)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if tracer:
        # times are medians over traced passes, each scaled by its median
        # job scale; counts repeat exactly from pass to pass
        def scaled_layer(p, name):
            factor = statistics.median(s / t for s, t in zip(p.scaled, p.times) if t > 0)
            return p.layers[name] * factor

        metrics = {
            name: statistics.median(scaled_layer(p, name) for p in traced)
            if layer_unit(name) == "s" else traced[-1].layers[name]
            for name in spans.layer_metric_names()
        }
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
        units = {name: layer_unit(name) for name in metrics}
    else:
        deciles = statistics.quantiles([t for p in plain for t in p.scaled], n=10)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_wall(plain),
            "job_p50_ms": deciles[4] * 1e3,
            "job_p90_ms": deciles[8] * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced passes of {len(jobs)} jobs; "
        f"raw pass sums (s) {[round(sum(p.times), 3) for p in passes]}; "
        f"scaled {[round(sum(p.scaled), 3) for p in passes]}; "
        f"failed {dict(failures)}; wrong {dict(wrong)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(tally.values()),
        "failed": tally[workloads.FAILED],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
