"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

    python3 tools/pairs.py PARENT CHANGE --seed 3701 --out BENCH_37.json

PARENT and CHANGE are each a git revision of this repository, taken with
`git archive`, or a directory holding a source tree (see `tools/cli_diff.py`).
For each workload of BENCHMARK.json, in its order, each of PAIRS (10) pairs
runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` once on
each side, with T the run_seconds of BENCHMARK.json, from that side's own
tree and one run at a time; the parent runs first in even pairs (0, 2, ...)
and the change first in odd ones. Workload k's pair i takes the seed
SEED + k * PAIRS + i. The benchmark is run as it is in each tree and never
changed.

Per workload and end-to-end metric the output holds each side's median
and quartiles (inclusive method), the change's median against the
parent's in per cent, the parent's interquartile spread over its median,
how many pairs the change wins (reads better, by the metric's direction
in BENCHMARK.json), and whether the change's median is within the metric's
bound of the parent's. Every run is kept in `runs_in_order`, with its
failed and attempted job counts. The file is rewritten after each run, so
an interrupted run of the tool leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from cli_diff import ROOT, source_tree

SIDES = ("parent", "change")
PAIRS = 10


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(done.stdout.strip().splitlines()[-1])


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's runs (see the module docstring); a
    pair is the parent's and the change's run of one seed."""
    seeds = list(dict.fromkeys(r["seed"] for r in runs))
    by_pair = {(r["seed"], r["side"]): r for r in runs}
    pairs = [s for s in seeds if all((s, side) in by_pair for side in SIDES)]
    out = {
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "pairs": len(pairs),
        "failed_of_attempted": {
            side: [f"{r['failed']} of {r['attempted']}" for r in runs if r["side"] == side]
            for side in SIDES
        },
        "correct": all(r["correct"] for r in runs),
        "change_wins_of_pairs": {},
        "metrics": {},
    }
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        values = {side: [r[name] for r in runs if r["side"] == side] for side in SIDES}
        wins = sum(sign * by_pair[s, "change"][name] < sign * by_pair[s, "parent"][name]
                   for s in pairs)
        out["change_wins_of_pairs"][name] = f"{wins} of {len(pairs)}"
        if min(map(len, values.values())) < 2:
            continue  # quartiles need two runs a side
        parent, change = (_stats(values[side]) for side in SIDES)
        ratio = change["median"] / parent["median"]
        out["metrics"][name] = {
            "parent": parent,
            "change": change,
            "change_vs_parent": f"{100 * (ratio - 1):+.1f} %",
            "parent_spread": f"{100 * (parent['q3'] - parent['q1']) / parent['median']:.1f} %",
            "within_bound": sign * (ratio - 1) <= m["bound"],
        }
    out["runs_in_order"] = runs
    return out


def measure(trees: dict[str, Path], workloads: list[str], seed: int, pairs: int,
            seconds: float, record, run=run_once) -> dict[str, list[dict]]:
    """Run every pair; `record(runs)` is called after each run with the
    runs so far, keyed by workload."""
    names = [m["name"] for m in _bench()["end_to_end"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, workload in enumerate(workloads):
        for i in range(pairs):
            s = seed + k * pairs + i
            for side in order(i):
                result = run(trees[side], workload, s, seconds)
                runs[workload].append({
                    "seed": s, "side": side,
                    **{n: result["metrics"][n]["value"] for n in names},
                    "failed": result["failed"], "attempted": result["attempted"],
                    "correct": result["correct"],
                })
                print(f"pairs: {workload} seed {s} {side}: wall_s "
                      f"{runs[workload][-1]['wall_s']:.4f}", file=sys.stderr, flush=True)
                record(runs)
    return runs


def _revision(rev: str) -> str:
    if Path(rev).is_dir():
        return str(Path(rev).resolve())
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    bench = _bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or source tree")
    parser.add_argument("change", help="git revision or source tree")
    parser.add_argument("--seed", type=int, required=True, help="first seed")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated, in the order they run")
    parser.add_argument("--claim", default="none", help="the gain the change claims")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "parent": _revision(args.parent),
        "change": _revision(args.change),
        "machine": f"{os.cpu_count()} cores, {platform.processor() or platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "method": f"tools/pairs.py: {PAIRS} pairs per workload, workload k on seeds "
                  f"{args.seed} + k * {PAIRS} + i; the parent runs first in even "
                  "pairs, the change in odd ones; each side runs from its own tree, one "
                  "run at a time; median and quartiles (inclusive method) per side; "
                  "change_wins_of_pairs counts the pairs where the change reads better; "
                  "parent_spread is (q3 - q1) / median of the parent's runs; within_bound "
                  "compares the medians with the bound of BENCHMARK.json",
        "claim": args.claim,
        "workloads": {},
    }

    def record(runs):
        doc["workloads"] = {w: summarize(r, bench["end_to_end"]) for w, r in runs.items() if r}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: source_tree(rev, Path(tmp) / side)
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        measure(trees, workloads, args.seed, PAIRS, seconds, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
