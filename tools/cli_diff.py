"""Byte-identity differential of the CLI between two versions of the code.

    python3 tools/cli_diff.py PARENT CHANGE --seeds 1,3,7

PARENT and CHANGE are each a git revision of this repository, taken with
`git archive`, or a directory holding a source tree (`src/ergolab` and
`perfbench`). Each side runs, in one process of its own, every job of the
benchmark's `cli-mix` list for each seed, built by that side's
`perfbench/workloads.py`, which is imported and never changed. Both sides
write under the same relative paths, so their manifests name the same
outputs.

Then the exit codes of the jobs, the primary outputs and the manifests
are compared, the manifests without their `wall_time_s` line. Each
difference is printed, one line each, and the exit code is 1 on any
difference, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXIT_CODES = "exit_codes.json"
WALL_TIME = b'  "wall_time_s": '  # the manifest line that may differ


def source_tree(rev: str, dest: Path) -> Path:
    """`rev` itself when it is a directory, else `git archive` of `rev`
    unpacked into `dest`."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_jobs(tree: Path, out: Path, seeds: list[int]) -> None:
    """Run the `cli-mix` jobs of each seed with `tree`'s code, writing under
    out/seed-<seed>/, with the job exit codes in its EXIT_CODES file."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import ergolab
    import ergolab.cli  # noqa: F401  (the jobs call ergolab.cli.main)
    import workloads

    if Path(ergolab.__file__).resolve().parent != tree / "src" / "ergolab":
        raise SystemExit(f"cli_diff: ergolab was imported from {ergolab.__file__}")
    os.chdir(out)  # relative output paths: both sides' manifests name the same files
    for seed in seeds:
        seed_dir = f"seed-{seed}"
        os.mkdir(seed_dir)
        codes = {}
        for job in workloads.build("cli-mix", seed, ergolab, seed_dir):
            try:
                rc, _ = job.run()
            except Exception as exc:  # an uncaught error is an outcome to compare
                rc = f"raised {type(exc).__name__}"
            codes[Path(job.outputs[0]).name] = rc
        Path(seed_dir, EXIT_CODES).write_text(json.dumps(codes, indent=1) + "\n")


def run_side(tree: Path, out: Path, seeds: list[int]) -> Path:
    """`run_jobs` in a new process; `out` is made and returned."""
    out.mkdir(parents=True)
    cmd = [sys.executable, __file__, "--jobs", str(tree), str(out),
           "--seeds", ",".join(map(str, seeds))]
    subprocess.run(cmd, check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return out


def _files(out: Path) -> dict[str, Path]:
    return {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}


def _without_wall_time(data: bytes) -> bytes:
    return b"\n".join(line for line in data.split(b"\n") if not line.startswith(WALL_TIME))


def compare(parent: Path, change: Path) -> list[str]:
    """One line per difference between two `run_side` outputs: a file on
    one side only, a job whose exit code differs, or a differing file."""
    diffs = []
    left, right = _files(parent), _files(change)
    for name in sorted(left.keys() | right.keys()):
        if name not in right or name not in left:
            diffs.append(f"{name}: only in {'parent' if name in left else 'change'}")
            continue
        a, b = left[name].read_bytes(), right[name].read_bytes()
        if name.endswith(EXIT_CODES):
            codes_a, codes_b = json.loads(a), json.loads(b)
            seed_dir = name.rpartition("/")[0]
            diffs += [f"{seed_dir}/{job}: exit code {codes_a.get(job)} vs {codes_b.get(job)}"
                      for job in sorted(codes_a.keys() | codes_b.keys())
                      if codes_a.get(job) != codes_b.get(job)]
            continue
        if name.endswith(".manifest.json"):
            a, b = _without_wall_time(a), _without_wall_time(b)
        if a != b:
            diffs.append(f"{name}: differs")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or source tree")
    parser.add_argument("change", help="git revision or source tree")
    parser.add_argument("--seeds", required=True, help="comma-separated: 1,3,7")
    parser.add_argument("--jobs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.jobs:  # one side, in the process `run_side` starts
        run_jobs(Path(args.parent), Path(args.change), seeds)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outs = [run_side(source_tree(rev, tmp / f"{side}-tree"), tmp / side, seeds)
                for side, rev in (("parent", args.parent), ("change", args.change))]
        diffs = compare(*outs)
        compared = len(_files(outs[0]))
    for line in diffs:
        print(line)
    print(f"cli_diff: {len(diffs)} differences in {compared} files, seeds {args.seeds}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
