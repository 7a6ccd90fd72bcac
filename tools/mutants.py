"""Seeded mutation sample of one ergolab module against the test suite.

    python3 tools/mutants.py perms --seed 1 --count 20

Each site is one operator or integer literal in the module's source, named
by line and column: `<`/`<=`, `>`/`>=` and `==`/`!=` swap, `+`/`-` swap,
`and`/`or` swap, and an integer literal grows by one. A seeded sample of
`--count` sites (every site with `--count 0`) is mutated one at a time in a
temporary copy of the checkout. The module's own tests (tests/test_<module>.py)
run first; a mutant they miss runs against the full Tier-1 suite, less the
tests of this script, which read the module's text. One line
per mutant gives the site, the change and the verdict: killed by the module
tests, killed by Tier-1, or survived. A survivor needs a test that kills it,
a one-line argument that it is equivalent, or the deletion of its code.

The source is parsed with the stdlib `ast` module only, and the mutated text
is the original with one token replaced, so every other byte stays.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")

SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}


@dataclass(frozen=True)
class Site:
    line: int  # 1-based
    col: int  # 0-based, in characters
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.old} -> {self.new}"


def _char_col(lines: list[str], line: int, byte_col: int) -> int:
    """`ast` columns count UTF-8 bytes; tokens count characters."""
    return len(lines[line - 1].encode()[:byte_col].decode())


def _gaps(node: ast.AST):
    """(op class, the operands around one operator token) for each operator
    token of a comparison, arithmetic or boolean node."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return [(type(op), operands[i], operands[i + 1]) for i, op in enumerate(node.ops)]
    if isinstance(node, ast.BinOp):
        return [(type(node.op), node.left, node.right)]
    if isinstance(node, ast.BoolOp):
        return [(type(node.op), a, b) for a, b in zip(node.values, node.values[1:])]
    return []


def sites(source: str) -> list[Site]:
    """Every mutable site of `source`, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    tokens = {
        (t.start[0], t.start[1]): t.string
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER)
    }
    positions = sorted(tokens)
    in_fstring = {
        id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for sub in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Constant) and type(node.value) is int:
            pos = (node.lineno, _char_col(lines, node.lineno, node.col_offset))
            if pos in tokens:
                found.add(Site(*pos, tokens[pos], str(node.value + 1)))
        for op, left, right in _gaps(node):
            old, new = SWAPS.get(op, (None, None))
            if old is None:
                continue
            lo = (left.end_lineno, _char_col(lines, left.end_lineno, left.end_col_offset))
            hi = (right.lineno, _char_col(lines, right.lineno, right.col_offset))
            # the operator is the first token with its spelling between the operands
            pos = next((p for p in positions if lo <= p < hi and tokens[p] == old), None)
            if pos is not None:
                found.add(Site(*pos, old, new))
    return sorted(found, key=lambda s: (s.line, s.col))


def mutate(source: str, site: Site) -> str:
    """`source` with the token at `site` replaced; ValueError if it is not there."""
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    if text[site.col: site.col + len(site.old)] != site.old:
        raise ValueError(f"no {site.old!r} at {site.line}:{site.col}")
    lines[site.line - 1] = text[: site.col] + site.new + text[site.col + len(site.old):]
    return "".join(lines)


def copy_checkout(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", "_out"))
        else:
            shutil.copy2(src, dest / name)


def passes(checkout: Path, pytest_args: list[str]) -> bool:
    """True if pytest, run in `checkout` on its own `src/`, passes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *pytest_args]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True).returncode == 0


def verdict(checkout: Path, module: str, source: str, site: Site, stages) -> str:
    """Run the mutant of `module` at `site` through `stages`, a sequence of
    (label, pytest args), stopping at the first that fails; the original
    source is put back afterwards."""
    path = checkout / "src" / "ergolab" / f"{module}.py"
    path.write_text(mutate(source, site))
    try:
        for label, args in stages:
            if not passes(checkout, args):
                return f"killed by {label}"
        return "survived"
    finally:
        path.write_text(source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/ergolab, e.g. perms")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=20, help="sites to sample; 0 for all")
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "ergolab" / f"{args.module}.py").read_text()
    every = sites(source)
    chosen = every if args.count <= 0 else random.Random(args.seed).sample(
        every, min(args.count, len(every)))
    stages = [
        ("module tests", [f"tests/test_{args.module}.py"]),
        # the mutator's own tests read the module's text, not its behaviour
        ("Tier-1", ["--ignore=tests/test_mutants.py"]),
    ]
    print(f"{args.module}: {len(chosen)} of {len(every)} sites, seed {args.seed}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp)
        copy_checkout(checkout)
        for label, stage_args in stages:
            if not passes(checkout, stage_args):
                raise SystemExit(f"{label} fail on the unmutated source")
        for site in sorted(chosen, key=lambda s: (s.line, s.col)):
            print(f"{args.module}.py:{site}  {verdict(checkout, args.module, source, site, stages)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
