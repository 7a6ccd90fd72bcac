import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("cli_diff", ROOT / "tools" / "cli_diff.py")
cli_diff = sys.modules["cli_diff"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_diff)


def _tree(dest: Path) -> Path:
    """A plain source tree of this checkout: no git is needed."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "_out"))
    return dest


def test_identical_trees_differ_nowhere_and_one_changed_byte_is_all_that_shows(
        tmp_path, capsys):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")
    assert cli_diff.main([str(parent), str(change), "--seeds", "2"]) == 0
    assert capsys.readouterr().out.startswith("cli_diff: 0 differences in ")

    outs = [cli_diff.run_side(tree, tmp_path / f"{tree.name}-out", [2])
            for tree in (parent, change)]
    assert cli_diff.compare(*outs) == []
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    manifests = [f for f in files if f.name.endswith(".manifest.json")]
    primaries = [f for f in files if f.with_name(f.name + ".manifest.json") in manifests]
    assert len(manifests) == len(primaries) > 90
    # the wall times differ between the runs, and only they are left out
    assert any((outs[0] / f).read_bytes() != (outs[1] / f).read_bytes() for f in manifests)

    # negative controls, one at a time: each is reported, and nothing else is
    def reported(path: Path, data: bytes) -> list[str]:
        old = path.read_bytes()
        path.write_bytes(data)
        try:
            return cli_diff.compare(*outs)
        finally:
            path.write_bytes(old)

    tower = next(f for f in primaries if "tower-rokhlin" in f.name)
    data = (outs[1] / tower).read_bytes()
    flipped = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    assert reported(outs[1] / tower, flipped) == [f"{tower.as_posix()}: differs"]

    manifest = outs[1] / manifests[0]
    data = manifest.read_bytes().replace(b'"subcommand": "', b'"subcommand": "x', 1)
    assert reported(manifest, data) == [f"{manifests[0].as_posix()}: differs"]

    codes_path = outs[1] / "seed-2" / cli_diff.EXIT_CODES
    codes = json.loads(codes_path.read_text())
    assert set(codes.values()) <= {0, 1} and sorted(codes)[0].startswith("000-")
    job = sorted(codes)[5]
    codes[job] = 2
    assert reported(codes_path, json.dumps(codes).encode()) == [
        f"seed-2/{job}: exit code {json.loads(codes_path.read_text())[job]} vs 2"]

    extra = outs[1] / "seed-2" / "extra.json"
    extra.write_bytes(b"{}\n")
    assert cli_diff.compare(*outs) == ["seed-2/extra.json: only in change"]
    extra.unlink()
    assert cli_diff.compare(*outs) == []
