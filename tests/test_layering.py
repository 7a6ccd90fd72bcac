"""Only `cli` formats output or writes files; library modules return values."""

import ast
from pathlib import Path

import ergolab

PACKAGE = Path(ergolab.__file__).parent
# calls that write a file whatever their arguments
WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt", "dump"}


def _write_mode(call: ast.Call) -> bool:
    """True unless the open() call's mode is a constant without w, a, x or +."""
    mode = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return True
    return any(c in mode.value for c in "wax+")


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "json"]
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.append("from json import")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open" and _write_mode(node):
                found.append(f"open for writing at line {node.lineno}")
            elif name in WRITERS:
                found.append(f"{name}() at line {node.lineno}")
    return found


def test_only_cli_imports_json_or_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in modules and len(modules) > 5
    for path in modules:
        if path.name != "cli.py":
            assert violations(path.read_text()) == [], path.name
    # the scan sees what cli does
    assert "import json" in violations((PACKAGE / "cli.py").read_text())
    assert any(v.startswith("open for writing") for v in violations(
        (PACKAGE / "cli.py").read_text()))


def test_layering_scan_flags_each_way_of_writing():
    for source in (
        "import json",
        "from json import dumps",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "open(p, 'r+')",
        "open(p, m)",
        "Path(p).write_text(t)",
        "np.save(p, a)",
        "a.tofile(p)",
    ):
        assert violations(source), source
    for source in ("open(p)", "open(p, 'rb')", "import math", "x.write(y)"):
        assert violations(source) == [], source


def test_cli_writes_only_from_main():
    """Handlers return a writer and its data; only `main` and the writers
    themselves call a `_write_*` writer."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    handlers = [f.name for f in functions if f.name.startswith("_cmd_")]
    assert len(handlers) >= 10
    for f in functions:
        if f.name == "main" or f.name.startswith("_write_"):
            continue
        calls = [
            node.func.id for node in ast.walk(f)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id.startswith("_write_")
        ]
        assert calls == [], f.name
