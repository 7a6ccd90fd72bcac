import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
Site = mutants.Site

SOURCE = "def f(a, b):\n    return a + b < 2 and a == -1 or b + a  # a + b\n"


def test_sites_are_named_by_line_and_column():
    assert mutants.sites(SOURCE) == [
        Site(2, 13, "+", "-"), Site(2, 17, "<", "<="), Site(2, 19, "2", "3"),
        Site(2, 21, "and", "or"), Site(2, 27, "==", "!="), Site(2, 31, "1", "2"),
        Site(2, 33, "or", "and"), Site(2, 38, "+", "-"),
    ]
    # the second + of the line, not the first, and nothing in the comment
    assert mutants.mutate(SOURCE, Site(2, 38, "+", "-")) == (
        "def f(a, b):\n    return a + b < 2 and a == -1 or b - a  # a + b\n"
    )
    assert mutants.mutate(SOURCE, Site(2, 31, "1", "2")).splitlines()[1] == (
        "    return a + b < 2 and a == -2 or b + a  # a + b"
    )


def _perms_site(source, line_text, old):
    """The one site spelled `old` on the line of perms.py holding `line_text`."""
    line = next(i for i, text in enumerate(source.splitlines(), 1) if line_text in text)
    (site,) = [s for s in mutants.sites(source) if s.line == line and s.old == old]
    return site


def test_equivalent_mutant_survives_and_a_real_one_is_killed(tmp_path):
    source = (ROOT / "src" / "ergolab" / "perms.py").read_text()
    mutants.copy_checkout(tmp_path)
    stages = [("module tests", ["tests/test_perms.py"])]
    # any negative mark works as the cycle walk's visited sentinel
    sentinel = _perms_site(source, "pl[start] = -1", "1")
    assert mutants.verdict(tmp_path, "perms", source, sentinel, stages) == "survived"
    in_range = _perms_site(source, "arr.max() < n", "<")
    assert mutants.verdict(tmp_path, "perms", source, in_range, stages) == (
        "killed by module tests"
    )
    assert (tmp_path / "src" / "ergolab" / "perms.py").read_text() == source
