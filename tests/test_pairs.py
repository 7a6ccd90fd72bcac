"""`tools/pairs.py` without a timed run: its summary against the committed
BENCH files, and the order of its runs with a stand-in for the benchmark."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import pairs

    return pairs


def _end_to_end():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(workload: dict) -> list[dict]:
    # the older files record failures per side only, not per run
    return [dict(r, failed=0, attempted=1, correct=True) for r in workload["runs_in_order"]]


@pytest.mark.parametrize("number", [30, 31, 32, 33])
def test_summary_reproduces_the_committed_pairs(pairs, number):
    bench = json.loads((ROOT / f"BENCH_{number}.json").read_text())
    for name, workload in bench["workloads"].items():
        got = pairs.summarize(_runs(workload), _end_to_end())
        assert got["pairs"] == 10
        assert got["seeds"] == workload["seeds"]
        assert got["change_wins_of_pairs"] == workload["change_wins_of_pairs"], name
        for metric, want in workload["metrics"].items():
            have = got["metrics"][metric]
            for side in ("parent", "change"):
                for stat in ("median", "q1", "q3"):
                    assert have[side][stat] == pytest.approx(want[side][stat], abs=2e-6)
            assert have["change_vs_parent"] == want["change_vs_parent"], (name, metric)
            assert have["parent_spread"] == want["parent_spread"], (name, metric)
            assert have["within_bound"] == want["within_bound"]


def test_swapping_the_sides_flips_every_win_and_sign(pairs):
    bench = json.loads((ROOT / "BENCH_33.json").read_text())
    flips = 0
    for workload in bench["workloads"].values():
        runs = _runs(workload)
        swapped = [dict(r, side="change" if r["side"] == "parent" else "parent") for r in runs]
        got, back = (pairs.summarize(r, _end_to_end()) for r in (runs, swapped))
        for m in _end_to_end():
            name = m["name"]
            values = {(r["seed"], r["side"]): r[name] for r in runs}
            ties = sum(values[s, "parent"] == values[s, "change"] for s, _ in values) // 2
            wins = int(got["change_wins_of_pairs"][name].split()[0])
            assert back["change_wins_of_pairs"][name] == f"{10 - ties - wins} of 10"
            a, b = got["metrics"][name], back["metrics"][name]
            assert (a["parent"], a["change"]) == (b["change"], b["parent"])
            pct = [float(x["change_vs_parent"].split()[0]) for x in (a, b)]
            assert pct[0] * pct[1] < 0 or pct == [0.0, 0.0] or abs(pct[0]) < 0.1
            flips += pct[0] * pct[1] < 0
    assert flips >= 10


def test_sides_alternate_and_each_workload_takes_its_own_seeds(pairs):
    calls, recorded = [], []
    names = [m["name"] for m in _end_to_end()]

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        metrics = {n: {"value": float(len(calls)), "unit": "s"} for n in names}
        return {"correct": True, "attempted": 5, "failed": 1, "metrics": metrics}

    trees = {"parent": "P", "change": "C"}
    runs = pairs.measure(trees, ["w1", "w2"], 100, 3, 0.5,
                         lambda r: recorded.append(sum(map(len, r.values()))), run=fake_run)
    assert calls == [
        ("P", "w1", 100), ("C", "w1", 100), ("C", "w1", 101), ("P", "w1", 101),
        ("P", "w1", 102), ("C", "w1", 102),
        ("P", "w2", 103), ("C", "w2", 103), ("C", "w2", 104), ("P", "w2", 104),
        ("P", "w2", 105), ("C", "w2", 105),
    ]
    assert recorded == list(range(1, 13))
    summary = pairs.summarize(runs["w1"], _end_to_end())
    assert summary["pairs"] == 3 and summary["seeds"] == "100-102"
    assert summary["failed_of_attempted"] == {"parent": ["1 of 5"] * 3,
                                              "change": ["1 of 5"] * 3}
    # the later run reads higher, so the change wins where the parent ran second
    assert summary["change_wins_of_pairs"]["wall_s"] == "1 of 3"
    assert [r["side"] for r in runs["w2"]] == ["parent", "change", "change", "parent",
                                               "parent", "change"]
