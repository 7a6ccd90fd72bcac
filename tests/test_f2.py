import itertools
import json
import random
from fractions import Fraction

import pytest

from ergolab import cli, f2
from ergolab.errors import CapExceeded, Infeasible


def enumerate_intersection(b1, b2):
    """Merged-window enumeration oracle for disjointness, no projections."""
    window = tuple(sorted(set(b1.window) | set(b2.window), key=f2._shortlex_key))
    idx1 = [window.index(w) for w in b1.window]
    idx2 = [window.index(w) for w in b2.window]
    for bits in itertools.product((0, 1), repeat=len(window)):
        m1 = sum(bits[idx1[i]] << i for i in range(len(idx1)))
        m2 = sum(bits[idx2[i]] << i for i in range(len(idx2)))
        if m1 in b1.assignments and m2 in b2.assignments:
            return True
    return False


def random_pattern(radius, seed, count):
    rng = random.Random(seed)
    window = f2.ball(radius)
    top = 1 << len(window)
    return f2.CylinderPatternSet(
        window, frozenset(rng.randrange(top) for _ in range(count))
    )


class ReferenceConstraints:
    """Per-proposal projections for the ten disjointness constraints, one
    Python bit loop per mask and side: the reference for `f2._climb`'s
    batched projection."""

    def __init__(self, window):
        self.pairs = []
        for gi, hi in itertools.combinations(range(len(f2.FAMILY)), 2):
            g, h = f2.FAMILY[gi], f2.FAMILY[hi]
            gw = {f2.multiply(g, w): i for i, w in enumerate(window)}
            hw = {f2.multiply(h, w): i for i, w in enumerate(window)}
            overlap = sorted(set(gw) & set(hw), key=f2._shortlex_key)
            g_idx = tuple(gw[w] for w in overlap)
            h_idx = tuple(hw[w] for w in overlap)
            self.pairs.append((g_idx, h_idx, set(), set()))

    @staticmethod
    def _extract(mask, idx):
        v = 0
        for pos, i in enumerate(idx):
            if mask >> i & 1:
                v |= 1 << pos
        return v

    def can_add(self, mask):
        for g_idx, h_idx, g_seen, h_seen in self.pairs:
            vg = self._extract(mask, g_idx)
            vh = self._extract(mask, h_idx)
            if vg == vh or vg in h_seen or vh in g_seen:
                return False
        return True

    def add(self, mask):
        for g_idx, h_idx, g_seen, h_seen in self.pairs:
            g_seen.add(self._extract(mask, g_idx))
            h_seen.add(self._extract(mask, h_idx))


def reference_climb(window, start, budget, seed):
    """The climb mask by mask; also counts draws of masks already members."""
    rng = random.Random(seed)
    cons = ReferenceConstraints(window)
    members = set()
    for m in sorted(start):
        if cons.can_add(m):
            cons.add(m)
            members.add(m)
    top = 1 << len(window)
    redraws = 0
    for _ in range(budget):
        m = rng.randrange(top)
        if m in members:
            redraws += 1
            continue
        if cons.can_add(m):
            cons.add(m)
            members.add(m)
    return members, redraws


def test_multiply_examples():
    assert f2.multiply("a", "A") == ""
    assert f2.multiply("a", "b") == "ab"
    assert f2.multiply("aB", "ba") == "aa"
    assert f2.multiply("", "") == ""


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        f2.reduce_word("xyz")


def test_ball_sizes():
    assert [len(f2.ball(r)) for r in range(4)] == [1, 5, 17, 53]
    assert f2.ball(1) == ("", "a", "b", "A", "B")


def test_translate_examples():
    b = f2.cylinder({"": 1})
    ta = f2.translate(b, "a")
    assert ta.window == ("a",)
    assert ta.assignments == frozenset([1])
    assert f2.translate(ta, "A") == b

    ball1 = f2.CylinderPatternSet(f2.ball(1), frozenset([3]))
    tb = f2.translate(ball1, "b")
    assert set(tb.window) == {"b", "ba", "bb", "bA", ""}


def test_translate_preserves_measure():
    for seed in range(8):
        b = random_pattern(1, seed, count=7)
        for g in ("a", "b", "A", "B", "ab", "Ba"):
            assert f2.translate(b, g).measure == b.measure


def test_translate_group_action():
    for seed in range(6):
        b = random_pattern(1, seed + 50, count=5)
        for g, h in [("a", "b"), ("b", "A"), ("aB", "ba"), ("A", "a")]:
            lhs = f2.translate(f2.translate(b, g), h)
            rhs = f2.translate(b, f2.multiply(h, g))
            assert lhs == rhs, (g, h)


def test_measure_examples():
    assert f2.cylinder({w: 1 for w in f2.ball(1)}).measure == Fraction(1, 32)
    window = f2.ball(1)
    empty = f2.CylinderPatternSet(window, frozenset())
    assert empty.measure == 0
    two = f2.CylinderPatternSet(window, frozenset([0, 3]))
    assert two.measure == Fraction(2, 32)


def test_disjoint_examples():
    assert f2.disjoint(f2.cylinder({"": 1}), f2.cylinder({"": 0}))
    assert not f2.disjoint(f2.cylinder({"": 1}), f2.cylinder({"a": 1}))
    peak = f2.local_peak(2)
    assert f2.disjoint(f2.translate(peak, "a"), f2.translate(peak, "b"))


def test_disjoint_matches_enumeration_oracle():
    rng = random.Random(7)
    for seed in range(12):
        b1 = random_pattern(1, seed, count=rng.randrange(0, 9))
        b2 = random_pattern(1, seed + 100, count=rng.randrange(0, 9))
        g = rng.choice(["", "a", "b", "A", "B"])
        t2 = f2.translate(b2, g)
        assert f2.disjoint(b1, t2) == (not enumerate_intersection(b1, t2)), seed


def test_disjoint_with_disjoint_windows():
    b1 = f2.cylinder({"aa": 1})
    b2 = f2.cylinder({"bb": 0})
    assert not f2.disjoint(b1, b2)  # independent constraints always meet
    empty = f2.CylinderPatternSet(("aa",), frozenset())
    assert f2.disjoint(empty, b2)


def test_verify_rokhlin_family_cases():
    empty = f2.CylinderPatternSet(f2.ball(2), frozenset())
    cert = f2.verify_rokhlin_family(empty)
    assert cert.verdict and cert.measure == 0

    bad = f2.verify_rokhlin_family(f2.cylinder({"": 1}))
    assert not bad.verdict

    peak = f2.local_peak(2)
    cert = f2.verify_rokhlin_family(peak)
    assert cert.verdict
    assert cert.measure == Fraction(1, 2**17)
    assert 5 * cert.measure <= 1


def test_local_peak_radius_one_fails():
    # value 1 at the identity with only radius-1 zeros is not enough: the
    # family pairs up at distance-2 words outside the window
    cert = f2.verify_rokhlin_family(f2.local_peak(1))
    assert not cert.verdict


def test_search_budget_zero_returns_baseline():
    cert = f2.search_best(2, 0, seed=7)
    assert cert.measure == Fraction(1, 2**17)
    assert cert.verdict


def test_search_improves_and_verifies():
    cert = f2.search_best(2, 4000, seed=7)
    assert cert.verdict
    assert cert.measure > Fraction(1, 2**17)
    assert 5 * cert.measure <= 1
    again = f2.search_best(2, 4000, seed=7)
    assert again.base == cert.base

    other = f2.search_best(2, 4000, seed=8)
    assert other.verdict  # any seed yields a verified certificate


def test_search_radius_cap():
    with pytest.raises(CapExceeded):
        f2.search_best(3, 10, seed=0)
    with pytest.raises(ValueError):
        f2.search_best(0, 10, seed=0)


def test_local_peak_refuses_a_ball_past_the_window_cap(monkeypatch):
    # the radius-3 ball (53 words) is built and fails in `disjoint`; from
    # radius 4 (161 words) the ball is refused before it is built
    with pytest.raises(CapExceeded, match="merged window"):
        f2.verify_rokhlin_family(f2.local_peak(3))
    real_ball = f2.ball

    def small_ball(radius):
        assert radius < 4, "ball built past the window cap"
        return real_ball(radius)

    monkeypatch.setattr(f2, "ball", small_ball)
    for radius in (4, 40, 10**9):
        with pytest.raises(CapExceeded, match="window cap"):
            f2.local_peak(radius)


def test_certificate_json_reports_gap(tmp_path):
    out = tmp_path / "cert.json"
    assert cli.main(["f2", "search", "--radius", "2", "--budget", "200", "--seed", "3",
                     "--out", str(out)]) == 0
    cert = f2.search_best(2, 200, seed=3)
    payload = json.loads(out.read_text())
    assert payload["upper_bound"] == {"num": 1, "den": 5}
    assert payload["reference_target"] == {"num": 1, "den": 17}
    gap = Fraction(payload["gap_to_target"]["num"], payload["gap_to_target"]["den"])
    assert gap == Fraction(1, 17) - cert.measure
    assert payload["seed"] == 3


def test_assignment_cap_enforced():
    window = f2.ball(1)
    with pytest.raises(ValueError):
        f2.CylinderPatternSet(window, frozenset([64]))  # out of range for 5 words
    # 53 words admit 2^53 masks; one more than the cap is refused
    big = f2.ball(3)
    at_cap = f2.CylinderPatternSet(big, frozenset(range(f2.ASSIGNMENT_CAP)))
    assert len(at_cap.assignments) == f2.ASSIGNMENT_CAP
    with pytest.raises(CapExceeded, match="exceed cap"):
        f2.CylinderPatternSet(big, frozenset(range(f2.ASSIGNMENT_CAP + 1)))


def test_pattern_set_input_errors():
    with pytest.raises(ValueError, match="radius must be non-negative"):
        f2.ball(-1)
    for window in (("a", ""), ("", "a", "a"), ("", "ab", "b")):
        with pytest.raises(ValueError, match="shortlex-sorted and duplicate-free"):
            f2.CylinderPatternSet(window, frozenset([0]))
    # "aAb" and "b" reduce to the same word
    with pytest.raises(ValueError, match="constraints repeat a word"):
        f2.cylinder({"b": 0, "aAb": 1})
    for value in (2, -1):
        with pytest.raises(ValueError, match="values must be 0 or 1"):
            f2.cylinder({"": 1, "a": value})
    assert f2.cylinder({"": 1, "a": 0}).assignments == frozenset([1])


def test_search_matches_the_per_mask_reference_climb(monkeypatch):
    climbs = {}
    batched = f2._climb

    def recorded(projection, start, budget, seed):
        climbs[seed] = batched(projection, start, budget, seed)
        return climbs[seed]

    monkeypatch.setattr(f2, "_climb", recorded)
    verdicts = {}

    def verifies(window, p):
        key = (window, frozenset(p))
        if key not in verdicts:
            verdicts[key] = f2.verify_rokhlin_family(f2.CylinderPatternSet(*key)).verdict
        return verdicts[key]

    redrawn = 0
    for radius in (1, 2):
        base = f2.local_peak(radius)
        window = base.window
        for budget in (0, 1, 3, 4, 5, 750, 3000, 25000):
            for seed in range(12):
                climbs.clear()
                try:
                    got = f2.search_best(radius, budget, seed).base.assignments
                except Infeasible:
                    got = None
                found = [set(base.assignments)]
                if budget > 0:
                    master = random.Random(seed)
                    for s in [master.randrange(2**32) for _ in range(f2.RESTARTS)]:
                        members, redraws = reference_climb(
                            window, base.assignments, budget // f2.RESTARTS, s)
                        assert climbs[s] == members, (radius, budget, seed, s)
                        redrawn += redraws > 0
                        found.append(members)
                candidates = [p for p in found if p and verifies(window, p)]
                want = None
                if candidates:
                    want = frozenset(min(candidates, key=lambda p: (-len(p), tuple(sorted(p)))))
                assert got == want, (radius, budget, seed)
    assert redrawn > 0  # some climb drew a member again and kept the same set


def test_search_verifies_once_when_the_best_candidate_passes(monkeypatch):
    calls = []
    verify = f2.verify_rokhlin_family

    def counted(b):
        calls.append(b)
        return verify(b)

    monkeypatch.setattr(f2, "verify_rokhlin_family", counted)
    for budget in (0, 3000):
        calls.clear()
        cert = f2.search_best(2, budget, seed=7)
        assert cert.verdict and calls == [cert.base], budget


def test_search_returns_the_next_ranked_set_when_the_best_fails(monkeypatch):
    climbs = []
    batched, verify = f2._climb, f2.verify_rokhlin_family

    def recorded(*args):
        climbs.append(batched(*args))
        return climbs[-1]

    monkeypatch.setattr(f2, "_climb", recorded)
    base = f2.local_peak(2)
    best = f2.search_best(2, 3000, seed=7).base.assignments
    ranked = sorted(
        {frozenset(p) for p in [base.assignments] + climbs if p},
        key=lambda p: (-len(p), tuple(sorted(p))),
    )
    assert ranked[0] == best and len(ranked) > 1

    def rejecting(b):
        cert = verify(b)
        return f2.RokhlinCertificate(b, False, b.measure) if b.assignments == best else cert

    monkeypatch.setattr(f2, "verify_rokhlin_family", rejecting)
    want = next(p for p in ranked[1:] if verify(f2.CylinderPatternSet(base.window, p)).verdict)
    got = f2.search_best(2, 3000, seed=7)
    assert got.verdict and got.base.assignments == want != best
    best = base.assignments  # the baseline is the only candidate at budget 0
    with pytest.raises(Infeasible):
        f2.search_best(2, 0, seed=7)


def test_self_overlap_filter_matches_single_mask_verification():
    # radius 1: every mask meets one of its own translates, checked by the
    # independent verifier; the batch filter keeps none of them
    window = f2.ball(1)
    masks = list(range(1 << len(window)))
    for m in masks:
        assert not f2.verify_rokhlin_family(f2.CylinderPatternSet(window, frozenset([m]))).verdict
    kept, g_keys, h_keys = f2._side_keys(f2._family_projection(window), masks)
    assert kept == [] and g_keys == [] and h_keys == []
    for budget in (0, 100, 3000):
        with pytest.raises(Infeasible):
            f2.search_best(1, budget, seed=5)

    # radius 2: the filter keeps a draw exactly when its single-mask set verifies
    window = f2.ball(2)
    rng = random.Random(11)
    masks = [rng.randrange(1 << len(window)) for _ in range(300)]
    kept, _, _ = f2._side_keys(f2._family_projection(window), masks)
    verified = [
        m for m in masks
        if f2.verify_rokhlin_family(f2.CylinderPatternSet(window, frozenset([m]))).verdict
    ]
    assert kept == verified
    assert 0 < len(kept) < len(masks)


def test_search_never_draws_the_budget_remainder():
    for budget in (1, 2, 3):
        assert f2.search_best(2, budget, seed=4).base == f2.local_peak(2)
    for seed in (0, 9):
        for k in (1, 150):
            whole = f2.search_best(2, f2.RESTARTS * k, seed)
            for r in range(1, f2.RESTARTS):
                assert f2.search_best(2, f2.RESTARTS * k + r, seed) == whole, (seed, k, r)
