import json
from fractions import Fraction

import numpy as np
import pytest

from ergolab import cli
from ergolab.cli import main


def run(args):
    return main(args)


def test_tower_example(tmp_path):
    out = tmp_path / "tower.json"
    assert run(["tower", "--n", "12", "--h", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] == [11]
    assert payload["base"] == [0]
    assert payload["valid"] is True
    manifest = json.loads((tmp_path / "tower.json.manifest.json").read_text())
    assert manifest["subcommand"] == "tower"
    assert manifest["outputs"] == [str(out)]


def test_tower_prescribed_roof(tmp_path):
    out = tmp_path / "lw.json"
    assert run(["tower", "--n", "8", "--h", "3", "--y", "0,4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] == [0, 4]
    # infeasible target set is a domain error
    assert run(["tower", "--n", "8", "--h", "3", "--y", "0", "--out", str(out)]) == 1


def test_involutions_command(tmp_path):
    out = tmp_path / "inv.json"
    for argv in (["--n", "100", "--seed", "5"], ["--n", "25"]):
        assert run(["involutions"] + argv + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["verified"] is True
        s1, s2, s3 = (np.array(payload[k]) for k in ("s1", "s2", "s3"))
        ident = np.arange(payload["n"])
        for s in (s1, s2, s3):
            assert (s[s] == ident).all()
        assert (s1[s2[s3]] == np.array(payload["map"])).all()


def test_rankone_correlate_contains_halving_entry(tmp_path):
    out = tmp_path / "corr.csv"
    code = run(
        [
            "rankone", "correlate", "--h1", "1", "--spacers", "auto",
            "--intervals", "100:200", "--A", "level:5", "--n-max", "1000",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,numerator,denominator"
    by_n = {int(r.split(",")[0]): (int(r.split(",")[1]), int(r.split(",")[2])) for r in rows[1:]}
    # A is one level of the stage the single interval designs (height 150)
    assert Fraction(*by_n[150]) == Fraction(1, 4)
    assert Fraction(*by_n[0]) == Fraction(1, 2)


def test_rankone_correlate_continues_explicit_spacers(tmp_path):
    # the explicit spacers 1, 1 end at stage 3, which does not certify
    # n <= 100, and a stage-9 set lies past them; the construction continues
    # with s_j = h_j, as it does after designed spacers
    out = tmp_path / "corr.csv"
    spacers = [1, 1]
    for a_stage in (2, 9):
        assert run(
            [
                "rankone", "correlate", "--h1", "1", "--spacers", "1,1",
                "--A", f"{a_stage}:0", "--n-max", "100", "--out", str(out),
            ]
        ) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(101))
        hs, levels = [1], np.array([0])  # A is level 0 of stage a_stage
        while len(hs) < a_stage or hs[-1] - levels.max() <= 100:
            if len(hs) >= a_stage:
                levels = np.concatenate([levels, levels + hs[-1]])
            s = spacers[len(hs) - 1] if len(hs) <= len(spacers) else hs[-1]
            hs.append(2 * hs[-1] + s)
        stage = len(hs)
        diffs = np.subtract.outer(levels, levels).ravel()
        counts = np.bincount(diffs[diffs >= 0], minlength=101)
        expected = [Fraction(int(c), 2 ** (stage - 1)) for c in counts[:101]]
        assert [Fraction(int(r[1]), int(r[2])) for r in rows] == expected
        assert expected[0] == Fraction(1, 2 ** (a_stage - 1))  # mu(A)
        if a_stage == 2:
            assert expected[3] == Fraction(1, 4)  # half of mu(A) at h_2 = 3


def test_rankone_correlate_rejects_stage_zero(tmp_path, capsys):
    out = tmp_path / "corr.csv"

    def correlate(*a):
        return run(
            ["rankone", "correlate", "--h1", "1", "--spacers", "1,1", *a,
             "--n-max", "5", "--out", str(out)]
        )

    assert correlate("--A", "0:0") == 1
    assert "stage must be positive" in capsys.readouterr().err
    assert not out.exists()
    # the stage is written in --A; a text without ':' names no levels
    for a in (["--A", "level:0", "--stage", "0"], ["--A", "5"]):
        with pytest.raises(SystemExit) as exc:
            correlate(*a)
        assert exc.value.code == 2, a
        assert not out.exists()
    assert "--A" in capsys.readouterr().err
    # an empty level set is valid and has the zero series
    assert correlate("--A", "3:") == 0
    assert out.read_text() == "n,numerator,denominator\n" + "".join(
        f"{n},0,1\n" for n in range(6)
    )


def test_rankone_correlate_past_int64_step_heights(tmp_path):
    from ergolab import rank_one as r1

    out = tmp_path / "corr.csv"
    zeros = ",".join(["0"] * 66)
    for h1, spacers, stage, levels in (
        (2**63, "0", 1, (0, 5)),  # the first step height is 2^63
        (1, zeros, 64, (0,)),  # h_64 = 2^63 after 63 zero spacers
        (2**63 + 1, "0", 1, (0, 2**63)),  # a set spanning 2^63 levels
    ):
        argv = ["rankone", "correlate", "--h1", str(h1), "--spacers", spacers,
                "--A", f"{stage}:" + ",".join(map(str, levels)), "--n-max", "8",
                "--out", str(out)]
        assert run(argv) == 0, argv
        spec = r1.RankOneSpec(h1, tuple(map(int, spacers.split(","))))
        a = r1.LevelSet(stage, frozenset(levels))
        working = r1.min_exact_stage(spec, a, 8)
        assert out.read_text().splitlines() == ["n,numerator,denominator"] + [
            f"{n},{v.numerator},{v.denominator}"
            for n, v in ((n, r1.correlation(spec, a, n, working)) for n in range(9))
        ]


def test_rankone_design_and_decompose(tmp_path):
    out = tmp_path / "design.json"
    intervals = ",".join(f"{10**j}:{2 * 10**j}" for j in range(2, 7))
    assert run(["rankone", "design", "--intervals", intervals, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["heights"][1] == 150

    out2 = tmp_path / "dec.json"
    assert run(
        [
            "rankone", "decompose", "--intervals", intervals,
            "--times", "150,1650,777", "--out", str(out2),
        ]
    ) == 0
    rows = json.loads(out2.read_text())
    assert rows[0]["decomposition"] == [{"sign": 1, "stage": 2, "height": 150}]
    assert rows[1]["decomposition"] is not None
    assert rows[2]["decomposition"] is None


def test_decompose_takes_negative_times_and_rejects_a_measure_not_positive(
    tmp_path, capsys
):
    from ergolab import rank_one as r1

    out = tmp_path / "dec.json"
    decompose = ["rankone", "decompose", "--spacers", "1,1,1", "--out", str(out)]
    # a list starting with '-' goes after '=', or argparse reads an option
    assert run(decompose + ["--times=-3,7"]) == 0
    rows = json.loads(out.read_text())
    hs = r1.heights(r1.RankOneSpec(1, (1, 1, 1)), 4)
    dec = r1.nonmixing_decomposition(-3, hs, Fraction(1, 4), Fraction(1))
    assert rows[0]["n"] == -3 and dec is not None
    assert rows[0]["decomposition"] == [
        {"sign": s, "stage": j, "height": hs[j - 1]} for s, j in dec.terms
    ]
    assert rows[0]["remainder"] == dec.remainder
    assert rows[0]["term_bound"] == dec.term_bound
    # mu above 1 is valid: stage-1 levels have width 1
    assert run(decompose + ["--times", "3,7", "--mu-num", "3"]) == 0
    assert json.loads(out.read_text())[0]["decomposition"] is not None
    out.unlink()
    (tmp_path / "dec.json.manifest.json").unlink()
    capsys.readouterr()
    for mu in (["--mu-den", "-1"], ["--mu-num", "0"], ["--mu-num", "-2"]):
        assert run(decompose + ["--times", "3,7", *mu]) == 1, mu
        assert "measure must be positive" in capsys.readouterr().err, mu
        assert not out.exists(), mu


def test_rankone_gaps(tmp_path):
    out = tmp_path / "gaps.json"
    seq = ",".join(str(k * k) for k in range(1, 40))
    assert run(["rankone", "gaps", "--sequence", seq, "--count", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 3


def test_recurrence_commands(tmp_path):
    out = tmp_path / "avg.json"
    assert run(
        ["recurrence", "average", "--n", "5", "--A", "0", "--N", "5", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == {"num": 1, "den": 25}

    out2 = tmp_path / "wit.json"
    assert run(
        ["recurrence", "witness", "--n", "9", "--A", "0,1,2", "--N", "9", "--out", str(out2)]
    ) == 0
    assert json.loads(out2.read_text())["witness"] == 1

    out3 = tmp_path / "prof.csv"
    assert run(
        ["recurrence", "profile", "--n", "9", "--A", "0,1", "--N", "9", "--out", str(out3)]
    ) == 0
    assert out3.read_text().splitlines()[0] == "i,numerator,denominator"


def test_recurrence_explicit_empty_sets_are_used(tmp_path):
    # an empty --A1 or --A2 is the empty set, not "default to A"
    out = tmp_path / "avg.json"
    argv = ["recurrence", "average", "--n", "10", "--A", "1,2", "--N", "3"]
    assert run(argv + ["--A1", "", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["product"] == {"num": 0, "den": 1}
    assert payload["value"] == {"num": 0, "den": 1}
    manifest = json.loads((tmp_path / "avg.json.manifest.json").read_text())
    assert manifest["parameters"]["a1"] == []

    out2 = tmp_path / "prof.csv"
    argv = ["recurrence", "profile", "--n", "4", "--A", "0,1,2,3", "--N", "2"]
    assert run(argv + ["--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[1:] == ["1,1,1", "2,1,1"]
    assert run(argv + ["--A2", "", "--out", str(out2)]) == 0
    assert out2.read_text().splitlines()[1:] == ["1,0,1", "2,0,1"]


def test_repeated_set_items_write_the_same_bytes_as_distinct_ones(tmp_path):
    for argv, repeated, distinct in (
        (["tower", "--n", "8", "--h", "3"], ["--y", "0,0,4,4"], ["--y", "0,4"]),
        (["recurrence", "average", "--n", "5", "--N", "5"],
         ["--A", "0,0,2"], ["--A", "0,2"]),
    ):
        outs = [tmp_path / "repeated.json", tmp_path / "distinct.json"]
        for flags, out in zip((repeated, distinct), outs):
            assert run(argv + flags + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["tower", "--n", "8", "--h", "3", "--y", "18446744073709551616"],
    ["recurrence", "average", "--n", "5", "--A=-1,9223372036854775808", "--N", "5"],
    ["recurrence", "average", "--n", "5", "--A=-36893488147419103232", "--N", "5"],
])
def test_set_items_outside_int64_are_out_of_range(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 1
    assert "atom index out of range" in capsys.readouterr().err
    assert not out.exists()


def test_recurrence_horizon_below_one_is_a_domain_error(tmp_path, capsys):
    for action in ("average", "witness", "profile"):
        for horizon in ("0", "-3"):
            out = tmp_path / f"{action}{horizon}.out"
            assert run(
                ["recurrence", action, "--n", "9", "--A", "0,1", "--N", horizon,
                 "--out", str(out)]
            ) == 1
            assert "horizon must be at least 1" in capsys.readouterr().err
            assert not out.exists()


def test_ledrappier_commands(tmp_path):
    img = tmp_path / "f.pgm"
    assert run(
        ["ledrappier", "sample", "--n", "32", "--m", "16", "--seed", "3", "--out", str(img)]
    ) == 0
    assert img.read_bytes().startswith(b"P5\n32 16\n255\n")

    rep = tmp_path / "verify.json"
    assert run(
        ["ledrappier", "verify", "--n", "64", "--m", "64", "--seed", "3", "--out", str(rep)]
    ) == 0
    payload = json.loads(rep.read_text())
    assert payload["harmonic"] is True
    assert all(payload["power_checks"].values())

    st = tmp_path / "stats.json"
    assert run(
        ["ledrappier", "stats", "--n", "64", "--m", "64", "--seed", "9", "--out", str(st)]
    ) == 0
    assert json.loads(st.read_text())["seed"] == 9


def test_mosaic_commands(tmp_path):
    img = tmp_path / "m.ppm"
    assert run(
        ["mosaic", "generate", "--w", "12", "--h", "9", "--k", "3", "--seed", "1",
         "--out", str(img)]
    ) == 0
    assert img.read_bytes().startswith(b"P6\n12 9\n255\n")

    cnt = tmp_path / "c.json"
    assert run(["mosaic", "count", "--w", "6", "--h", "6", "--k", "3", "--out", str(cnt)]) == 0
    assert json.loads(cnt.read_text())["count"] == "1"

    ent = tmp_path / "e.csv"
    assert run(
        ["mosaic", "entropy", "--widths", "3,6", "--h", "6", "--k", "3", "--out", str(ent)]
    ) == 0
    assert ent.read_text().splitlines()[0] == "w,h,entropy_per_site"

    assert run(
        ["mosaic", "generate", "--w", "4", "--h", "4", "--k", "3", "--seed", "1",
         "--out", str(img)]
    ) == 1  # Infeasible is a domain error


def test_f2_commands(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["f2", "search", "--radius", "2", "--budget", "500", "--seed", "7",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] is True
    assert Fraction(payload["measure"]["num"], payload["measure"]["den"]) >= Fraction(1, 2**17)

    base = tmp_path / "base.json"
    assert run(["f2", "verify", "--radius", "2", "--out", str(base)]) == 0
    payload = json.loads(base.read_text())
    assert payload["measure"] == {"num": 1, "den": 131072}


def test_f2_search_at_radius_one_is_a_domain_error(tmp_path, capsys):
    for budget in ("0", "500"):
        out = tmp_path / f"r1_{budget}.json"
        assert run(["f2", "search", "--radius", "1", "--budget", budget, "--seed", "3",
                    "--out", str(out)]) == 1
        assert "at radius 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--radius", "2", "--budget", "-5"], "budget must be non-negative"),
    (["--radius", "0", "--budget", "100"], "radius must be at least 1"),
    (["--radius", "3", "--budget", "100"], "cap is 2"),
])
def test_f2_search_out_of_domain_exits_1_without_output(tmp_path, capsys, flags, message):
    out = tmp_path / "cert.json"
    assert run(["f2", "search", *flags, "--seed", "3", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "cert.json.manifest.json").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--n", "12", "--out", "x.json"])  # missing --h
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--n", "12", "--h", "3", "--bogus", "1", "--out", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["f2", "search", "--radius", "2", "--out", "x.json"])  # no seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    for bad in (["1"], ["1,2,3"], ["1,2", "--direction", "sideways"]):
        with pytest.raises(SystemExit) as exc:
            main(["ledrappier", "trace", "--n", "8", "--m", "8", "--seed", "1",
                  "--start", *bad, "--out", "x.csv"])
        assert exc.value.code == 2
    for den in ("--mu-den", "--c-den"):
        with pytest.raises(SystemExit) as exc:
            main(["rankone", "decompose", "--spacers", "1,1", "--times", "3",
                  den, "0", "--out", "x.json"])
        assert exc.value.code == 2
    capsys.readouterr()
    # one malformed value per list flag: argparse names the flag
    out = str(tmp_path / "x.out")
    correlate = ["rankone", "correlate", "--n-max", "5"]
    cases = [
        ("--y", ["tower", "--n", "12", "--h", "3", "--y", "1,x"]),
        ("--A", ["recurrence", "average", "--n", "5", "--A", "a", "--N", "3"]),
        ("--A1", ["recurrence", "profile", "--n", "5", "--A", "0", "--A1", "0,b",
                  "--N", "3"]),
        ("--A2", ["recurrence", "witness", "--n", "5", "--A", "0", "--A2", "1.5",
                  "--N", "3"]),
        ("--sequence", ["rankone", "gaps", "--sequence", "1,x", "--count", "1"]),
        ("--times", ["rankone", "decompose", "--spacers", "1,1", "--times", "3,t"]),
        ("--widths", ["mosaic", "entropy", "--widths", "2,q", "--h", "4", "--k", "2"]),
        ("--intervals", ["rankone", "design", "--intervals", "1-5"]),
        ("--intervals", ["rankone", "decompose", "--intervals", "1:5,7", "--times", "3"]),
        ("--spacers", correlate + ["--spacers", "1,two", "--A", "2:0"]),
        ("--A", correlate + ["--spacers", "1,1", "--A", "level"]),
        ("--A", correlate + ["--spacers", "1,1", "--A", "s:0"]),
        ("--A", correlate + ["--spacers", "1,1", "--A", "level:0,x"]),
        ("--start", ["ledrappier", "trace", "--n", "8", "--m", "8", "--seed", "1",
                     "--start", "1,y"]),
        ("--intervals", correlate + ["--A", "level:0"]),  # --spacers auto needs it
        ("--intervals", ["rankone", "decompose", "--spacers", "auto", "--times", "3"]),
        ("--A2", ["recurrence", "average", "--n", "5", "--A", "0", "--A2", "1.5",
                  "--N", "3"]),
        ("--mu-den", ["rankone", "decompose", "--spacers", "1,1", "--times", "3",
                      "--mu-den", "0"]),
        ("--c-den", ["rankone", "decompose", "--spacers", "1,1", "--times", "3",
                     "--c-den", "0"]),
        # flags each action requires
        ("--start", ["ledrappier", "trace", "--n", "8", "--m", "8", "--seed", "1"]),
        ("--seed", ["mosaic", "generate", "--w", "4", "--h", "4", "--k", "2"]),
        ("--seed", ["mosaic", "spin", "--w", "4", "--h", "4", "--k", "2"]),
        ("--w", ["mosaic", "count", "--h", "4", "--k", "2"]),
        ("--w", ["mosaic", "spin", "--h", "4", "--k", "2", "--seed", "1"]),
        ("--widths", ["mosaic", "entropy", "--h", "4", "--k", "2"]),
        ("--widths", ["mosaic", "entropy", "--widths", ",", "--h", "4", "--k", "2"]),
        # flags the action does not read
        ("--seed", ["mosaic", "count", "--w", "4", "--h", "4", "--k", "2", "--seed", "3"]),
        ("--budget", ["f2", "verify", "--budget", "9"]),
        ("--seed", ["f2", "verify", "--seed", "1"]),
        ("--A1", ["recurrence", "witness", "--n", "5", "--A", "0", "--A1", "1",
                  "--N", "3"]),
        ("--samples", ["ledrappier", "sample", "--n", "8", "--m", "8", "--seed", "1",
                       "--samples", "3"]),
        # not taken as an abbreviation of --widths
        ("--w", ["mosaic", "entropy", "--widths", "2", "--w", "5", "--h", "4", "--k", "2"]),
    ]
    for flag, argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", out])
        assert exc.value.code == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not list(tmp_path.iterdir())


def test_manifest_records_only_the_flags_the_action_reads(tmp_path):
    field = ["--n", "16", "--m", "16", "--seed", "3"]
    runs = [
        (["ledrappier", "sample", *field], {"width", "m"}),
        (["ledrappier", "verify", *field], {"width", "m"}),
        (["ledrappier", "trace", *field, "--start", "0,0"],
         {"width", "m", "start", "direction"}),
        (["ledrappier", "stats", *field], {"width", "m", "samples"}),
        (["f2", "verify"], {"radius"}),
        (["f2", "search", "--budget", "5", "--seed", "2"], {"radius", "budget"}),
        (["mosaic", "count", "--w", "2", "--h", "2", "--k", "2"],
         {"width", "m", "k", "adjacency"}),
        (["mosaic", "entropy", "--widths", "2", "--h", "2", "--k", "2"],
         {"widths", "m", "k", "adjacency"}),
        (["recurrence", "witness", "--n", "5", "--A", "0", "--N", "3"],
         {"n", "a", "horizon"}),
        (["rankone", "gaps", "--sequence", "1,4,9", "--count", "1"],
         {"sequence", "count"}),
    ]
    for argv, read in runs:
        out = tmp_path / "run.out"
        assert run(argv + ["--out", str(out)]) == 0, argv
        manifest = json.loads((tmp_path / "run.out.manifest.json").read_text())
        assert set(manifest["parameters"]) == {"subcommand", "action"} | read, argv
        seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
        assert manifest["seed"] == seed, argv


def test_sample_count_and_horizons_below_range_are_domain_errors(tmp_path, capsys):
    cases = [
        (["ledrappier", "stats", "--n", "16", "--m", "16", "--seed", "3", "--samples", s],
         "at least one sample") for s in ("0", "-2")
    ] + [
        (["rankone", "correlate", "--spacers", "1,1", "--A", "2:0", "--n-max", n],
         "n_max must be non-negative") for n in ("-1", "-4")
    ] + [
        (["rankone", "decompose", "--spacers", "1,1", "--times", "3,4",
          "--remainder-cap", c], "remainder cap must be non-negative") for c in ("-1", "-2")
    ]
    for argv, message in cases:
        out = tmp_path / "x.out"
        assert run(argv + ["--out", str(out)]) == 1, argv
        assert message in capsys.readouterr().err, argv
        assert not list(tmp_path.iterdir())


def test_seeded_reruns_are_byte_identical(tmp_path):
    for args, name in [
        (["ledrappier", "sample", "--n", "48", "--m", "48", "--seed", "5"], "f.pgm"),
        (["mosaic", "generate", "--w", "12", "--h", "12", "--k", "3", "--seed", "2"], "m.ppm"),
        (["f2", "search", "--radius", "2", "--budget", "300", "--seed", "4"], "c.json"),
        (["involutions", "--n", "500", "--seed", "1"], "i.json"),
    ]:
        out1 = tmp_path / ("a_" + name)
        out2 = tmp_path / ("b_" + name)
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"


def test_json_writer_matches_json_dumps_on_every_payload(tmp_path, monkeypatch):
    """Every JSON output and every manifest goes through `_write_json` and
    reads back as json.dumps(sort_keys=True, indent=2) writes it."""
    written = []
    write_json = cli._write_json

    def checked(path, payload):
        write_json(path, payload)
        written.append(path)
        with open(path, encoding="ascii", newline="") as fh:
            assert fh.read() == reference_json(payload), path

    monkeypatch.setattr(cli, "_write_json", checked)
    intervals = "100:200,1000:2000"
    json_runs = [
        ["tower", "--n", "40", "--h", "7"],
        ["tower", "--n", "8", "--h", "3", "--y", "0,4"],
        ["involutions", "--n", "300", "--seed", "5"],
        ["involutions", "--n", "25"],
        ["rankone", "design", "--intervals", intervals],
        ["rankone", "decompose", "--intervals", intervals, "--times", "150,1650,777"],
        ["rankone", "gaps", "--sequence", "1,4,9,16,25,36,49", "--count", "3"],
        ["recurrence", "average", "--n", "5", "--A", "0,2", "--N", "5"],
        ["recurrence", "witness", "--n", "9", "--A", "0,1,2", "--N", "9"],
        # 2**(k+1) < 64 gives int keys 0..4 in power_checks
        ["ledrappier", "verify", "--n", "64", "--m", "64", "--seed", "3"],
        ["mosaic", "spin", "--w", "1", "--h", "1", "--k", "2", "--seed", "1"],
        ["mosaic", "count", "--w", "6", "--h", "4", "--k", "2"],
        ["ledrappier", "stats", "--n", "32", "--m", "32", "--seed", "3"],
        ["f2", "verify", "--radius", "1"],
        ["f2", "search", "--radius", "2", "--budget", "300", "--seed", "4"],
    ]
    # atom lists whose largest atom gains a digit, seeded and standard
    for n in (1, 2, 3, 10, 11, 100, 101, 1000):
        json_runs.append(["involutions", "--n", str(n)])
        json_runs.append(["involutions", "--n", str(n), "--seed", str(n)])
    # outputs in other formats; only their manifests are JSON
    other_runs = [
        ["rankone", "correlate", "--intervals", intervals, "--A", "level:5",
         "--n-max", "20"],
        ["recurrence", "profile", "--n", "9", "--A", "0,1", "--A2", "4", "--N", "4"],
        ["ledrappier", "sample", "--n", "8", "--m", "8", "--seed", "3"],
        ["ledrappier", "trace", "--n", "64", "--m", "64", "--seed", "3",
         "--start", "23,32"],
        ["mosaic", "generate", "--w", "4", "--h", "4", "--k", "2", "--seed", "1"],
        ["mosaic", "entropy", "--widths", "2,4", "--h", "4", "--k", "2"],
    ]
    for i, argv in enumerate(json_runs + other_runs):
        assert run(argv + ["--out", str(tmp_path / f"{i}.out")]) == 0
    manifests = [p for p in written if p.endswith(".manifest.json")]
    assert len(manifests) == len(json_runs) + len(other_runs)
    assert len(written) == len(manifests) + len(json_runs)


def test_json_writer_matches_json_dumps_on_synthetic_payloads(tmp_path):
    payloads = [
        {10: "ten", 2: "two", -1: None, 0: True},  # int keys sort numerically
        {1.5: [], 0.25: {}, float("inf"): (), True: 0},
        {None: [None]},
        {"a": [1.0, -0.0, 1e300, 2.5e-9, float("nan"), float("-inf")]},
        {"s": ["", "q\"uote", "back\\slash", "tab\tnew\nline", "é ü ✓", ",\n  "]},
        {"deep": [[1, [2, [3, []]]], {"b": {"c": [None, False, True]}}, ()]},
        {"mixed": [1, "two", 3.0, None, True, {"k": [4]}, [5, 6]]},
        [], {}, (), 0, -7, 2**70, 3.25, "text", None, False,
        [[], {}, [[]], [{}]],
        (1, (2, 3), [4]),
        {"z": 1, "a": {"y": [1, 2], "b": ()}, "m": [[{"x": 0}]]},
    ]
    # 1-D int64 arrays: a zero inside a number must not read as a leading zero
    edges = [0, 7, 100, 1001, 10**9, 999_999_999, 1_000_000_000, 2**32 - 1,
             2**32, -1, -10, -1001, -(2**63), 2**63 - 1, 10, 0]
    arrays = [np.array(v, dtype=np.int64) for v in (
        [], [0], [5], [-5], [100], [1001], [10**9], [999_999_999],
        [1_000_000_000], [2**32 - 1], [2**32], [-(2**63)], [2**63 - 1],
        [0, 10, 100, 1000, 10, 0], [9, 10, 99, 100, 999, 1000, 1001, 1010],
        edges, edges[::-1], edges[:9], edges[9:],
    )]
    arrays.append(np.arange(-1200, 1200, 7, dtype=np.int64)[::3])  # a strided view
    arrays.append(np.random.default_rng(5).permutation(12345).astype(np.int64))
    payloads += arrays
    payloads += [
        {"n": 3, "map": arrays[14], "inner": {"deep": [arrays[15], [arrays[1]]]}},
        [arrays[0], arrays[2], 4, [arrays[-1]], {"a": arrays[13]}],
        (arrays[15], "x", None),
    ]
    for i, payload in enumerate(payloads):
        path = tmp_path / f"{i}.json"
        cli._write_json(str(path), payload)
        assert path.read_bytes() == reference_json(payload).encode("ascii"), payload
    bad_arrays = [
        np.array([True, False]),
        np.array([1.0, 2.5]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array(7, dtype=np.int64),
        np.array([1, "a"], dtype=object),
        np.arange(4, dtype=np.int32),
    ]
    bad_payloads = [{(1, 2): 0}, {"a": 1, 2: 3}, [object()], *bad_arrays,
                    np.array([], dtype=np.float64), {"a": bad_arrays[0]},
                    [1, bad_arrays[2]], {"z": [1, 2], "a": {"k": object()}}]
    for i, bad in enumerate(bad_payloads):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        path = tmp_path / f"bad{i}.json"
        with pytest.raises(TypeError):
            cli._write_json(str(path), bad)
        assert not path.exists(), bad


def test_csv_writer_matches_a_join_of_str_per_row(tmp_path, monkeypatch):
    """Every CSV action writes the header, then ",".join(map(str, row)) per
    row, float entropy rows included."""
    written = []
    write_csv = cli._write_csv

    def checked(path, header, rows):
        rows = list(rows)
        write_csv(path, header, rows)
        written.append(path)
        expected = [",".join(header)] + [",".join(map(str, row)) for row in rows]
        with open(path, encoding="ascii", newline="") as fh:
            assert fh.read() == "\n".join(expected) + "\n", path
        assert all(type(row) is tuple and len(row) == len(header) for row in rows)

    monkeypatch.setattr(cli, "_write_csv", checked)
    csv_runs = [
        ["rankone", "correlate", "--intervals", "100:200,1000:2000", "--A", "level:5",
         "--n-max", "40"],
        ["rankone", "correlate", "--spacers", "1,0,3", "--A", "2:0,1,2", "--n-max", "30"],
        ["recurrence", "profile", "--n", "9", "--A", "0,1", "--A2", "4", "--N", "4"],
        ["recurrence", "profile", "--n", "40", "--A", "0,3,5,11", "--N", "12"],
        ["ledrappier", "trace", "--n", "64", "--m", "64", "--seed", "3",
         "--start", "23,32"],
        ["ledrappier", "trace", "--n", "32", "--m", "32", "--seed", "4",
         "--start", "5,6", "--direction", "right"],
        ["mosaic", "entropy", "--widths", "1,2,3,4,5", "--h", "4", "--k", "2"],
        ["mosaic", "entropy", "--widths", "1,3,6", "--h", "3", "--k", "3",
         "--adjacency", "4"],
    ]
    for i, argv in enumerate(csv_runs):
        assert run(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0, argv
    assert len(written) == len(csv_runs)
    entropy = (tmp_path / "6.csv").read_text().splitlines()
    assert entropy[0] == "w,h,entropy_per_site" and "." in entropy[1].split(",")[2]


def test_mosaic_count_takes_the_default_adjacency_when_given(tmp_path):
    base = ["mosaic", "count", "--w", "5", "--h", "5", "--k", "2"]
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert main(base + ["--adjacency", "8", "--out", str(tmp_path / "eight")]) == 0
    assert (tmp_path / "eight").read_bytes() == (tmp_path / "default").read_bytes()
