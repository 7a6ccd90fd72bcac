"""Command-line entry point: one subcommand per module, manifest-logged runs.

Every run writes its primary output to --out and a manifest (parameters,
seed, versions, output paths, wall time) to <out>.manifest.json. Identical
arguments and seed produce byte-identical primary outputs; only the wall
time in the manifest may differ. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, core, f2, involutions, ledrappier, mosaics
from . import rank_one as r1
from . import recurrence as rec
from .errors import ErgolabError


def _write_manifest(out: str, sub: str, params: dict, seed, t0: float) -> None:
    manifest = {
        "subcommand": sub,
        "parameters": params,
        "seed": seed,
        "versions": {
            "ergolab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": [out],
        "wall_time_s": time.monotonic() - t0,
    }
    with open(out + ".manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _frac(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator}


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _parse_intervals(text: str) -> list[tuple[int, int]]:
    out = []
    for tok in text.split(","):
        lo, _, hi = tok.partition(":")
        out.append((int(lo), int(hi)))
    return out


def _cmd_tower(args) -> None:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    if args.y is not None:
        y = sys_.subset(_parse_int_list(args.y))
        tower = core.lehrer_weiss_tower(sys_, args.height, y)
    else:
        tower = core.rokhlin_tower(sys_, args.height)
    payload = {
        "n": args.n,
        "height": tower.height,
        "base": sorted(tower.base.members),
        "residual": sorted(tower.residual.members),
        "residual_measure": _frac(tower.residual.measure),
        "valid": core.validate_tower(sys_, tower),
    }
    _write_json(args.out, payload)


def _cmd_involutions(args) -> None:
    if args.seed is not None:
        sys_ = core.FinitePermutationSystem.random_cycle(args.n, args.seed)
    else:
        sys_ = core.FinitePermutationSystem.cycle(args.n)
    triple = involutions.factor_three_involutions(sys_, args.height)
    payload = {
        "n": args.n,
        "map": sys_.map.tolist(),
        "s1": triple.s1.tolist(),
        "s2": triple.s2.tolist(),
        "s3": triple.s3.tolist(),
        "verified": triple.verify(sys_.map),
    }
    _write_json(args.out, payload)


def _rankone_spec(args) -> tuple[r1.RankOneSpec, tuple[int, ...]]:
    if args.spacers == "auto":
        if not args.intervals:
            raise ErgolabError("--spacers auto needs --intervals")
        design = r1.design_spacers(_parse_intervals(args.intervals), args.h1)
        return design.spec, design.selected
    spec = r1.RankOneSpec(args.h1, tuple(_parse_int_list(args.spacers)))
    return spec, ()


def _parse_level_set(text: str, spec: r1.RankOneSpec, stage_flag) -> r1.LevelSet:
    if text.startswith("level:"):
        stage = stage_flag if stage_flag is not None else spec.max_stage
        levels = frozenset(_parse_int_list(text[len("level:"):]))
    else:
        stage_txt, _, levels_txt = text.partition(":")
        stage = int(stage_txt)
        levels = frozenset(_parse_int_list(levels_txt))
    return r1.LevelSet(stage, levels)


def _cmd_rankone_design(args) -> None:
    design = r1.design_spacers(_parse_intervals(args.intervals), args.h1)
    payload = {
        "h1": design.spec.h1,
        "spacers": list(design.spec.spacers),
        "heights": list(design.heights),
        "selected_intervals": list(design.selected),
    }
    _write_json(args.out, payload)


def _cmd_rankone_correlate(args) -> None:
    spec, _ = _rankone_spec(args)
    a = _parse_level_set(args.a, spec, args.stage)
    series = r1.correlation_series(spec, a, args.n_max)
    _write_text(args.out, series.to_csv())


def _cmd_rankone_decompose(args) -> None:
    spec, _ = _rankone_spec(args)
    hs = r1.heights(spec, spec.max_stage)
    mu = Fraction(args.mu_num, args.mu_den)
    c = Fraction(args.c_num, args.c_den)
    rows = []
    for n in _parse_int_list(args.times):
        dec = r1.nonmixing_decomposition(n, hs, c, mu, args.remainder_cap)
        if dec is None:
            rows.append({"n": n, "decomposition": None})
        else:
            rows.append(
                {
                    "n": n,
                    "decomposition": [
                        {"sign": s, "stage": j, "height": hs[j - 1]}
                        for s, j in dec.terms
                    ],
                    "remainder": dec.remainder,
                    "term_bound": dec.term_bound,
                }
            )
    _write_json(args.out, rows)


def _cmd_rankone_gaps(args) -> None:
    seq = _parse_int_list(args.sequence)
    gaps = r1.gap_intervals(seq, args.count)
    payload = [{"lo": lo, "hi": hi} for lo, hi in gaps]
    _write_json(args.out, payload)


def _cmd_recurrence(args) -> None:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    a = sys_.subset(_parse_int_list(args.a))
    a1 = sys_.subset(_parse_int_list(args.a1)) if args.a1 else a
    a2 = sys_.subset(_parse_int_list(args.a2)) if args.a2 else a
    if args.action == "average":
        avg = rec.furstenberg_average(sys_, a, a1, a2, args.horizon)
        payload = {
            "N": avg.n_horizon,
            "value": _frac(avg.value),
            "product": _frac(avg.product),
        }
        _write_json(args.out, payload)
    elif args.action == "witness":
        w = rec.roth_witness(sys_, a, args.horizon)
        payload = {"witness": w, "i_max": args.horizon}
        _write_json(args.out, payload)
    else:  # profile
        rows = [
            (i, rec.triple_intersection(sys_, a, a1, a2, i))
            for i in range(1, args.horizon + 1)
        ]
        _write_text(args.out, rec.series_csv(rows))


def _cmd_ledrappier(args) -> None:
    field = ledrappier.sample_field(args.width, args.m, args.seed)
    if args.action == "sample":
        ledrappier.render_pgm(field, args.out)
    elif args.action == "verify":
        ok = ledrappier.verify_harmonicity(field)
        powers = {}
        k = 0
        while 2 ** (k + 1) < min(args.width, args.m):
            powers[k] = ledrappier.power_identity_check(field, k)
            k += 1
        payload = {"harmonic": ok, "power_checks": powers}
        _write_json(args.out, payload)
    elif args.action == "trace":
        x, y = _parse_int_list(args.start)
        trace = ledrappier.trace_thread(field, (x, y), args.direction)
        _write_text(args.out, trace.to_csv())
    else:  # stats
        stats = ledrappier.thread_statistics(field, args.samples, args.seed)
        _write_text(args.out, ledrappier.statistics_json(stats))


def _cmd_mosaic(args) -> None:
    if args.action == "generate":
        mosaic = mosaics.generate_mosaic(args.width, args.m, args.k, args.adjacency)
        mosaics.render_ppm(mosaic, args.out)
    elif args.action == "count":
        c = mosaics.count_mosaics(args.width, args.m, args.k, args.adjacency)
        _write_text(
            args.out,
            mosaics.counts_json(args.width, args.m, args.k, c, args.adjacency),
        )
    elif args.action == "entropy":
        sizes = [(w, args.m) for w in _parse_int_list(args.widths)]
        rows = mosaics.entropy_profile(sizes, args.k, args.adjacency)
        _write_text(args.out, mosaics.entropy_csv(rows))
    else:  # spin
        mosaic = mosaics.generate_mosaic(args.width, args.m, args.k, args.adjacency)
        result = mosaics.spin_map(mosaic)
        payload = {
            "plus": result["plus"],
            "minus": result["minus"],
            "diagnostic": result["diagnostic"],
        }
        _write_json(args.out, payload)


def _cmd_f2(args) -> None:
    if args.action == "verify":
        cert = f2.verify_rokhlin_family(f2.local_peak(args.radius))
        _write_text(args.out, cert.to_json(None))
    else:  # search
        cert = f2.search_best(args.radius, args.budget, args.seed)
        _write_text(args.out, cert.to_json(args.seed))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="finite-scale measure-preserving dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tower", help="Rokhlin / prescribed-roof towers")
    p.add_argument("--n", type=int, required=True, help="cycle length")
    p.add_argument("--h", dest="height", type=int, required=True, help="tower height")
    p.add_argument("--y", help="comma-separated atoms allowed to hold the roof")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tower, seed=None)

    p = sub.add_parser("involutions", help="three-involution factorization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, default=11)
    p.add_argument("--seed", type=int, help="random single cycle (default: standard)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_involutions)

    p = sub.add_parser("rankone", help="rank-one construction tools")
    acts = p.add_subparsers(dest="action", required=True)

    pa = acts.add_parser("design", help="fit spacers to interval midpoints")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--intervals", required=True, help="lo:hi,lo:hi,...")
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_design, seed=None)

    pa = acts.add_parser("correlate", help="exact correlation series CSV")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--spacers", default="auto", help="'auto' or s1,s2,...")
    pa.add_argument("--intervals", help="lo:hi,... used when --spacers auto")
    pa.add_argument("--A", dest="a", required=True, help="'level:5' or 'stage:5,7'")
    pa.add_argument("--stage", type=int, help="stage of the level set")
    pa.add_argument("--n-max", dest="n_max", type=int, required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_correlate, seed=None)

    pa = acts.add_parser("decompose", help="signed-height decompositions")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--spacers", default="auto")
    pa.add_argument("--intervals")
    pa.add_argument("--times", required=True, help="comma-separated times")
    pa.add_argument("--mu-num", type=int, default=1)
    pa.add_argument("--mu-den", type=int, default=1)
    pa.add_argument("--c-num", type=int, default=1)
    pa.add_argument("--c-den", type=int, default=4)
    pa.add_argument("--remainder-cap", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_decompose, seed=None)

    pa = acts.add_parser("gaps", help="intervals inside gaps of a sequence")
    pa.add_argument("--sequence", required=True, help="comma-separated increasing")
    pa.add_argument("--count", type=int, required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_gaps, seed=None)

    p = sub.add_parser("recurrence", help="triple intersections and averages")
    p.add_argument("action", choices=["average", "witness", "profile"])
    p.add_argument("--n", type=int, required=True, help="rotation size")
    p.add_argument("--A", dest="a", required=True, help="comma-separated atoms")
    p.add_argument("--A1", dest="a1")
    p.add_argument("--A2", dest="a2")
    p.add_argument("--N", dest="horizon", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recurrence, seed=None)

    p = sub.add_parser("ledrappier", help="harmonic GF(2) fields")
    p.add_argument("action", choices=["sample", "verify", "trace", "stats"])
    p.add_argument("--n", dest="width", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", help="x,y for trace")
    p.add_argument("--direction", default="up")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ledrappier)

    p = sub.add_parser("mosaic", help="square tilings with isolated blues")
    p.add_argument("action", choices=["generate", "count", "entropy", "spin"])
    p.add_argument("--w", dest="width", type=int, help="board width")
    p.add_argument("--h", dest="m", type=int, required=True, help="board height")
    p.add_argument("--k", type=int, required=True, choices=[2, 3])
    p.add_argument("--adjacency", type=int, default=8, choices=[4, 8])
    p.add_argument("--widths", help="comma-separated widths for entropy")
    p.add_argument(
        "--seed",
        type=int,
        help="required for generate/spin; free-boundary output does not depend on it",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mosaic)

    p = sub.add_parser("f2", help="free-group Rokhlin families")
    p.add_argument("action", choices=["verify", "search"])
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--seed", type=int, help="required for search")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_f2)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "ledrappier" and args.action == "trace" and not args.start:
        parser.error("ledrappier trace requires --start x,y")
    if args.subcommand == "mosaic":
        if args.action in ("generate", "spin") and args.seed is None:
            parser.error("mosaic generate/spin require --seed")
        if args.action != "entropy" and args.width is None:
            parser.error("mosaic requires --w")
        if args.action == "entropy" and not args.widths:
            parser.error("mosaic entropy requires --widths")
    if args.subcommand == "f2" and args.action == "search" and args.seed is None:
        parser.error("f2 search requires --seed")
    if args.subcommand == "rankone" and args.action == "decompose":
        if 0 in (args.mu_den, args.c_den):
            parser.error("rankone decompose requires non-zero --mu-den and --c-den")
    t0 = time.monotonic()
    try:
        args.func(args)
    except (ErgolabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "seed") and v is not None
    }
    _write_manifest(args.out, args.subcommand, params, getattr(args, "seed", None), t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
