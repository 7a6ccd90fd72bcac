"""Command-line entry point: one subcommand per module, manifest-logged runs.

Every run writes its primary output to --out and a manifest (parameters,
seed, versions, output paths, wall time) to <out>.manifest.json. Identical
arguments and seed produce byte-identical primary outputs; only the wall
time in the manifest may differ. Exit codes: 0 success, 1 domain error,
2 usage error.

This is the only module that formats output or writes files; the library
modules return values. Three writers produce every file:
  _write_json  json.dumps(sort_keys=True, indent=2) and a newline: every
               JSON output and every manifest;
  _write_csv   a header line, then one comma-separated line per row;
  _write_pnm   binary netpbm with maxval 255: P5 (greyscale) from an
               (h, w) uint8 array, P6 (RGB) from an (h, w, 3) one.
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
    _write_json(out + ".manifest.json", manifest)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


_CONTAINERS = (dict, list, tuple)


def _json_key(key) -> str:
    """A dict key coerced to a string as json does it, after sorting (so
    int keys sort as ints)."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), nested at indent `pad`.

    json indents in pure Python. A list of scalars is written instead by
    one call of the C encoder with the indented item separator, which is
    about three times faster on the long atom lists of `involutions`.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join(
            json.dumps(_json_key(k)) + ": " + _json_text(v, inner)
            for k, v in sorted(obj.items())
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
        body = sep.join(_json_text(v, inner) for v in obj)
    else:
        body = json.dumps(obj, separators=(sep, ": "))[1:-1]
    return "[\n" + inner + body + "\n" + pad + "]"


def _write_json(path: str, payload) -> None:
    _write_text(path, _json_text(payload) + "\n")


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_pnm(path: str, magic: str, pixels: np.ndarray) -> None:
    height, width = pixels.shape[:2]
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + pixels.tobytes())


def _frac(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator}


def _write_fractions(path: str, index: str, pairs) -> None:
    """(i, value) pairs as CSV rows i, numerator, denominator."""
    rows = ((i, v.numerator, v.denominator) for i, v in pairs)
    _write_csv(path, (index, "numerator", "denominator"), rows)


# argparse converters for the list flags: a ValueError from one is a usage
# error (exit 2) that names the flag
def _ints(text: str) -> list[int]:
    """Comma-separated integers; empty items are skipped."""
    return [int(tok) for tok in text.split(",") if tok != ""]


def _intervals(text: str) -> list[tuple[int, int]]:
    out = []
    for tok in text.split(","):
        lo, _, hi = tok.partition(":")
        out.append((int(lo), int(hi)))
    return out


def _spacers(text: str) -> str | list[int]:
    return text if text == "auto" else _ints(text)


def _level_set(text: str) -> dict:
    """'level:l1,l2' (stage from --stage, else the spec's last) or
    'stage:l1,l2'."""
    if text.startswith("level:"):
        return {"stage": None, "levels": _ints(text[len("level:"):])}
    stage, _, levels = text.partition(":")
    return {"stage": int(stage), "levels": _ints(levels)}


def _point(text: str) -> tuple[int, int]:
    x, y = map(int, text.split(","))
    return x, y


def _cmd_tower(args) -> None:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    if args.y is not None:
        tower = core.lehrer_weiss_tower(sys_, args.height, sys_.subset(args.y))
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


def _rankone_spec(args) -> r1.RankOneSpec:
    if args.spacers == "auto":
        return r1.design_spacers(args.intervals, args.h1).spec
    return r1.RankOneSpec(args.h1, tuple(args.spacers))


def _cmd_rankone_design(args) -> None:
    design = r1.design_spacers(args.intervals, args.h1)
    payload = {
        "h1": design.spec.h1,
        "spacers": list(design.spec.spacers),
        "heights": list(design.heights),
        "selected_intervals": list(design.selected),
    }
    _write_json(args.out, payload)


def _cmd_rankone_correlate(args) -> None:
    spec = _rankone_spec(args)
    stage = args.a["stage"]
    if stage is None:
        stage = spec.max_stage if args.stage is None else args.stage
    a = r1.LevelSet(stage, frozenset(args.a["levels"]))
    series = r1.correlation_series(spec, a, args.n_max)
    _write_fractions(args.out, "n", series.entries)


def _cmd_rankone_decompose(args) -> None:
    spec = _rankone_spec(args)
    hs = r1.heights(spec, spec.max_stage)
    mu = Fraction(args.mu_num, args.mu_den)
    c = Fraction(args.c_num, args.c_den)
    rows = []
    for n in args.times:
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
    gaps = r1.gap_intervals(args.sequence, args.count)
    payload = [{"lo": lo, "hi": hi} for lo, hi in gaps]
    _write_json(args.out, payload)


def _cmd_recurrence(args) -> None:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    a = sys_.subset(args.a)
    a1 = sys_.subset(args.a1) if args.a1 is not None else a
    a2 = sys_.subset(args.a2) if args.a2 is not None else a
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
        values = rec.triple_profile(sys_, a, a1, a2, args.horizon)
        _write_fractions(args.out, "i", enumerate(values, start=1))


def _cmd_ledrappier(args) -> None:
    field = ledrappier.sample_field(args.width, args.m, args.seed)
    if args.action == "sample":
        # white (255) for value 1, black for 0
        _write_pnm(args.out, "P5", field.cells * np.uint8(255))
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
        trace = ledrappier.trace_thread(field, args.start, args.direction)
        _write_csv(args.out, ("step", "symbol"), enumerate(trace.symbols))
    else:  # stats
        stats = ledrappier.thread_statistics(field, args.samples, args.seed)
        _write_json(args.out, stats)


# PPM colours, indexed by "is blue": red tiles, blue cells
_MOSAIC_RGB = np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8)


def _cmd_mosaic(args) -> None:
    if args.action == "generate":
        mosaic = mosaics.generate_mosaic(args.width, args.m, args.k, args.adjacency)
        blue = np.array(mosaic.cells) == mosaics.BLUE
        _write_pnm(args.out, "P6", _MOSAIC_RGB[blue.astype(np.intp)])
    elif args.action == "count":
        c = mosaics.count_mosaics(args.width, args.m, args.k, args.adjacency)
        payload = {
            "width": args.width,
            "height": args.m,
            "k": args.k,
            "adjacency": args.adjacency,
            "count": str(c),
        }
        _write_json(args.out, payload)
    elif args.action == "entropy":
        sizes = [(w, args.m) for w in args.widths]
        rows = mosaics.entropy_profile(sizes, args.k, args.adjacency)
        _write_csv(args.out, ("w", "h", "entropy_per_site"), rows)
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
        cert, seed = f2.verify_rokhlin_family(f2.local_peak(args.radius)), None
    else:  # search
        cert, seed = f2.search_best(args.radius, args.budget, args.seed), args.seed
    target = Fraction(1, 17)
    payload = {
        "window": list(cert.base.window),
        "assignments": sorted(cert.base.assignments),
        "measure": _frac(cert.measure),
        "verdict": cert.verdict,
        "upper_bound": _frac(Fraction(1, len(f2.FAMILY))),
        "reference_target": _frac(target),
        "gap_to_target": _frac(target - cert.measure),
        "seed": seed,
    }
    _write_json(args.out, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="finite-scale measure-preserving dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tower", help="Rokhlin / prescribed-roof towers")
    p.add_argument("--n", type=int, required=True, help="cycle length")
    p.add_argument("--h", dest="height", type=int, required=True, help="tower height")
    p.add_argument("--y", type=_ints, help="atoms allowed to hold the roof: a,b,...")
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
    pa.add_argument("--intervals", type=_intervals, required=True, help="lo:hi,...")
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_design, seed=None)

    pa = acts.add_parser("correlate", help="exact correlation series CSV")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--spacers", type=_spacers, default="auto",
                    help="'auto' or s1,s2,...")
    pa.add_argument("--intervals", type=_intervals, help="lo:hi,... for --spacers auto")
    pa.add_argument("--A", dest="a", type=_level_set, required=True,
                    help="'level:5' or 'stage:5,7'")
    pa.add_argument("--stage", type=int, help="stage of the level set")
    pa.add_argument("--n-max", dest="n_max", type=int, required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_correlate, seed=None)

    pa = acts.add_parser("decompose", help="signed-height decompositions")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--spacers", type=_spacers, default="auto")
    pa.add_argument("--intervals", type=_intervals)
    pa.add_argument("--times", type=_ints, required=True, help="comma-separated times")
    pa.add_argument("--mu-num", type=int, default=1)
    pa.add_argument("--mu-den", type=int, default=1)
    pa.add_argument("--c-num", type=int, default=1)
    pa.add_argument("--c-den", type=int, default=4)
    pa.add_argument("--remainder-cap", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_decompose, seed=None)

    pa = acts.add_parser("gaps", help="intervals inside gaps of a sequence")
    pa.add_argument("--sequence", type=_ints, required=True, help="increasing: a,b,...")
    pa.add_argument("--count", type=int, required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_rankone_gaps, seed=None)

    p = sub.add_parser("recurrence", help="triple intersections and averages")
    p.add_argument("action", choices=["average", "witness", "profile"])
    p.add_argument("--n", type=int, required=True, help="rotation size")
    p.add_argument("--A", dest="a", type=_ints, required=True, help="atoms: a,b,...")
    p.add_argument("--A1", dest="a1", type=_ints)
    p.add_argument("--A2", dest="a2", type=_ints)
    p.add_argument("--N", dest="horizon", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recurrence, seed=None)

    p = sub.add_parser("ledrappier", help="harmonic GF(2) fields")
    p.add_argument("action", choices=["sample", "verify", "trace", "stats"])
    p.add_argument("--n", dest="width", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=_point, help="x,y for trace")
    p.add_argument(
        "--direction", default="up", choices=["up", "down", "left", "right"]
    )
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ledrappier)

    p = sub.add_parser("mosaic", help="square tilings with isolated blues")
    p.add_argument("action", choices=["generate", "count", "entropy", "spin"])
    p.add_argument("--w", dest="width", type=int, help="board width")
    p.add_argument("--h", dest="m", type=int, required=True, help="board height")
    p.add_argument("--k", type=int, required=True, choices=[2, 3])
    p.add_argument("--adjacency", type=int, default=8, choices=[4, 8])
    p.add_argument("--widths", type=_ints, help="comma-separated widths for entropy")
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


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    error = _PARSER.error
    if args.subcommand == "ledrappier" and args.action == "trace" and not args.start:
        error("ledrappier trace requires --start x,y (two integers)")
    if args.subcommand == "mosaic":
        if args.action in ("generate", "spin") and args.seed is None:
            error("mosaic generate/spin require --seed")
        if args.action != "entropy" and args.width is None:
            error("mosaic requires --w")
        if args.action == "entropy" and not args.widths:
            error("mosaic entropy requires --widths")
    if args.subcommand == "f2" and args.action == "search" and args.seed is None:
        error("f2 search requires --seed")
    if args.subcommand == "rankone" and args.action in ("correlate", "decompose"):
        if args.spacers == "auto" and args.intervals is None:
            error("--spacers auto needs --intervals")
    if args.subcommand == "rankone" and args.action == "decompose":
        if 0 in (args.mu_den, args.c_den):
            error("rankone decompose requires non-zero --mu-den and --c-den")
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
