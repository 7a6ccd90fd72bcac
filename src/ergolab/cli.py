"""Command-line entry point: one subcommand per module, manifest-logged runs.

Every run writes its primary output to --out and a manifest (parameters,
seed, versions, output paths, wall time) to <out>.manifest.json. Identical
arguments and seed produce byte-identical primary outputs; only the wall
time in the manifest may differ. Exit codes: 0 success, 1 domain error,
2 usage error.

Each action has its own sub-parser, so argparse refuses a flag the action
does not read (exit 2) and the manifest records only the flags it reads.
Argparse takes a list value that starts with '-' for an option, so such
a list goes after '=': --times=-3,7.

This is the only module that formats output or writes files; the library
modules return values. Each `_cmd_*` handler returns a writer and its data,
(writer, *data), and `main` alone writes: the primary output through that
writer, then the manifest. Three writers produce every file:
  _write_json  json.dumps(sort_keys=True, indent=2) and a newline: every
               JSON output and every manifest; a 1-D int64 array stands
               for the list of its items (the atom lists of `involutions`).
               The document is built as ASCII bytes pieces and written by
               one writelines once all are built, so a payload json cannot
               write (TypeError) leaves no file;
  _write_csv   a header line, then one line per row from one "%s,...,%s"
               format string as wide as the header;
  _write_pnm   binary netpbm with maxval 255: P5 (greyscale) from an
               (h, w) uint8 array, P6 (RGB) from an (h, w, 3) one.
"""

from __future__ import annotations

import argparse
import functools
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


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


_CONTAINERS = (dict, list, tuple, np.ndarray)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder that writes a container of scalars nested `depth` deep
    as json.dumps(sort_keys=True, indent=2) does, brackets aside: its item
    separator carries the newline and the indent of the items."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": "))


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


def _array_body(a: np.ndarray, sep: bytes) -> bytes | memoryview:
    """The items of a 1-D int64 array as json writes them, joined by `sep`;
    TypeError for any other array, as json.dumps raises.

    Item i is column i of a byte table: a '-' or NUL sign row, one row per
    decimal place with the leading zeros NUL, then the item separator. The
    table read column by column with the NULs deleted is the body.
    """
    if a.dtype != np.int64 or a.ndim != 1:
        raise TypeError(f"Object of type ndarray ({a.ndim}-D {a.dtype}) "
                        "is not JSON serializable")
    if not a.size:
        return b""
    q = np.abs(a).view(np.uint64)  # abs(-2**63) wraps to itself: 2**63 as uint64
    places = len(str(q.max()))
    if places < 10:  # the magnitudes fit uint32, which divides faster
        q = q.astype(np.uint32)
    cols = np.empty((1 + places + len(sep), a.size), np.uint8)
    np.multiply(a < 0, np.uint8(ord("-")), out=cols[0])
    for row in range(places, 0, -1):  # units first; q is |a| // 10**(places - row)
        r = q // 10
        np.subtract(q, 10 * r, out=cols[row], casting="unsafe")
        cols[row] += np.uint8(ord("0")) * ((q != 0) | (row == places))
        q = r
    cols[1 + places:] = np.frombuffer(sep, np.uint8)[:, None]
    return memoryview(cols.T.tobytes().translate(None, b"\0"))[: -len(sep)]


def _json_pieces(obj, depth: int, out: list) -> None:
    """Append json.dumps(obj, sort_keys=True, indent=2), nested `depth`
    deep, to `out` as ASCII bytes pieces.

    json indents in pure Python. A container whose items are all scalars
    is written instead by one call of `_encoder(depth)`, and the items of
    a 1-D int64 array by `_array_body`; only their brackets are added.
    """
    enc = _encoder(depth)
    sep = enc.item_separator.encode("ascii")
    if isinstance(obj, np.ndarray):
        body = _array_body(obj, sep)
        if not body:
            out.append(b"[]")
            return
    elif not isinstance(obj, _CONTAINERS) or not obj:
        out.append(enc.encode(obj).encode("ascii"))
        return
    else:
        items = obj.values() if isinstance(obj, dict) else obj
        nested = any(issubclass(t, _CONTAINERS) for t in set(map(type, items)))
        body = None if nested else enc.encode(obj)[1:-1].encode("ascii")
    brackets = b"{}" if isinstance(obj, dict) else b"[]"
    out.append(brackets[:1] + sep[1:])  # the bracket, then the first item's indent
    if body is not None:
        out.append(body)
    elif isinstance(obj, dict):
        for i, (k, v) in enumerate(sorted(obj.items())):
            if i:
                out.append(sep)
            out.append(json.dumps(_json_key(k)).encode("ascii") + b": ")
            _json_pieces(v, depth + 1, out)
    else:
        for i, v in enumerate(obj):
            if i:
                out.append(sep)
            _json_pieces(v, depth + 1, out)
    out.append(b"\n" + b"  " * depth + brackets[1:])


def _write_json(path: str, payload) -> None:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) and a
    newline, written once all are built, so a TypeError writes no file."""
    pieces: list = []
    _json_pieces(payload, 0, pieces)
    pieces.append(b"\n")
    with open(path, "wb") as fh:
        fh.writelines(pieces)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """Each row is a tuple as wide as the header; "%s" formats an item as
    str does."""
    row_format = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    lines += [row_format % row for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_pnm(path: str, magic: str, pixels: np.ndarray) -> None:
    height, width = pixels.shape[:2]
    header = f"{magic}\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + pixels.tobytes())


def _frac(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator}


def _fraction_rows(index: str, pairs) -> tuple:
    """(i, value) pairs as CSV rows i, numerator, denominator."""
    rows = ((i, v.numerator, v.denominator) for i, v in pairs)
    return _write_csv, (index, "numerator", "denominator"), rows


# argparse converters: a ValueError or ArgumentTypeError from one is a usage
# error (exit 2) that names the flag
def _ints(text: str) -> list[int]:
    """Comma-separated integers; empty items are skipped."""
    return [int(tok) for tok in text.split(",") if tok != ""]


def _widths(text: str) -> list[int]:
    widths = _ints(text)
    if not widths:
        raise argparse.ArgumentTypeError("needs at least one width")
    return widths


def _nonzero(text: str) -> int:
    value = int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be non-zero")
    return value


def _intervals(text: str) -> list[tuple[int, int]]:
    out = []
    for tok in text.split(","):
        lo, _, hi = tok.partition(":")
        out.append((int(lo), int(hi)))
    return out


def _spacers(text: str) -> str | list[int]:
    return text if text == "auto" else _ints(text)


def _level_set(text: str) -> dict:
    """'level:l1,l2' (levels of the spec's last explicit stage) or
    'stage:l1,l2'; the levels may be empty."""
    stage, colon, levels = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError("needs 'level:' or 'stage:' before the levels")
    return {"stage": None if stage == "level" else int(stage), "levels": _ints(levels)}


def _point(text: str) -> tuple[int, int]:
    x, y = map(int, text.split(","))
    return x, y


def _cmd_tower(args) -> tuple:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    if args.y is not None:
        tower = core.lehrer_weiss_tower(sys_, args.height, sys_.subset(args.y))
    else:
        tower = core.rokhlin_tower(sys_, args.height)
    payload = {
        "n": args.n,
        "height": tower.height,
        "base": tower.base.atoms.tolist(),
        "residual": tower.residual.atoms.tolist(),
        "residual_measure": _frac(tower.residual.measure),
        "valid": core.validate_tower(sys_, tower),
    }
    return _write_json, payload


def _cmd_involutions(args) -> tuple:
    if args.seed is not None:
        sys_ = core.FinitePermutationSystem.random_cycle(args.n, args.seed)
    else:
        sys_ = core.FinitePermutationSystem.cycle(args.n)
    triple = involutions.factor_three_involutions(sys_, args.height)
    payload = {
        "n": args.n,
        "map": sys_.map,
        "s1": triple.s1,
        "s2": triple.s2,
        "s3": triple.s3,
        "verified": triple.verify(sys_.map),
    }
    return _write_json, payload


def _rankone_spec(args) -> r1.RankOneSpec:
    if args.spacers == "auto":
        return r1.design_spacers(args.intervals, args.h1).spec
    return r1.RankOneSpec(args.h1, tuple(args.spacers))


def _cmd_rankone_design(args) -> tuple:
    design = r1.design_spacers(args.intervals, args.h1)
    payload = {
        "h1": design.spec.h1,
        "spacers": list(design.spec.spacers),
        "heights": list(design.heights),
        "selected_intervals": list(design.selected),
    }
    return _write_json, payload


def _cmd_rankone_correlate(args) -> tuple:
    spec = _rankone_spec(args)
    stage = args.a["stage"]
    a = r1.LevelSet(
        spec.max_stage if stage is None else stage, frozenset(args.a["levels"])
    )
    series = r1.correlation_series(spec, a, args.n_max)
    return _fraction_rows("n", series.entries)


def _cmd_rankone_decompose(args) -> tuple:
    spec = _rankone_spec(args)
    hs = r1.heights(spec, spec.max_stage)
    mu = Fraction(args.mu_num, args.mu_den)
    c = Fraction(args.c_num, args.c_den)
    rows = []
    for n in args.times:
        dec = r1.nonmixing_decomposition(n, hs, c, mu, args.remainder_cap)
        row = {"n": n, "decomposition": None}
        if dec is not None:
            row["decomposition"] = [
                {"sign": s, "stage": j, "height": hs[j - 1]} for s, j in dec.terms
            ]
            row.update(remainder=dec.remainder, term_bound=dec.term_bound)
        rows.append(row)
    return _write_json, rows


def _cmd_rankone_gaps(args) -> tuple:
    gaps = r1.gap_intervals(args.sequence, args.count)
    return _write_json, [{"lo": lo, "hi": hi} for lo, hi in gaps]


def _cmd_recurrence(args) -> tuple:
    sys_ = core.FinitePermutationSystem.cycle(args.n)
    a = sys_.subset(args.a)
    if args.action == "witness":
        w = rec.roth_witness(sys_, a, args.horizon)
        return _write_json, {"witness": w, "i_max": args.horizon}
    a1 = sys_.subset(args.a1) if args.a1 is not None else a
    a2 = sys_.subset(args.a2) if args.a2 is not None else a
    if args.action == "profile":
        values = rec.triple_profile(sys_, a, a1, a2, args.horizon)
        return _fraction_rows("i", enumerate(values, start=1))
    avg = rec.furstenberg_average(sys_, a, a1, a2, args.horizon)
    value, product = _frac(avg.value), _frac(avg.product)
    return _write_json, {"N": avg.n_horizon, "value": value, "product": product}


def _cmd_ledrappier(args) -> tuple:
    field = ledrappier.sample_field(args.width, args.m, args.seed)
    if args.action == "sample":
        # white (255) for value 1, black for 0
        return _write_pnm, "P5", field.cells * np.uint8(255)
    if args.action == "trace":
        trace = ledrappier.trace_thread(field, args.start, args.direction)
        return _write_csv, ("step", "symbol"), enumerate(trace.symbols)
    if args.action == "stats":
        return _write_json, ledrappier.thread_statistics(field, args.samples, args.seed)
    ok = ledrappier.verify_harmonicity(field)
    return _write_json, {"harmonic": ok, "power_checks": ledrappier.power_checks(field)}


# PPM colours, indexed by "is blue": red tiles, blue cells
_MOSAIC_RGB = np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8)


def _cmd_mosaic(args) -> tuple:
    if args.action == "count":
        c = mosaics.count_mosaics(args.width, args.m, args.k, args.adjacency)
        payload = {
            "width": args.width,
            "height": args.m,
            "k": args.k,
            "adjacency": args.adjacency,
            "count": str(c),
        }
        return _write_json, payload
    if args.action == "entropy":
        sizes = [(w, args.m) for w in args.widths]
        rows = mosaics.entropy_profile(sizes, args.k, args.adjacency)
        return _write_csv, ("w", "h", "entropy_per_site"), rows
    mosaic = mosaics.generate_mosaic(args.width, args.m, args.k, args.adjacency)
    if args.action == "generate":
        blue = np.array(mosaic.cells) == mosaics.BLUE
        return _write_pnm, "P6", _MOSAIC_RGB[blue.astype(np.intp)]
    result = mosaics.spin_map(mosaic)  # spin
    return _write_json, {k: result[k] for k in ("plus", "minus", "diagnostic")}


def _cmd_f2(args) -> tuple:
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
    return _write_json, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="finite-scale measure-preserving dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # parent parsers hold the flags that several actions share
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)

    def leaf(subs, name: str, *parents, help=None):
        """An action's parser: the flags of `parents`, then --out. A prefix
        is not taken for a flag, so entropy's --widths does not read --w."""
        return subs.add_parser(name, parents=[*parents, out], help=help,
                               allow_abbrev=False)

    def actions(name: str, help: str, func=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p.add_subparsers(dest="action", required=True)

    p = leaf(sub, "tower", help="Rokhlin / prescribed-roof towers")
    p.add_argument("--n", type=int, required=True, help="cycle length")
    p.add_argument("--h", dest="height", type=int, required=True, help="tower height")
    p.add_argument("--y", type=_ints, help="atoms allowed to hold the roof: a,b,...")
    p.set_defaults(func=_cmd_tower)

    p = leaf(sub, "involutions", help="three-involution factorization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, default=11)
    p.add_argument("--seed", type=int, help="random single cycle (default: standard)")
    p.set_defaults(func=_cmd_involutions)

    acts = actions("rankone", "rank-one construction tools")
    pa = leaf(acts, "design", help="fit spacers to interval midpoints")
    pa.add_argument("--h1", type=int, default=1)
    pa.add_argument("--intervals", type=_intervals, required=True, help="lo:hi,...")
    pa.set_defaults(func=_cmd_rankone_design)

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--h1", type=int, default=1)
    spec.add_argument("--spacers", type=_spacers, default="auto",
                      help="'auto' or s1,s2,...")
    spec.add_argument("--intervals", type=_intervals,
                      help="lo:hi,... for --spacers auto")

    pa = leaf(acts, "correlate", spec, help="exact correlation series CSV")
    pa.add_argument("--A", dest="a", type=_level_set, required=True,
                    help="'level:5,7' (levels of the spec's last explicit stage) "
                    "or 'stage:5,7'")
    pa.add_argument("--n-max", dest="n_max", type=int, required=True)
    pa.set_defaults(func=_cmd_rankone_correlate)

    pa = leaf(acts, "decompose", spec, help="signed-height decompositions")
    pa.add_argument("--times", type=_ints, required=True,
                    help="comma-separated: a,b,...; --times=-3,7 if a is negative")
    pa.add_argument("--mu-num", type=int, default=1)
    pa.add_argument("--mu-den", type=_nonzero, default=1)
    pa.add_argument("--c-num", type=int, default=1)
    pa.add_argument("--c-den", type=_nonzero, default=4)
    pa.add_argument("--remainder-cap", type=int, default=0)
    pa.set_defaults(func=_cmd_rankone_decompose)

    pa = leaf(acts, "gaps", help="intervals inside gaps of a sequence")
    pa.add_argument("--sequence", type=_ints, required=True,
                    help="increasing: a,b,...; --sequence=-3,7 if a is negative")
    pa.add_argument("--count", type=int, required=True)
    pa.set_defaults(func=_cmd_rankone_gaps)

    sets = argparse.ArgumentParser(add_help=False)
    sets.add_argument("--n", type=int, required=True, help="rotation size")
    sets.add_argument("--A", dest="a", type=_ints, required=True, help="atoms: a,b,...")
    sets.add_argument("--N", dest="horizon", type=int, required=True)
    acts = actions("recurrence", "triple intersections and averages", _cmd_recurrence)
    for action in ("average", "witness", "profile"):
        pa = leaf(acts, action, sets)
        if action != "witness":
            pa.add_argument("--A1", dest="a1", type=_ints)
            pa.add_argument("--A2", dest="a2", type=_ints)

    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--n", dest="width", type=int, required=True)
    field.add_argument("--m", type=int, required=True)
    field.add_argument("--seed", type=int, required=True)
    acts = actions("ledrappier", "harmonic GF(2) fields", _cmd_ledrappier)
    leaf(acts, "sample", field)
    leaf(acts, "verify", field)
    pa = leaf(acts, "trace", field)
    pa.add_argument("--start", type=_point, required=True, help="x,y")
    pa.add_argument(
        "--direction", default="up", choices=["up", "down", "left", "right"]
    )
    pa = leaf(acts, "stats", field)
    pa.add_argument("--samples", type=int, default=64)

    board = argparse.ArgumentParser(add_help=False)
    board.add_argument("--h", dest="m", type=int, required=True, help="board height")
    board.add_argument("--k", type=int, required=True, choices=[2, 3])
    board.add_argument("--adjacency", type=int, default=8, choices=[4, 8])
    acts = actions("mosaic", "square tilings with isolated blues", _cmd_mosaic)
    for action in ("generate", "count", "spin"):
        pa = leaf(acts, action, board)
        pa.add_argument("--w", dest="width", type=int, required=True,
                        help="board width")
        if action != "count":
            pa.add_argument("--seed", type=int, required=True,
                            help="free-boundary output does not depend on it")
    pa = leaf(acts, "entropy", board)
    pa.add_argument("--widths", type=_widths, required=True,
                    help="comma-separated widths")

    radius = argparse.ArgumentParser(add_help=False)
    radius.add_argument("--radius", type=int, default=2)
    acts = actions("f2", "free-group Rokhlin families", _cmd_f2)
    leaf(acts, "verify", radius)
    pa = leaf(acts, "search", radius)
    pa.add_argument("--budget", type=int, default=0,
                    help=f"proposals in all; each of the {f2.RESTARTS} climbs draws "
                         f"budget // {f2.RESTARTS}, and the remainder is never drawn")
    pa.add_argument("--seed", type=int, required=True)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "spacers", None) == "auto" and args.intervals is None:
        _PARSER.error("--spacers auto needs --intervals")
    t0 = time.monotonic()
    try:
        write, *data = args.func(args)
        write(args.out, *data)
    except (ErgolabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "out", "seed") and v is not None
    }
    manifest = {
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "versions": {
            "ergolab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": [args.out],
        "wall_time_s": time.monotonic() - t0,
    }
    _write_json(args.out + ".manifest.json", manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
