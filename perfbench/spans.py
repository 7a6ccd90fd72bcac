"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of each ergolab module,
and the public methods and `__post_init__` of its classes, with a wrapper
that records a span (name, start, end, parent). The wrappers are set as
module and class attributes, so calls between modules and within a module
go through them too. `uninstall` puts the originals back, so untraced
passes run the program unchanged.

A layer's self time is the time of its spans minus the time of their
child spans. Counters are taken at the same boundaries from the wrapped
calls' arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter
from time import perf_counter

LAYERS = (
    "cli", "core", "perms", "involutions", "rank_one",
    "recurrence", "ledrappier", "mosaics", "f2",
)


def _perms_atoms(args, kwargs, result, parent):
    first = args[0]
    return {"perms.atoms": first if isinstance(first, int) else len(first)}


def _series_levels(args, kwargs, result, parent):
    # the working-stage set is the one correlation_series propagates itself;
    # min_exact_stage's probes have min_exact_stage as their parent
    if parent != "rank_one.correlation_series":
        return {}
    k = len(result)
    return {"rank_one.levels": k, "rank_one.pairs": k * (k + 1) // 2}


def _cli_bytes(args, kwargs, result, parent):
    argv = args[0]
    out = argv[argv.index("--out") + 1]
    size = 0
    for path in (out, out + ".manifest.json"):
        if os.path.exists(path):
            size += os.path.getsize(path)
    return {"cli.bytes_out": size}


def _witness_steps(args, kwargs, result, parent):
    sys_, _, i_max = args
    return {"recurrence.atom_steps": sys_.n * (result if result is not None else i_max)}


# counters taken from a wrapped call: qualified name -> f(args, kwargs, result, parent)
COUNTERS = {
    "core.FinitePermutationSystem.__post_init__":
        lambda a, kw, r, p: {"core.atoms": len(a[0].map)},
    "involutions.factor_three_involutions":
        lambda a, kw, r, p: {"involutions.atoms": a[0].n},
    "rank_one.propagate_levels": _series_levels,
    "rank_one.correlation_series":
        lambda a, kw, r, p: {"rank_one.series_terms": len(r.entries)},
    "rank_one.correlation":
        lambda a, kw, r, p: {"rank_one.unstable": int(repr(r) == "UNSTABLE")},
    "recurrence.furstenberg_average":
        lambda a, kw, r, p: {"recurrence.atom_steps": a[0].n * a[4]},
    "recurrence.roth_witness": _witness_steps,
    "recurrence.triple_intersection":
        lambda a, kw, r, p: {"recurrence.atom_steps": a[0].n},
    "cli.main": _cli_bytes,
    "ledrappier.sample_field":
        lambda a, kw, r, p: {"ledrappier.cells": a[0] * a[1]},
    "mosaics.generate_mosaic":
        lambda a, kw, r, p: {"mosaics.cells": a[0] * a[1]},
    "mosaics.count_mosaics":
        lambda a, kw, r, p: {"mosaics.cells": a[0] * a[1]},
    "f2.search_best":
        lambda a, kw, r, p: {"f2.proposals": a[1], "f2.accepted": len(r.base.assignments)},
}

# inclusive span times reported on their own: metric -> span name
INCLUSIVE = {
    "involutions.verify_s": "involutions.InvolutionTriple.verify",
    "rank_one.series_s": "rank_one.correlation_series",
    "rank_one.propagate_s": "rank_one.propagate_levels",
}

COUNT_METRICS = (
    "perms.atoms", "core.atoms", "involutions.atoms", "rank_one.levels",
    "rank_one.pairs", "rank_one.series_terms", "rank_one.unstable",
    "recurrence.atom_steps", "cli.bytes_out", "ledrappier.cells",
    "mosaics.cells", "f2.proposals", "f2.accepted",
)


def layer_metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    return names + list(INCLUSIVE) + list(COUNT_METRICS)


class Tracer:
    """Span recorder over the ergolab modules; off until `install`."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        count = COUNTERS.get(name)
        if count is None and layer == "perms":
            count = _perms_atoms
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                counters.update(count(args, kwargs, result, parent_name))
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(mod, attr, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time and calls per layer, inclusive stage times and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for metric in INCLUSIVE:
            out[metric] = 0.0
        span_metric = {span: metric for metric, span in INCLUSIVE.items()}
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child[i]
            out[f"{layer}.calls"] += 1
            if name in span_metric:
                out[span_metric[name]] += end - start
        for metric in COUNT_METRICS:
            out[metric] = self.counters.get(metric, 0)
        return out
