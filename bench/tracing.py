"""Spans around the program's layer entry points, recorded from outside it.

`Tracer.install` replaces every module binding through which golomb code
reaches a layer's public function (for example
`golomb.golomb_graph.strict_cone_feasibility`, the name the census calls the
simplex through) with a wrapper that records one span per call: the layer
name, start, end, the enclosing span, and counts read from the return
value. The spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _feasibility(result) -> dict:
    witness = result.witness or ()
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in witness), default=0)
    return {"feasible": int(result.feasible), "infeasible": int(not result.feasible), "witness_bits_max": bits}


# span name, module defining the function, function name, counts read from
# the return value (keys ending in _max are maxima, the others are summed)
LAYERS = (
    ("cli.main", "golomb.cli", "main", None, ()),
    ("simplex.strict_cone_feasibility", "golomb.simplex", "strict_cone_feasibility",
     _feasibility, ("feasible", "infeasible", "witness_bits_max")),
    ("golomb_graph.enumerate_constrained_orientations", "golomb.golomb_graph",
     "enumerate_constrained_orientations", lambda r: {"cells": len(r)}, ("cells",)),
    ("golomb_graph.multiplicity", "golomb.golomb_graph", "multiplicity", None, ()),
    ("rulers.count_golomb_rulers", "golomb.rulers", "count_golomb_rulers",
     lambda r: {"rulers": r}, ("rulers",)),
    ("arrangement.iop_vertices", "golomb.arrangement", "iop_vertices",
     lambda r: {"vertices": len(r)}, ("vertices",)),
    ("arrangement.period_bound", "golomb.arrangement", "period_bound", None, ()),
    ("quasipolynomial.golomb_quasipolynomial", "golomb.quasipolynomial", "golomb_quasipolynomial", None, ()),
    ("quasipolynomial.interpolate", "golomb.quasipolynomial", "interpolate", None, ()),
    ("quasipolynomial.reciprocity_check_golomb", "golomb.quasipolynomial", "reciprocity_check_golomb", None, ()),
    ("ratpoly.lagrange", "golomb.ratpoly", "lagrange", None, ()),
    ("mixed_graphs.count_proper_colorings", "golomb.mixed_graphs", "count_proper_colorings", None, ()),
    ("mixed_graphs.chromatic_polynomial", "golomb.mixed_graphs", "chromatic_polynomial", None, ()),
    ("mixed_graphs.enumerate_acyclic_orientations", "golomb.mixed_graphs", "enumerate_acyclic_orientations",
     lambda r: {"orientations": len(r)}, ("orientations",)),
    ("mixed_graphs.reciprocity_check_mixed", "golomb.mixed_graphs", "reciprocity_check_mixed", None, ()),
    ("mixed_graphs.chromatic_number", "golomb.mixed_graphs", "chromatic_number", None, ()),
)

NAMES = tuple(layer[0] for layer in LAYERS)


class Tracer:
    def __init__(self):
        # one [layer index, start, end, enclosing span position or -1, counts] per call
        self.spans: list[list] = []
        self.bindings: list[str] = []
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        for index, (_, module_name, function_name, count, _) in enumerate(LAYERS):
            original = getattr(importlib.import_module(module_name), function_name, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, count)
            for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "golomb"]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.bindings.append(f"{module.__name__}.{attr}")
        return self

    def _wrap(self, index: int, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced


def summarize(spans) -> dict[str, float]:
    """Per layer: calls, total seconds, self seconds (the span minus the
    spans directly inside it) and the counts, zero for idle layers."""
    out: dict[str, float] = {}
    for name, _, _, _, keys in LAYERS:
        out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
        out.update({f"{name}.{key}": 0 for key in keys})
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    for position, (index, start, end, _, counts) in enumerate(spans):
        name = NAMES[index]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - inner[position]
        for key, value in (counts or {}).items():
            field = f"{name}.{key}"
            out[field] = max(out[field], value) if key.endswith("_max") else out[field] + value
    simplex, rulers = "simplex.strict_cone_feasibility", "rulers.count_golomb_rulers"
    out[f"{simplex}.useful_ratio"] = out[f"{simplex}.feasible"] / out[f"{simplex}.calls"] if out[f"{simplex}.calls"] else 0.0
    out[f"{rulers}.rulers_per_s"] = out[f"{rulers}.rulers"] / out[f"{rulers}.s"] if out[f"{rulers}.s"] else 0.0
    return out
