"""Spans around calls into circlegc's modules, installed from outside.

``Tracer.install`` wraps a fixed list of functions, one wrapper per
function, and puts the wrapper in place of every module-level binding of
the original in every circlegc module (``from .graphs import
canonical_form`` makes a binding in the importing module), in module-level
dicts and lists of functions (``cli._OPS``, ``verification.SUITES``), and
in the default arguments of functions (``homology.delta_matrix(op=delta,
basis_fn=basis)`` binds its defaults when it is defined).

A span is (name, start, end, parent span, run id); spans are kept in
arrays in memory and written once, at the end.  A span's self time is its
duration minus the time its child spans cover.  Some wrappers also count
work (a "meter") from their arguments and result.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from array import array

MODULES = ("graphs", "coboundary", "enumeration", "homology", "framed",
           "weights", "faces", "serialize", "verification", "cli")

CRITERIA = ("criterion_dsquared", "criterion_order2_cocycle",
            "criterion_order3_cocycles", "criterion_h10_vanishes",
            "criterion_chord_diagram_presence",
            "criterion_chord_part_injective", "criterion_framed_suite",
            "criterion_astu_dimensions", "criterion_faces_suite")

# (module, function, span name); span names are "<layer>.<operation>".
TARGETS = [
    ("enumeration", "basis", "enumeration.basis"),
    ("enumeration", "framed_basis", "enumeration.framed_basis"),
    ("enumeration", "_underlying_shapes", "enumeration.shapes"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "validate", "graphs.validate"),
    ("coboundary", "delta", "coboundary.delta"),
    ("coboundary", "delta_vector", "coboundary.delta_vector"),
    ("framed", "delta_underline", "framed.delta_underline"),
    ("framed", "delta_framed", "framed.delta_framed"),
    ("framed", "short_chord_substitution", "framed.short_chord_substitution"),
    ("homology", "delta_matrix", "homology.delta_matrix"),
    ("homology", "cohomology", "homology.cohomology"),
    ("homology", "_rank", "homology.rank"),
    ("homology", "_kernel", "homology.kernel"),
    ("weights", "a_space_dim", "weights.a_space_dim"),
    ("faces", "audit_graph", "faces.audit_graph"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "graph_to_dict", "serialize.graph_to_dict"),
    ("serialize", "graph_from_dict", "serialize.graph_from_dict"),
    ("serialize", "vector_to_dict", "serialize.vector_to_dict"),
    ("verification", "run_suite", "verification.run_suite"),
    ("cli", "main", "cli.main"),
] + [("verification", c, "verification." + c) for c in CRITERIA]

# Work counted by the meters below, zero where a workload never runs it.
COUNTS = ("homology.delta_matrix.nnz",
          "homology.delta_matrix.src", "homology.elim_cells",
          "enumeration.shapes.count", "enumeration.classes",
          "graphs.canonical_form.zero", "graphs.orbit_rows",
          "coboundary.delta.terms_out", "serialize.dumps.bytes")

# The coboundary operators homology.delta_matrix may be given.
DELTA_OPS = ("coboundary.delta", "framed.delta_underline",
             "framed.delta_framed")


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cache_misses0 = 0
        self.canonical_form = None

    def count(self, key, n):
        self.counts[key] += n

    def wrap(self, name, fn, meter=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, run, stack = self.parent, self.run, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if meter is not None:
                meter(args, result)
            return result

        return wrapper

    def _meters(self):
        c = self.count

        def matrix(a, mat):
            c("homology.delta_matrix.nnz", sum(map(len, mat.columns)))
            c("homology.delta_matrix.src", mat.shape[1])

        def elim(a, r):
            c("homology.elim_cells", len(a[0]) * a[1])

        def shapes(a, r):
            c("enumeration.shapes.count", len(r))

        def classes(a, r):
            c("enumeration.classes", len(r))

        def canon(a, r):
            c("graphs.canonical_form.zero", r is None)

        def miss(a, r):              # validate runs on cache misses only
            g = a[0]
            c("graphs.orbit_rows", g.v_ext * math.factorial(g.v_int))

        def terms(a, r):
            c("coboundary.delta.terms_out", len(r))

        def dumps(a, r):
            c("serialize.dumps.bytes", len(r))

        return {"homology.delta_matrix": matrix,
                "homology.rank": elim, "homology.kernel": elim,
                "enumeration.shapes": shapes,
                "enumeration.basis": classes,
                "enumeration.framed_basis": classes,
                "graphs.canonical_form": canon,
                "graphs.validate": miss,
                "coboundary.delta": terms,
                "serialize.dumps": dumps}

    def install(self):
        """Wrap every target and rebind it everywhere circlegc holds it."""
        mods = [importlib.import_module("circlegc." + m)
                for m in MODULES + ("cocycles",)]
        self.canonical_form = importlib.import_module(
            "circlegc.graphs").canonical_form
        self.cache_misses0 = self.canonical_form.cache_info().misses
        meters = self._meters()
        swap = {}
        for mod, fn, name in TARGETS:
            orig = getattr(importlib.import_module("circlegc." + mod), fn)
            swap[id(orig)] = (orig, self.wrap(name, orig, meters.get(name)))

        def sub(v):
            return swap[id(v)][1] if id(v) in swap else v

        functions = [orig for orig, _ in swap.values()]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(value, types.FunctionType):
                    functions.append(value)
                if sub(value) is not value:
                    setattr(mod, attr, sub(value))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if isinstance(item, list):
                            item[:] = [sub(f) for f in item]
                        else:
                            value[key] = sub(item)
        for fn in functions:
            if isinstance(fn, types.FunctionType) and fn.__defaults__:
                fn.__defaults__ = tuple(sub(d) for d in fn.__defaults__)

    def dump(self, path):
        """Write the spans as columns of a .npz file."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.span_name),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), run=np.array(self.run))

    def metrics(self):
        """Per-layer metrics and the count self-checks, from the spans."""
        import numpy as np
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(len(dur) + 1)
        np.add.at(covered, parent, dur)        # parent -1 lands at the end
        self_s = dur - covered[:-1]
        ids = {n: i for i, n in enumerate(self.names)}
        parent_name = np.where(parent >= 0, name[parent], -1)

        def spans(names, under=None):
            sel = np.isin(name, [ids[n] for n in names])
            if under is not None:
                sel &= np.isin(parent_name, [ids[n] for n in under])
            return sel

        out = {}
        for n in self.names:
            out[n + ".calls"] = int(spans([n]).sum())
            out[n + ".self_s"] = float(self_s[spans([n])].sum())
            out[n + ".s"] = float(dur[spans([n])].sum())
        for n in CRITERIA:             # criteria run by the suite itself
            n = "verification." + n
            out[n + ".s"] = float(dur[spans([n], ["verification.run_suite"])]
                                  .sum())
        out.update(self.counts)
        cf = "graphs.canonical_form"
        misses = int(spans(["graphs.validate"], [cf]).sum())
        calls = out[cf + ".calls"]
        out[cf + ".hit_ratio"] = 1 - misses / calls if calls else 0.0
        out[cf + ".zero_ratio"] = out[cf + ".zero"] / calls \
            if calls else 0.0
        attempts = int(spans([cf], ["enumeration.basis",
                                    "enumeration.framed_basis"]).sum())
        out["enumeration.classes_per_shape"] = \
            out["enumeration.classes"] / attempts if attempts else 0.0
        checks = {
            "delta_calls_equal_source_graphs": (
                int(spans(DELTA_OPS, ["homology.delta_matrix"]).sum()),
                out["homology.delta_matrix.src"]),
            "misses_equal_cache_info": (
                misses,
                self.canonical_form.cache_info().misses - self.cache_misses0),
        }
        return out, checks
