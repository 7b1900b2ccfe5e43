"""Spans around the package's public functions, patched from outside.

Each traced function is replaced, in every loaded ``ranklab`` module that
holds it, by a wrapper that times each call as a span and adds it to
running totals.  Replacing every binding matters because modules import
functions by name: ``solver.canonicalize`` is the same object as
``instances.canonicalize``, and a caller looks up whichever binding its own
module holds.  A layer's self time is a span's duration minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer name -> (module, function) pairs that make up the layer
LAYERS = {
    "galois.field_build": [("galois", "make_base_field"), ("galois", "make_ext_field")],
    "labkit.read_instance": [("labkit.io", "read_instance")],
    "instances.gen_rd": [("instances", "gen_rd")],
    "instances.canonicalize": [("instances", "canonicalize")],
    "modelings.build_mm": [("modelings", "build_mm_fqm"), ("modelings", "build_mm_fq")],
    "modelings.build_sm": [("modelings", "build_sm_fqm"), ("modelings", "sm_for_minrank")],
    "modelings.reduce_sm_plus": [("modelings", "reduce_sm_plus")],
    "modelings.macaulay": [("modelings", "macaulay")],
    "matlin.echelonize": [("matlin", "echelonize")],
    "matlin.solve_right": [("matlin", "solve_right")],
    "solver.oracle": [("solver", "rd_solutions_brute")],
    "solver.kernel_dim": [("solver", "sm_plus_kernel_dim")],
    "solver.decode": [("solver", "decode_rd")],
    "solver.solve_linearized": [("solver", "solve_linearized")],
    "solver.solve_minrank": [("solver", "solve_minrank_linearized")],
    "hybrid.reduce": [("hybrid", "reduce_rd"), ("hybrid", "reduce_minrank")],
    "hybrid.rerandomize": [("hybrid", "rerandomize_rd"), ("hybrid", "rerandomize_minrank")],
    "hybrid.driver": [("hybrid", "hybrid_solve_rd"), ("hybrid", "probabilistic_solve_rd"),
                      ("hybrid", "hybrid_solve_minrank"),
                      ("hybrid", "probabilistic_solve_minrank")],
}

# inner solvers of the guess drivers: their inclusive time under a driver
# span is the hybrid.inner layer
INNER = {"solver.decode", "solver.solve_minrank"}


class Tracer:
    """Running self-time and count totals."""

    def __init__(self):
        self.self_s = Counter()         # layer -> self seconds
        self.counts = Counter()         # counter name -> count
        self._stack = []                # child seconds of each open span
        self._drivers = 0               # open hybrid.driver spans

    def install(self) -> None:
        """Wrap every function in LAYERS at each of its bindings."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ranklab" or name.startswith("ranklab."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules["ranklab." + mod_name], attr)
                wrapper = self._wrap(layer, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if layer == "matlin.echelonize":
                fld, mat = args[0], args[1]
                generic = kwargs.get("force_generic", args[2] if len(args) > 2 else False)
                name += "_gf2" if fld.order == 2 and not generic else "_generic"
                tracer.counts["matlin.echelonize_cells"] += int(getattr(mat, "size", 0))
            elif layer == "hybrid.driver":
                tracer._drivers += 1
            elif layer == "hybrid.reduce":
                tracer.counts["hybrid.guesses"] += 1
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                tracer.counts[layer + "_calls"] += 1
                if layer == "hybrid.driver":
                    tracer._drivers -= 1
                elif layer in INNER and tracer._drivers:
                    tracer.self_s["hybrid.inner"] += dt
            if layer == "modelings.macaulay":
                tracer.counts["modelings.macaulay_cells"] += int(result.arr.size)
            return result

        return traced

    def snapshot(self):
        return Counter(self.self_s), Counter(self.counts)
