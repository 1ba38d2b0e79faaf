"""Spans around the library's public functions, patched in from outside.

The traced run replaces each function below with a wrapper that records a
span [name, start, end, parent index] in memory.  A span's self time is its
duration minus the durations of its direct children.  Nothing in the
library changes; the patches are undone when the context exits.

Module-level functions are patched in the module that *calls* them:
refine.py imports the tree functions by name, and multistage.py imports
compile_network and refine by name.  Modules are looked up through
sys.modules because ``idrefine.refine`` is the function re-exported by the
package, not the module.  Per-leaf helpers (iter_leaves, extensions) run up
to about 500k times per solve and are deliberately left unwrapped.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrapper(self, name: str, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, call count, and the
        number of calls with no child span ("childless")."""
        child = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
                has_child[parent] = True
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0, "childless": 0})
        for (name, start, end, _), inner, has_inner in zip(self.spans, child, has_child):
            agg = out[name]
            agg["total"] += end - start
            agg["self"] += end - start - inner
            agg["calls"] += 1
            agg["childless"] += not has_inner
        return out


def _targets():
    mod = importlib.import_module
    D, E = mod("idrefine.diagram"), mod("idrefine.engine")
    R, M, O = mod("idrefine.refine"), mod("idrefine.multistage"), mod("idrefine.oracle")
    return [
        (D, "parse_diagram", "diagram.parse"),
        (D, "validate", "diagram.validate"),
        (E, "compile_network", "engine.compile"),
        (M, "compile_network", "engine.compile"),
        (E.Engine, "best_action", "engine.best_action"),
        (E.Engine, "calibrate", "engine.calibrate"),
        (E.Calibration, "evaluate_candidate", "engine.evaluate"),
        (R, "tree_counts", "tree.stats"),
        (R, "tree_value", "tree.stats"),
        (R, "best_extension", "tree.best_extension"),
        # extend evaluates (calls the engine) exactly when its leaf's cache
        # misses, so an extend span without children is a cache hit
        (R, "extend", "tree.extend"),
        (R.PosthocSelector, "next_leaf", "refine.select"),
        (R.RandomLeafSelector, "next_leaf", "refine.select"),
        (R, "refine", "refine.refine"),
        (M, "refine", "refine.refine"),
        (R.AnytimeTrace, "to_csv", "refine.trace_csv"),
        (M, "compile_decision", "multistage.compile_decision"),
        (M, "sweep_back", "multistage.sweep"),
        (O, "oracle_optimal", "oracle.enumerate"),
        (O, "oracle_optimal_multistage", "oracle.enumerate"),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Patch every target for the duration of the context.

    A target the library no longer defines where it is looked up raises
    LookupError, so that a renamed or moved function cannot leave its layer
    silently empty.
    """
    targets = _targets()
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    if missing:
        raise LookupError(f"tracing targets not found: {', '.join(missing)}")
    undo = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrapper(name, original))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
