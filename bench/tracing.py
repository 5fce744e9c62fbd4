"""Spans and counts recorded around semloc's layers from outside.

``Tracer`` replaces module attributes that semloc's callers look up at call
time (``semloc.pipeline.preselect``, ``semloc.association.solve`` and so
on) with wrappers that record a span and a count, and puts the originals
back on exit. Nothing inside ``src/`` changes, and a wrapper only observes:
it passes arguments and results through untouched.

A span is (name, start, end, parent span, world, frame). Spans stay in
memory until the run ends and ``write_spans`` stores them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import semloc.association as association
import semloc.features as features
import semloc.mapmodel as mapmodel
import semloc.pipeline as pipeline
import semloc.solver as solver
from semloc.solver import SingularNormalEquations

NAME, START, END, PARENT, WORLD, FRAME = range(6)


class Tracer:
    """Spans and counts of one traced run; ``with tracer:`` installs the
    wrappers and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()          # name -> n
        self.values = defaultdict(list)  # name -> recorded numbers
        self.frame_hypotheses = Counter()  # (world, frame) -> n
        self.world = -1
        self.frame = -1
        self._stack = []
        self._saved = []

    # --- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.world, self.frame])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def record(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def timed(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # --- installing wrappers -----------------------------------------------

    def _patch(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def __enter__(self):
        def spanned(name, after=None):
            def make(original):
                def wrapper(*args, **kwargs):
                    idx = self.begin(name)
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        self.end(idx)
                    self.count(name)
                    if after is not None:
                        after(args, result)
                    return result
                return wrapper
            return make

        def preselected(args, result):
            self.count("mapmodel.preselected", len(result.lines) + len(result.points))

        def matched(args, result):
            self.count("association.matched_pairs", len(result))

        def regions(args, result):
            self.count("features.regions", len(result))

        def hypotheses(original):
            # associate_and_localize solves each hypothesis it draws from
            # this generator, starting at the frame's prediction.
            def wrapper(*args, **kwargs):
                for hypothesis in original(*args, **kwargs):
                    self.count("association.hypotheses")
                    self.frame_hypotheses[self.world, self.frame] += 1
                    yield hypothesis
            return wrapper

        def solve_wrapper(original):
            def wrapper(objective, init, *rest, **kw):
                self.count("solver.solve")
                proxy = CountingObjective(objective, self, "residual.solver_eval")
                idx = self.begin("solver.solve")
                try:
                    result = original(proxy, init, *rest, **kw)
                except SingularNormalEquations:
                    self.count("solver.singular")
                    raise
                finally:
                    self.end(idx)
                    self.record("residual.evals_per_solve", proxy.calls)
                self.record("solver.iterations", result.iterations)
                return result
            return wrapper

        for module in (pipeline, mapmodel):
            self._patch(module, "preselect",
                        spanned("mapmodel.preselect", preselected))
        self._patch(pipeline, "associate_and_localize",
                    spanned("association.associate_and_localize"))
        self._patch(association, "_iter_hypotheses", hypotheses)
        self._patch(association, "closest_correspond",
                    spanned("association.closest_correspond", matched))
        self._patch(association, "solve", solve_wrapper)
        self._patch(association, "project_line", spanned("camera.project_line"))
        self._patch(association, "project_point", spanned("camera.project_point"))
        self._patch(solver, "cost_landscape", spanned("solver.cost_landscape"))
        self._patch(features, "region_grow",
                    spanned("features.region_grow", regions))
        self._patch(features, "fit_region_line", spanned("features.fit_region_line"))
        self._patch(features, "read_mask_files", spanned("features.read_mask_files"))
        self._patch(features, "extract_features", spanned("features.extract_features"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # --- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> dict:
        """Seconds per span name: span time minus time of its child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        totals = defaultdict(float)
        for idx, s in enumerate(self.spans):
            totals[s[NAME]] += s[END] - s[START] - child[idx]
        return dict(totals)

    def write_spans(self, path) -> None:
        """One JSON array per span: name, start/end (s, run clock),
        parent span index (-1 for none), world, frame."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], round(s[START], 9), round(s[END], 9),
                                     s[PARENT], s[WORLD], s[FRAME]]))
                fh.write("\n")


class CountingObjective:
    """Pass-through proxy that counts and spans an objective's evaluations."""

    def __init__(self, objective, tracer: Tracer, span: str):
        self._objective = objective
        self._tracer = tracer
        self._span = span
        self.calls = 0

    def _call(self, method, pose):
        self.calls += 1
        return self._tracer.timed(self._span, getattr(self._objective, method), pose)

    def residual(self, pose):
        return self._call("residual", pose)

    def residual_and_jacobian(self, pose):
        return self._call("residual_and_jacobian", pose)
