"""Span tracer for the benchmark's traced run.

``Tracer.installed()`` replaces each public callable of halfspace_lab
under the name its caller looks it up by (a module global such as
``halfspace_lab.learner.refine``, or a class attribute such as
``MembershipOracle.query_batch``) with a wrapper that records a span,
and restores the originals on exit.  The untraced run never enters it.

A span is ``[name, start, end, parent, rows, queries, error]``:
``rows`` is the work count of the call (points drawn, labeled, mapped,
...), ``queries`` the membership-ledger rows charged while it was open,
``error`` the class name of an exception it raised, or None.  Spans
stay in memory; ``layer_metrics`` reduces them and ``write_spans``
dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

import halfspace_lab.initialization as initialization
import halfspace_lab.learner as learner
import halfspace_lab.lowerbound as lowerbound
import halfspace_lab.oracles as oracles
import halfspace_lab.refinement as refinement
from halfspace_lab.geometry import Halfspace

NAME, START, END, PARENT, ROWS, QUERIES, ERROR = range(7)


def _rows_of(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) == 2 else 1


def _arg(i):
    return lambda args, out: int(args[i])


def _rows_arg(i):
    return lambda args, out: _rows_of(args[i])


# (owner, attribute, span name, rows of one call)
_MODULE_TARGETS = [
    (learner, "learn", "learner.learn", None),
    (learner, "estimate_bias_doubling", "estimation.bias_ladder", None),
    (learner, "init_extreme", "initialization.init", None),
    (learner, "init_unextreme", "initialization.init", None),
    (learner, "refine", "refinement.refine", None),
    (learner, "tournament", "learner.tournament", lambda args, out: len(args[0])),
    (learner, "estimate_error", "oracles.estimate_error", _arg(2)),
    (refinement, "search_offset", "refinement.search_offset", None),
    (refinement, "refine_round", "refinement.refine_round", None),
    (refinement, "probability_window_check", "estimation.window_check", lambda args, out: out.samples),
    (refinement, "empirical_projected_chow", "estimation.chow", _rows_arg(1)),
    (refinement, "localized_query_batch", "oracles.localized_query", _rows_arg(4)),
    (initialization, "angle_test", "initialization.angle_test", None),
    (initialization, "empirical_projected_chow", "estimation.chow", _rows_arg(1)),
    (initialization, "localized_query_batch", "oracles.localized_query", _rows_arg(4)),
    (initialization, "smoothed_query_batch", "oracles.smoothed_query", _rows_arg(3)),
    (oracles, "sqrt_localization_apply", "geometry.localize", _rows_arg(2)),
    (lowerbound, "near_isometry_stat", "lowerbound.near_isometry", _arg(2)),
    (lowerbound, "negative_capture_prob", "lowerbound.capture", _arg(2)),
    (lowerbound, "play_query_game", "lowerbound.game", lambda args, out: out[1]),
]

_CLASS_TARGETS = [
    (oracles.MembershipOracle, "query_batch", "oracles.query_batch", lambda args, out: len(out)),
    (oracles.MembershipOracle, "query", "oracles.query_batch", lambda args, out: 1),
    (oracles.MembershipOracle, "gaussian_points", "oracles.gaussian_points", _arg(1)),
    (oracles.SmallClassOracle, "draw_batch", "oracles.small_class", _arg(1)),
    (Halfspace, "__call__", "geometry.halfspace_labels", _rows_arg(1)),
    (lowerbound.Pool, "__init__", "lowerbound.pool", None),
]

def _label_source_classes() -> list[type]:
    found, todo = [], [oracles.LabelSource]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "sample_labels" in sub.__dict__:
                found.append(sub)
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # membership-ledger rows seen at MembershipOracle.query/query_batch
        self.charged = 0

    def _wrap(self, name, fn, rows):
        tracer = self
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            charged = tracer.charged
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
                if rows is not None:
                    span[ROWS] = rows(args, out)
                    if name == "oracles.query_batch":
                        tracer.charged += span[ROWS]
                return out
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                span[QUERIES] = tracer.charged - charged
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        targets = list(_MODULE_TARGETS) + list(_CLASS_TARGETS)
        targets += [
            (cls, "sample_labels", "oracles.label_source", _rows_arg(1))
            for cls in _label_source_classes()
        ]
        saved = []
        try:
            for owner, attr, name, rows in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, rows))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_spans(self, path, first: int = 0) -> None:
        """Dump spans[first:] as JSON lines, parents re-indexed from ``first``."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans[first:]):
                rec = dict(zip(("name", "start", "end", "parent", "rows", "queries", "error"), span))
                rec["id"] = i
                rec["parent"] = span[PARENT] - first if span[PARENT] >= first else -1
                fh.write(json.dumps(rec) + "\n")


# per-layer metrics reported by a traced run: name -> unit
LAYER_METRICS = {
    "oracles.gaussian_points.rows": "count",
    "oracles.gaussian_points.self_s": "s",
    "oracles.query_batch.rows": "count",
    "oracles.query_batch.self_s": "s",
    "oracles.label_source.self_s": "s",
    "oracles.small_class.draws": "count",
    "oracles.small_class.self_s": "s",
    "oracles.estimate_error.self_s": "s",
    "geometry.localize.rows": "count",
    "geometry.localize.self_s": "s",
    "geometry.halfspace_labels.rows": "count",
    "geometry.halfspace_labels.self_s": "s",
    "estimation.bias_ladder.queries": "count",
    "estimation.bias_ladder.self_s": "s",
    "estimation.window_check.calls": "count",
    "estimation.window_check.queries": "count",
    "estimation.window_check.self_s": "s",
    "estimation.chow.rows": "count",
    "estimation.chow.self_s": "s",
    "initialization.init.attempts": "count",
    "initialization.init.failures": "count",
    "initialization.init.queries": "count",
    "initialization.init.self_s": "s",
    "initialization.angle_test.calls": "count",
    "initialization.angle_test.queries": "count",
    "initialization.angle_test.self_s": "s",
    "refinement.refine.attempts": "count",
    "refinement.refine.failures": "count",
    "refinement.refine.rounds": "count",
    "refinement.refine.queries": "count",
    "refinement.refine.self_s": "s",
    "refinement.search_offset.calls": "count",
    "refinement.search_offset.probes": "count",
    "refinement.search_offset.queries": "count",
    "refinement.refine_round.queries": "count",
    "learner.attempts": "count",
    "learner.candidates": "count",
    "learner.attempt_yield": "ratio",
    "learner.tournament.candidates": "count",
    "learner.tournament.pairs": "count",
    "learner.tournament.gaussian_rows": "count",
    "learner.tournament.queries": "count",
    "learner.tournament.self_s": "s",
    "lowerbound.pool.self_s": "s",
    "lowerbound.near_isometry.tuples": "count",
    "lowerbound.near_isometry.self_s": "s",
    "lowerbound.capture.trials": "count",
    "lowerbound.capture.self_s": "s",
    "lowerbound.game.reveals": "count",
    "lowerbound.game.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# counted failures (not failed operations): the learner skips the attempt
_EXPECTED_ERRORS = {
    "initialization.init": ("InitFailure", "NoNegativeFound"),
    "refinement.refine": ("OffsetNotFound",),
}


# metric field -> span aggregate it reads
_FIELD_ALIASES = {
    "attempts": "calls",
    "candidates": "rows",
    "draws": "rows",
    "reveals": "rows",
    "trials": "rows",
    "tuples": "rows",
}


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Reduce spans[first:], one round, to the counts and self times of
    LAYER_METRICS but the ``trace.*`` entries, which the caller measures."""
    spans = [s[:PARENT] + [s[PARENT] - first if s[PARENT] >= 0 else -1] + s[PARENT + 1:] for s in spans[first:]]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        agg = by_name.setdefault(span[NAME], dict.fromkeys(("calls", "rows", "queries", "self_s", "failures"), 0))
        agg["calls"] += 1
        agg["rows"] += span[ROWS]
        agg["queries"] += span[QUERIES]
        agg["self_s"] += span[END] - span[START] - child_time[i]
        if span[ERROR] is not None and span[ERROR] in _EXPECTED_ERRORS.get(span[NAME], ()):
            agg["failures"] += 1

    def get(name, field):
        return by_name.get(name, {}).get(field, 0)

    def under(i, ancestor):
        while spans[i][PARENT] >= 0:
            i = spans[i][PARENT]
            if spans[i][NAME] == ancestor:
                return True
        return False

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if "." in layer:
            out[metric] = get(layer, _FIELD_ALIASES.get(field, field))
    probes = 0
    gradient = 0
    pairs = 0
    tour_rows = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        if name == "estimation.window_check" and parent == "refinement.search_offset":
            probes += 1
        elif name == "refinement.refine_round":
            gradient += span[QUERIES]
        elif name == "refinement.search_offset" and parent == "refinement.refine_round":
            gradient -= span[QUERIES]
        elif name == "learner.tournament":
            pairs += span[ROWS] * (span[ROWS] - 1) // 2
        elif name == "oracles.gaussian_points" and under(i, "learner.tournament"):
            tour_rows += span[ROWS]
    out["refinement.search_offset.probes"] = probes
    out["refinement.refine.rounds"] = get("refinement.refine_round", "calls")
    out["refinement.refine_round.queries"] = gradient
    out["learner.tournament.pairs"] = pairs
    out["learner.tournament.gaussian_rows"] = tour_rows
    attempts = get("initialization.init", "calls")
    candidates = get("refinement.refine", "calls") - get("refinement.refine", "failures")
    out["learner.attempts"] = attempts
    out["learner.candidates"] = candidates
    out["learner.attempt_yield"] = candidates / attempts if attempts else 0.0
    return out
