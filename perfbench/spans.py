"""Span recorder and the run-time wrappers that time grundylab's layers.

Nothing under ``src/`` is edited: ``instrument`` swaps each layer's public
functions for timing wrappers under every name a grundylab module binds them
to, and puts the originals back on exit.  Spans are kept in memory and
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("cli", "zoo", "core", "grundy", "classify", "sums", "suites")

# module -> {public function: span name}; a span's layer is its name's prefix
SPANNED = {
    "grundylab.core": {"enumerate_subgame": "core.enumerate",
                       "graph_from_adjacency": "core.enumerate"},
    "grundylab.grundy": {"sg_labels": "grundy.label",
                         "verify_sg_consistency": "grundy.consistency",
                         "to_csv": "grundy.serialise",
                         "to_json": "grundy.serialise"},
    "grundylab.classify": {"classify": "classify.classify",
                           "check_sm_equivalences": "classify.sm_equiv",
                           "verify_candidate_sets": "classify.candidate"},
    "grundylab.sums": {"sum_graph": "sums.sum_graph",
                       "check_closure": "sums.closure"},
}

SUITE_NAMES = ("fixtures", "equalities", "sums", "ferguson", "wythoff",
               "wyt_ab", "moore", "ho_nim")

# spans whose inclusive time is reported, as the metric <span name>_s
TIMED = frozenset({"zoo.options", *(f"suites.{s}" for s in SUITE_NAMES),
                   *(span for fns in SPANNED.values() for span in fns.values())})


@dataclasses.dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None    # index of the enclosing span in Recorder.spans
    job: int
    count: int = 0         # options returned, for zoo.options
    result: object = None  # graph or labelling, kept until metrics are read


class Recorder:
    """Spans of every traced job, in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job = 0
        self.first = 0      # index of the current job's first span
        self._open: list[int] = []

    def new_job(self):
        self.job += 1
        self.first = len(self.spans)
        self.counters.clear()

    def job_spans(self) -> list[Span]:
        return self.spans[self.first:]

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), None, parent, self.job)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span):
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, keep_result=False, count_result=False):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if keep_result:
                span.result = result
            if count_result:
                span.count = len(result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "job": s.job}) + "\n")


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``parent`` indices count from ``offset``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent - offset, []).append(s)
    out = []
    for i, s in enumerate(spans):
        pieces = sorted((max(c.start, s.start), min(c.end, s.end))
                        for c in children.get(i, ()))
        covered, reach = 0.0, s.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@contextlib.contextmanager
def rebound(replacements: dict):
    """Bind each wrapper in place of its original under every name any
    loaded grundylab module (or its ``_RUNNERS`` table) binds it to."""
    by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
    saved = []
    for mod in [m for n, m in sys.modules.items()
                if n == "grundylab" or n.startswith("grundylab.")]:
        namespaces = [vars(mod)]
        if isinstance(vars(mod).get("_RUNNERS"), dict):
            namespaces.append(mod._RUNNERS)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in by_id:
                    saved.append((ns, key, value))
                    ns[key] = by_id[id(value)]
    try:
        yield
    finally:
        for ns, key, value in reversed(saved):
            ns[key] = value


def _originals():
    return {getattr(importlib.import_module(mod), fn): span
            for mod, fns in SPANNED.items() for fn, span in fns.items()}


def instrument(rec: Recorder):
    """Context in which every layer function records spans into ``rec``."""
    zoo = importlib.import_module("grundylab.zoo")
    sums = importlib.import_module("grundylab.sums")
    suites = importlib.import_module("grundylab.suites")
    keep = {"core.enumerate", "grundy.label"}
    wrappers = {fn: rec.wrap(span, fn, keep_result=span in keep)
                for fn, span in _originals().items()}

    make_family = zoo.make_family

    def traced_family(*args, **kwargs):
        game = make_family(*args, **kwargs)
        return dataclasses.replace(
            game, options=rec.wrap("zoo.options", game.options,
                                   count_result=True))

    wrappers[make_family] = traced_family
    wrappers[sums.tame_sum_label] = rec.counted("sums.tame_label_calls",
                                                sums.tame_sum_label)
    for name in SUITE_NAMES:
        runner = suites._RUNNERS[name]
        wrappers[runner] = rec.wrap(f"suites.{name}", runner)
    return rebound(wrappers)


def job_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of the current job, whose root span is ``cli``."""
    spans, offset = rec.job_spans(), rec.first
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_times(spans, offset)):
        m[s.name.split(".")[0] + ".self_s"] += t
    m["trace.job_s"] = spans[0].end - spans[0].start

    # inclusive times; a span inside one of the same name is already counted
    m.update({f"{name}_s": 0.0 for name in TIMED})
    for s in spans:
        if s.name in TIMED and not _enclosing(spans, s, s.name, offset):
            m[f"{s.name}_s"] += s.end - s.start

    options = [s for s in spans if s.name == "zoo.options"]
    m["zoo.options_calls"] = len(options)
    m["zoo.raw_options"] = sum(s.count for s in options)

    graphs = [s for s in spans if s.name == "core.enumerate"]
    m["core.enumerations"] = len(graphs)
    m["core.nodes"] = sum(len(s.result) for s in graphs)
    m["core.edges"] = sum(s.result.edge_count() for s in graphs)
    m["core.terminals"] = sum(len(s.result.terminals()) for s in graphs)
    m["core.max_depth"] = max((max(map(s.result.depth, s.result.topo),
                                   default=0) for s in graphs), default=0)
    # options generated inside an enumeration, against the edges it kept
    raw_in = Counter()
    for s in options:
        host = _enclosing(spans, s, "core.enumerate", offset)
        if host is not None:
            raw_in[id(host)] += s.count
    fed = [s for s in graphs if raw_in[id(s)]]
    raw = sum(raw_in[id(s)] for s in fed)
    m["core.edge_yield"] = (sum(s.result.edge_count() for s in fed) / raw
                            if raw else 0.0)

    labels = [s for s in spans if s.name == "grundy.label"]
    m["grundy.label_calls"] = len(labels)
    for i, j in ((0, 1), (1, 0), (0, 0), (1, 1)):
        m[f"grundy.v{i}{j}"] = sum(len(s.result.vset(i, j)) for s in labels)

    m["classify.classify_calls"] = sum(s.name == "classify.classify"
                                       for s in spans)
    m["sums.tame_label_calls"] = rec.counters["sums.tame_label_calls"]
    m["sums.product_enumerations"] = sum(s.name == "sums.sum_graph"
                                         for s in spans)
    return m


def _enclosing(spans, span, name, offset):
    p = span.parent
    while p is not None:
        up = spans[p - offset]
        if up.name == name:
            return up
        p = up.parent
    return None


def job_results(rec: Recorder, name: str) -> list:
    return [s.result for s in rec.job_spans() if s.name == name]


def release_results(rec: Recorder):
    for s in rec.job_spans():
        s.result = None


def order_seconds(graphs) -> float:
    """Ordering plus depth, by rebuilding each graph from its moves."""
    from grundylab.core import graph_from_adjacency
    start = time.perf_counter()
    for g in graphs:
        graph_from_adjacency(g.succ, roots=g.roots)
    return time.perf_counter() - start


def memory_context(totals: Counter):
    """Context in which graph building and labelling record, in ``totals``,
    the bytes still allocated when they return and the edges or nodes they
    produced.  tracemalloc runs only inside the outermost such call."""
    def measured(fn, key, size):
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                totals[key + "_bytes"] += tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            totals[key + "_items"] += size(result)
            return result
        return wrapper

    wrappers = {}
    for fn, span in _originals().items():
        if span == "core.enumerate":
            wrappers[fn] = measured(fn, "graph", lambda g: g.edge_count())
        elif span == "grundy.label":
            wrappers[fn] = measured(fn, "label", lambda lg: len(lg.labels))
    return rebound(wrappers)
