"""Normal and misere Sprague-Grundy labeling of reachable graphs."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import NodeView, ReachableGraph, adjoin_misere_terminal

MAX_VIOLATIONS = 100

SWAP_LABELS = ((0, 1), (1, 0))


class Label(NamedTuple):
    g: int        # normal SG value
    g_minus: int  # misere SG value

    @property
    def is_swap(self) -> bool:
        return (self.g, self.g_minus) in SWAP_LABELS


def mex(values) -> int:
    """Least non-negative integer absent from ``values``."""
    s = set(values)
    m = 0
    while m in s:
        m += 1
    return m


class LabeledGraph:
    """A ReachableGraph with flat label arrays: node i has normal value
    ``g[i]`` and misere value ``g_minus[i]``.

    ``labels`` is a read-only position -> Label view, children before
    parents.  Immutable after construction: ``packed_masks`` holds the
    per-node class and property masks ``classify`` derives from the graph
    and the labels, built once on first use and shared by every predicate.
    """

    packed_masks = None

    def __init__(self, graph: ReachableGraph, g: array, g_minus: array):
        self.graph, self.g, self.g_minus = graph, g, g_minus

    @property
    def labels(self) -> NodeView:
        graph = self.graph
        return NodeView(graph.index, lambda: reversed(graph.topo), self._label)

    def vset(self, i: int, j: int) -> set:
        return {x for x, a, b in zip(self.graph.positions, self.g, self.g_minus)
                if a == i and b == j}

    def label(self, x) -> Label:
        return self._label(self.graph.index[x])

    def _label(self, i) -> Label:
        return Label(self.g[i], self.g_minus[i])


def sg_labels(graph: ReachableGraph) -> LabeledGraph:
    """Fill both SG recursions bottom-up in topological order.

    Terminals get g = 0 and g_minus = 1; elsewhere both values are the mex
    of the option values.
    """
    n = len(graph)
    g, gm = array("i", [0]) * n, array("i", [0]) * n
    offsets, targets = graph.offsets, graph.targets
    for x in reversed(graph.order):
        lo, hi = offsets[x], offsets[x + 1]
        if lo == hi:
            gm[x] = 1
            continue
        # mex inlined: two calls per node made this loop about 1.7x slower
        seen, seen_m = set(), set()
        for y in targets[lo:hi]:
            seen.add(g[y])
            seen_m.add(gm[y])
        m = 0
        while m in seen:
            m += 1
        k = 0
        while k in seen_m:
            k += 1
        g[x], gm[x] = m, k
    return LabeledGraph(graph, g, gm)


def misere_via_adjoined_terminal(graph: ReachableGraph) -> array:
    """Misere values computed the roundabout way: normal SG on the
    adjoined-terminal graph, restricted to the original nodes.  Indexed
    by node number, as ``LabeledGraph.g_minus``."""
    # the adjoined graph keeps every node number and appends the terminal
    return sg_labels(adjoin_misere_terminal(graph)).g[:len(graph)]


@dataclass
class ConsistencyReport:
    violations: list = field(default_factory=list)
    total: int = 0

    @property
    def ok(self) -> bool:
        return self.total == 0

    def add(self, node, which: str, detail: str):
        self.total += 1
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append((node, which, detail))


def verify_sg_consistency(lg: LabeledGraph) -> ConsistencyReport:
    """Check both characterization conditions of the SG value at every node:
    no option repeats the node's value, and every smaller value is realized.
    Applied to the normal and the misere labels independently."""
    report = ConsistencyReport()
    graph = lg.graph
    offsets, targets = graph.offsets, graph.targets
    for x in graph.order:
        opts = targets[offsets[x]:offsets[x + 1]]
        for which, values in (("normal", lg.g), ("misere", lg.g_minus)):
            own = values[x]
            realized = {values[y] for y in opts}
            if own in realized:
                report.add(graph.positions[x], which,
                           f"option repeats value {own}")
            missing = [k for k in range(own) if k not in realized]
            # misere terminals are initialized to 1 with no options; exempt
            if missing and not (which == "misere" and not opts):
                report.add(graph.positions[x], which,
                           f"values {missing} below {own} unrealized")
    return report


def position_key(x) -> str:
    """Serialize a position for tables: dash-joined coords, or the node id."""
    if isinstance(x, tuple):
        return "-".join(str(c) for c in x)
    return str(x)


def sort_key(lg_or_graph, x):
    """Deterministic report order: smallest depth, then smallest position."""
    graph = getattr(lg_or_graph, "graph", lg_or_graph)
    return (graph.depth(x), position_key(x))


def table_rows(lg: LabeledGraph) -> list:
    # a sort of whole (key, g, g_minus) tuples: node order cannot change it
    return sorted(zip(map(position_key, lg.graph.positions), lg.g, lg.g_minus))


def to_csv(lg: LabeledGraph, header_comment: str | None = None) -> str:
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    lines.append("position,g,g_minus")
    lines.extend(f"{p},{g},{gm}" for p, g, gm in table_rows(lg))
    return "\n".join(lines) + "\n"


def to_json(lg: LabeledGraph) -> str:
    rows = [{"position": p, "g": g, "g_minus": gm} for p, g, gm in table_rows(lg)]
    return json.dumps(rows, indent=2) + "\n"
