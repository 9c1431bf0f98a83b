"""Normal and misere Sprague-Grundy labeling of reachable graphs."""

from __future__ import annotations

import io
import json
from array import array
from operator import sub
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
    # filled as lists, whose items read and write without converting to
    # and from C ints, and stored as array("i")
    g, gm = [0] * n, [0] * n
    offsets, targets = graph.offsets, graph.targets
    # marks: sg[v] == x (sm[v] == x) when an option of x has normal
    # (misere) value v.  A mex of k values is at most k, so g(x) <=
    # out-degree(x) and g_minus(x) <= max(out-degree(x), 1): with D the
    # largest out-degree (>= 1 once any x marks), every mark and mex probe
    # is at most D.
    width = max(map(sub, offsets[1:], offsets), default=0) + 1
    sg, sm = [-1] * width, [-1] * width
    for x in reversed(graph.order):
        lo, hi = offsets[x], offsets[x + 1]
        if lo == hi:
            gm[x] = 1
            continue
        # mex inlined: two calls per node made this loop about 1.7x slower
        for y in targets[lo:hi]:
            sg[g[y]] = x
            sm[gm[y]] = x
        m = 0
        while sg[m] == x:
            m += 1
        k = 0
        while sm[k] == x:
            k += 1
        g[x], gm[x] = m, k
    return LabeledGraph(graph, array("i", g), array("i", gm))


def misere_via_adjoined_terminal(graph: ReachableGraph) -> array:
    """Misere values computed the roundabout way: normal SG on the
    adjoined-terminal graph, restricted to the original nodes.  Indexed
    by node number, as ``LabeledGraph.g_minus``."""
    # the adjoined graph keeps every node number and appends the terminal
    return sg_labels(adjoin_misere_terminal(graph)).g[:len(graph)]


class ConsistencyReport:
    def __init__(self, violations: list | None = None, total: int = 0):
        self.violations = [] if violations is None else violations
        self.total = total

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
    Applied to the normal and the misere labels independently; a misere
    terminal's value is 1 by definition, and nothing else is checked there."""
    report = ConsistencyReport()
    graph = lg.graph
    offsets, targets = graph.offsets, graph.targets
    for x in graph.order:
        opts = targets[offsets[x]:offsets[x + 1]]
        for which, values in (("normal", lg.g), ("misere", lg.g_minus)):
            own = values[x]
            if which == "misere" and not opts:
                if own != 1:
                    report.add(graph.positions[x], which,
                               f"terminal value {own}, not 1")
                continue
            realized = {values[y] for y in opts}
            if own in realized:
                report.add(graph.positions[x], which,
                           f"option repeats value {own}")
            missing = [k for k in range(own) if k not in realized]
            if missing:
                report.add(graph.positions[x], which,
                           f"values {missing} below {own} unrealized")
    return report


def position_key(x) -> str:
    """Serialize a position for tables: dash-joined coords, or the node id."""
    if isinstance(x, tuple):
        return "-".join(str(c) for c in x)
    return str(x)


def position_keys(positions):
    """``position_key`` of every position, in node order.

    A positions sequence may supply the keys itself through a
    ``position_keys()`` method, when it can build them faster than one
    ``position_key`` call per position (a sum's product positions join
    their summands' keys).
    """
    own = getattr(positions, "position_keys", None)
    return map(position_key, positions) if own is None else own()


def table_rows(lg: LabeledGraph) -> list:
    # a sort of whole (key, g, g_minus) tuples: node order cannot change it
    return sorted(zip(position_keys(lg.graph.positions), lg.g, lg.g_minus))


CSV_CHUNK_ROWS = 8192


def write_csv(lg: LabeledGraph, fh, header_comment: str | None = None):
    """Write the CSV table to the text stream ``fh``: the header, then the
    sorted rows, formatted and written a chunk at a time, so the whole text
    is never held at once."""
    if header_comment:
        fh.write(f"# {header_comment}\n")
    fh.write("position,g,g_minus\n")
    rows = table_rows(lg)
    for lo in range(0, len(rows), CSV_CHUNK_ROWS):
        fh.write("".join([f"{p},{g},{gm}\n"
                          for p, g, gm in rows[lo:lo + CSV_CHUNK_ROWS]]))


def to_csv(lg: LabeledGraph, header_comment: str | None = None) -> str:
    """The CSV table ``write_csv`` writes, as one string."""
    buf = io.StringIO()
    write_csv(lg, buf, header_comment)
    return buf.getvalue()


def to_json(lg: LabeledGraph) -> str:
    rows = [{"position": p, "g": g, "g_minus": gm} for p, g, gm in table_rows(lg)]
    return json.dumps(rows, indent=2) + "\n"
