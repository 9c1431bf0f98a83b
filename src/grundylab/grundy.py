"""Normal and misere Sprague-Grundy labeling of reachable graphs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import ReachableGraph, adjoin_misere_terminal

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
    """A ReachableGraph with a (g, g_minus) label per node and the V_{i,j} sets."""

    def __init__(self, graph: ReachableGraph, labels: dict):
        self.graph = graph
        self.labels = labels
        vsets: dict = {}
        for x, lab in labels.items():
            vsets.setdefault(tuple(lab), set()).add(x)
        self.vsets = vsets

    def vset(self, i: int, j: int) -> set:
        return self.vsets.get((i, j), set())

    def label(self, x) -> Label:
        return self.labels[x]


def sg_labels(graph: ReachableGraph) -> LabeledGraph:
    """Fill both SG recursions bottom-up in topological order.

    Terminals get g = 0 and g_minus = 1; elsewhere both values are the mex
    of the option values.
    """
    labels: dict = {}
    succ = graph.succ
    for x in reversed(graph.topo):
        opts = succ[x]
        if not opts:
            labels[x] = Label(0, 1)
        else:
            labels[x] = Label(mex(labels[y].g for y in opts),
                              mex(labels[y].g_minus for y in opts))
    return LabeledGraph(graph, labels)


def misere_via_adjoined_terminal(graph: ReachableGraph) -> dict:
    """Misere values computed the roundabout way: normal SG on the
    adjoined-terminal graph, restricted to the original nodes."""
    extended = adjoin_misere_terminal(graph)
    lg = sg_labels(extended)
    return {x: lg.labels[x].g for x in graph.nodes}


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
    for x in lg.graph.topo:
        opts = lg.graph.succ[x]
        for which, own, child_vals in (
            ("normal", lg.labels[x].g, [lg.labels[y].g for y in opts]),
            ("misere", lg.labels[x].g_minus, [lg.labels[y].g_minus for y in opts]),
        ):
            if own in child_vals:
                report.add(x, which, f"option repeats value {own}")
            realized = set(child_vals)
            missing = [k for k in range(own) if k not in realized]
            # misere terminals are initialized to 1 with no options; exempt
            if missing and not (which == "misere" and not opts):
                report.add(x, which, f"values {missing} below {own} unrealized")
    return report


def swap_sets(lg: LabeledGraph):
    """(V01, V10, V00, V11) as sets of positions."""
    return (lg.vset(0, 1), lg.vset(1, 0), lg.vset(0, 0), lg.vset(1, 1))


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
    rows = [(position_key(x), lab.g, lab.g_minus) for x, lab in lg.labels.items()]
    rows.sort()
    return rows


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
