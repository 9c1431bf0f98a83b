"""Normal and misere Sprague-Grundy labeling of reachable graphs."""

from __future__ import annotations

import io
import json
from array import array
from typing import NamedTuple

from .core import NodeView, ReachableGraph, adjoin_misere_terminal

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
    parents.  ``packed_masks`` holds the per-node class and property words
    that ``classify`` reads; ``sg_labels`` fills them in the pass that
    gives the labels.  A LabeledGraph built by hand without them serves
    only the value checks (``verify_sg_consistency``,
    ``suites.misere_mismatches``).  Immutable after construction.
    """

    def __init__(self, graph: ReachableGraph, g: array, g_minus: array,
                 packed_masks: array | None = None):
        self.graph, self.g, self.g_minus = graph, g, g_minus
        self.packed_masks = packed_masks

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
    """Both SG recursions and the packed class words, in one pass over the
    nodes with each node after its options (``classify.fold_rows``).

    Terminals get g = 0 and g_minus = 1; elsewhere both values are the mex
    of the option values.
    """
    from .classify import fold_rows  # classify imports this module
    return LabeledGraph(graph, *fold_rows(graph))


def misere_via_adjoined_terminal(graph: ReachableGraph) -> array:
    """Misere values computed the roundabout way: normal SG on the
    adjoined-terminal graph, restricted to the original nodes.  Indexed
    by node number, as ``LabeledGraph.g_minus``."""
    # the adjoined graph keeps every node number and appends the terminal
    return sg_labels(adjoin_misere_terminal(graph)).g[:len(graph)]


class ConsistencyReport:
    def __init__(self, violations: list | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_sg_consistency(lg: LabeledGraph) -> ConsistencyReport:
    """Check both characterization conditions of the SG value at every node:
    no option repeats the node's value, and every smaller value is realized.
    Applied to the normal and the misere labels independently; a misere
    terminal's value is 1 by definition, and nothing else is checked there.
    A negative value, the node's own or an option's, is a violation of its
    own.

    The report lists every failed condition as (position, "normal" or
    "misere", detail), in graph order.  A node passes on one test per
    convention: the OR m of ``1 << v`` over its options' values v has
    exactly ``own`` trailing ones, ``m ^ (m + 1) == (2 << own) - 1``.  A
    negative value makes a shift raise, which fails the node.  Details are
    built only for a node that fails."""
    report = ConsistencyReport()
    graph, g, g_minus = lg.graph, lg.g, lg.g_minus
    row, positions = graph.row, graph.positions
    for x in graph.order:
        opts = row(x)
        own, own_m = g[x], g_minus[x]
        try:
            if opts:
                m = m_m = 0
                for o in opts:
                    m |= 1 << g[o]
                    m_m |= 1 << g_minus[o]
                if (m ^ (m + 1) == (2 << own) - 1
                        and m_m ^ (m_m + 1) == (2 << own_m) - 1):
                    continue
            elif own == 0 and own_m == 1:
                continue
        except ValueError:  # a negative shift count
            pass
        if opts:
            failed = (_mex_failures(positions[x], "normal", own,
                                    [g[o] for o in opts])
                      + _mex_failures(positions[x], "misere", own_m,
                                      [g_minus[o] for o in opts]))
        else:
            failed = _mex_failures(positions[x], "normal", own, [])
            if own_m != 1:
                failed.append((positions[x], "misere",
                               f"terminal value {own_m}, not 1"))
        report.violations += failed
    return report


def _mex_failures(x, which: str, own: int, values: list) -> list:
    """The failed conditions of a node x whose ``which`` value is ``own``
    and whose options' values are ``values``."""
    out = []
    if own < 0:
        out.append((x, which, f"negative value {own}"))
    negative = sorted({v for v in values if v < 0})
    if negative:
        out.append((x, which, f"negative option values {negative}"))
    realized = set(values)
    if own in realized:
        out.append((x, which, f"option repeats value {own}"))
    missing = [k for k in range(own) if k not in realized]
    if missing:
        out.append((x, which, f"values {missing} below {own} unrealized"))
    return out


def position_key(x) -> str:
    """Serialize a position for tables: dash-joined coords, or the node id."""
    if isinstance(x, tuple):
        return "-".join(str(c) for c in x)
    return str(x)


def table_rows(lg: LabeledGraph) -> list:
    # a sort of whole (key, g, g_minus) tuples: node order cannot change it
    return sorted(zip(map(position_key, lg.graph.positions), lg.g,
                      lg.g_minus))


CSV_CHUNK_ROWS = 8192
# the most rows of formatted block suffixes a product's table keeps at once
_SUFFIX_CAP = 1 << 16


def write_csv(lg: LabeledGraph, fh, header_comment: str | None = None):
    """Write the CSV table to the text stream ``fh``: the header, then the
    rows sorted by key, formatted and written a chunk of about
    ``CSV_CHUNK_ROWS`` rows at a time, so the whole text is never held at
    once.

    A sum whose keys sort in summand order (``key_order`` of its
    positions) is written a block at a time (``_product_chunks``); every
    other graph sorts its rows (``table_rows``)."""
    if header_comment:
        fh.write(f"# {header_comment}\n")
    fh.write("position,g,g_minus\n")
    order = getattr(lg.graph.positions, "key_order", None)
    order = None if order is None else order()
    if order is not None:
        for text in _product_chunks(lg, *order):
            fh.write(text)
        return
    rows = table_rows(lg)
    for lo in range(0, len(rows), CSV_CHUNK_ROWS):
        fh.write("".join([f"{p},{g},{gm}\n"
                          for p, g, gm in rows[lo:lo + CSV_CHUNK_ROWS]]))


def _product_chunks(lg: LabeledGraph, heads: list, tails: list):
    """The rows of a sum's table in key order, a chunk at a time, from its
    positions' ``key_order``: left node i, of key ``head``, has the block
    of rows i·N .. i·N + N - 1, N = len(tails), each keyed head + tail.

    The "tail,g,g_minus" suffixes of a block, in the order of ``tails``,
    are formatted once per distinct block of labels, and a block's text is
    one join of them on its head.  No row is held as a tuple.
    """
    chunk, n = CSV_CHUNK_ROWS, len(tails)
    g, g_minus = memoryview(lg.g), memoryview(lg.g_minus)
    # a distinct block's labels -> its suffixes, cut into runs of a chunk
    suffixes, held = {}, 0
    pieces, rows = [], 0
    for head, i in heads:
        lo = i * n
        labels = g[lo:lo + n].tobytes() + g_minus[lo:lo + n].tobytes()
        runs = suffixes.get(labels)
        if runs is None:
            if held >= _SUFFIX_CAP:
                suffixes.clear()
                held = 0
            block = [f"{key},{g[lo + j]},{g_minus[lo + j]}\n"
                     for key, j in tails]
            runs = suffixes[labels] = [block[k:k + chunk]
                                       for k in range(0, n, chunk)]
            held += n
        for run in runs:
            pieces.append(head + head.join(run))
            rows += len(run)
            if rows >= chunk:
                yield "".join(pieces)
                pieces, rows = [], 0
    if pieces:
        yield "".join(pieces)


def to_csv(lg: LabeledGraph, header_comment: str | None = None) -> str:
    """The CSV table ``write_csv`` writes, as one string."""
    buf = io.StringIO()
    write_csv(lg, buf, header_comment)
    return buf.getvalue()


def to_json(lg: LabeledGraph) -> str:
    rows = [{"position": p, "g": g, "g_minus": gm} for p, g, gm in table_rows(lg)]
    return json.dumps(rows, indent=2) + "\n"
