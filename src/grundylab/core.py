"""Game graphs: rule objects, reachable subgames, depth, misere transform.

Positions are arbitrary hashable values.  Pile games use tuples of
non-negative ints; explicit fixtures use string node ids.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

Position = Hashable

DEFAULT_NODE_CAP = 5_000_000


class GameError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(GameError):
    """A position recurs on an expansion path; the move relation is not acyclic."""


class LimitExceeded(GameError):
    """Enumeration passed the configured node cap."""


class UnknownPosition(GameError):
    pass


class UnknownFixture(GameError):
    pass


class UnknownPredicate(GameError):
    pass


class MissingSet(GameError):
    pass


class InvalidParams(GameError):
    pass


class UnsupportedParams(GameError):
    pass


class NotTameLabel(GameError):
    pass


class _MisereTerminal:
    """Unique sentinel node adjoined below the former terminals."""

    __slots__ = ()

    def __repr__(self):
        return "x_T"


MISERE_TERMINAL = _MisereTerminal()

# enumerate_subgame's row stamp for a node no row has taken yet
_UNTAKEN = object()


# The one dataclass in the package: perfbench/spans.py rebuilds GameDefs
# with dataclasses.replace.  Every other record is a plain class or a
# NamedTuple, because a dataclass compiles its methods at import (0.3-1.0 ms
# per class), a cost that every CLI call pays.
@dataclass(frozen=True)
class GameDef:
    """Rule object for one game instance: option enumeration and symmetry.

    ``options`` must return a finite collection of positions, each strictly
    smaller in some well-founded measure.  ``canonical`` (optional) maps a
    position to the representative of its symmetry orbit; it must commute
    with the move rule and be idempotent (``canonical(canonical(p)) ==
    canonical(p)``): enumeration looks a raw option up before
    canonicalising it, and trusts a hit.
    """

    family: str
    params: dict = field(default_factory=dict)
    options: Callable[[Position], list] = None
    canonical: Callable[[Position], Position] | None = None

    def canon(self, p: Position) -> Position:
        return p if self.canonical is None else self.canonical(p)

    def moves(self, p: Position) -> list:
        """Canonicalized, deduplicated option list."""
        if self.canonical is None:
            seen = dict.fromkeys(self.options(p))
            return list(seen)
        return list(dict.fromkeys(self.canonical(y) for y in self.options(p)))


class ReachableGraph:
    """The finite subgame generated by a root set: numbered nodes and moves.

    Nodes are numbered 0..N-1.  ``positions[i]`` is node i's position and
    the mapping ``index`` maps a position back to its number (a product of
    summand graphs keeps both as read-only views over the summands' own).
    Node i's options are ``targets[offsets[i]:offsets[i + 1]]`` (compressed
    sparse rows of ``array('i')``).  ``order`` lists the node numbers with
    every move source before its targets, and ``depths[i]`` is d(node i).
    ``succ``, ``topo`` and ``nodes`` are read-only views of the same data in
    terms of positions.  Immutable after construction.
    """

    def __init__(self, roots, positions, index, offsets, targets):
        self.roots = frozenset(roots)
        self.positions = positions
        self.index = index
        self.offsets = offsets
        self.targets = targets
        self.order, self.depths = _order_and_depths(positions, offsets, targets)

    @classmethod
    def from_order(cls, roots, positions, index, offsets, targets,
                   order, depths) -> "ReachableGraph":
        """A graph whose parents-first ``order`` and ``depths`` are already
        known, so no ordering pass and no cycle check runs."""
        graph = cls.__new__(cls)
        vars(graph).update(roots=frozenset(roots), positions=positions,
                           index=index, offsets=offsets, targets=targets,
                           order=order, depths=depths)
        return graph

    @property
    def succ(self) -> NodeView:
        """position -> tuple of its option positions, in node order."""
        return NodeView(self.index, lambda: self.positions, self._options)

    def _options(self, i) -> tuple:
        return tuple(map(self.positions.__getitem__,
                         self.targets[self.offsets[i]:self.offsets[i + 1]]))

    @property
    def topo(self) -> list:
        """Positions with every move source before its targets."""
        return list(map(self.positions.__getitem__, self.order))

    @property
    def nodes(self):
        return self.succ.keys()

    def __len__(self):
        return len(self.positions)

    def __contains__(self, x):
        return x in self.index

    def edge_count(self) -> int:
        return len(self.targets)

    def terminals(self):
        off = self.offsets
        return [x for i, x in enumerate(self.positions) if off[i] == off[i + 1]]

    def depth(self, x) -> int:
        """d(x): the greatest number of successive moves from x to a terminal."""
        try:
            return self.depths[self.index[x]]
        except KeyError:
            raise UnknownPosition(f"position {x!r} not in graph") from None

    def describe_bound(self) -> str:
        roots = sorted(self.roots, key=repr)
        if len(roots) > 4:
            shown = ", ".join(repr(r) for r in roots[:3])
            root_str = f"{len(roots)} roots ({shown}, ...)"
        else:
            root_str = ", ".join(repr(r) for r in roots)
        return f"roots={root_str}; nodes={len(self)}"


class NodeView(Mapping):
    """Read-only mapping from position to ``value(i)`` of its node number i,
    iterating positions in the order ``keys()`` gives."""

    __slots__ = ("_index", "_keys", "_value")

    def __init__(self, index: dict, keys, value):
        self._index, self._keys, self._value = index, keys, value

    def __getitem__(self, x):
        return self._value(self._index[x])

    def __iter__(self):
        return iter(self._keys())

    def __len__(self):
        return len(self._index)

    def __contains__(self, x):
        return x in self._index


def enumerate_subgame(game: GameDef, roots: Iterable[Position],
                      node_cap: int = DEFAULT_NODE_CAP) -> ReachableGraph:
    """Materialize the subgame reachable from ``roots``.

    Breadth-first closure under the move rule that numbers each node when
    it is first seen, then one depth-first pass that orders the nodes and
    doubles as the mandatory cycle check.
    """
    positions = list(dict.fromkeys(game.canon(r) for r in roots))
    root_count = len(positions)
    index = {x: i for i, x in enumerate(positions)}
    get = index.get
    options, canonical = game.options, game.canonical
    offsets, targets = array("i", [0]), array("i")
    # taken_by[j]: the position of the last row that took node j, so a
    # repeat is one identity test and no row resets anything; roots start
    # with a stamp no position can be
    taken_by = [_UNTAKEN] * root_count
    i = 0
    while i < len(positions):
        if len(positions) > node_cap:
            raise LimitExceeded(f"node cap {node_cap} exceeded")
        x = positions[i]
        ids = []
        for y in options(x):
            # a numbered position is canonical and ``canonical`` is
            # idempotent, so a raw option found in ``index`` is its own form
            j = get(y)
            if j is None and canonical is not None:
                y = canonical(y)
                j = get(y)
            if j is None:
                j = index[y] = len(positions)
                positions.append(y)
                taken_by.append(x)
            elif taken_by[j] is x:
                # a repeat: first-seen order, as GameDef.moves
                continue
            else:
                taken_by[j] = x
            ids.append(j)
        targets.fromlist(ids)
        offsets.append(len(targets))
        i += 1
    del taken_by  # not held through the ordering pass
    return ReachableGraph(positions[:root_count], positions, index,
                          offsets, targets)


def graph_from_adjacency(adj: dict, roots=None) -> ReachableGraph:
    """Build a ReachableGraph from an explicit node -> successors mapping.

    Nodes are numbered in the mapping's order; repeated successors are
    kept once.
    """
    positions = list(adj)
    index = {x: i for i, x in enumerate(positions)}
    offsets, targets = array("i", [0]), array("i")
    for ys in adj.values():
        ids = list(map(index.get, ys))
        distinct = set(ids)
        if None in distinct:
            y = next(y for y in ys if y not in index)
            raise UnknownPosition(f"edge target {y!r} has no node entry")
        if len(distinct) != len(ids):
            ids = list(dict.fromkeys(ids))
        targets.fromlist(ids)
        offsets.append(len(targets))
    if roots is None:
        has_parent = set(targets)
        roots = [x for i, x in enumerate(positions)
                 if i not in has_parent] or positions
    return ReachableGraph(roots, positions, index, offsets, targets)


def _order_and_depths(positions, offsets, targets):
    """Parents-first node order and every node's depth, from one iterative
    post-order DFS that raises CycleDetected on a back edge."""
    n = len(positions)
    # -1 unvisited, -2 on the path, else the finished depth; list items read
    # and write without converting to and from C ints, as the loop does on
    # every edge, and the stored form is array("i")
    depths = [-1] * n
    order = array("i")
    for start in range(n):
        if depths[start] != -1:
            continue
        depths[start] = -2
        # frame: node, its options not yet scanned, 1 + deepest finished option
        path = [[start, iter(targets[offsets[start]:offsets[start + 1]]), 0]]
        while path:
            frame = path[-1]
            x, options, depth = frame
            for y in options:
                d = depths[y]
                if d >= depth:
                    depth = d + 1
                elif d < 0:
                    if d == -2:
                        raise CycleDetected(f"position {positions[y]!r} "
                                            "recurs on the expansion path")
                    frame[2] = depth
                    depths[y] = -2
                    path.append([y, iter(targets[offsets[y]:offsets[y + 1]]),
                                 0])
                    break
            else:
                path.pop()
                order.append(x)
                depths[x] = depth
                if path and depth >= path[-1][2]:
                    path[-1][2] = depth + 1
    order.reverse()
    return order, array("i", depths)


def adjoin_misere_terminal(graph: ReachableGraph) -> ReachableGraph:
    """Remark-3 transform: one fresh terminal below every former terminal.

    The new terminal is node N; every other node keeps its number and its
    options, and each former terminal gets the single option N.  Normal SG
    values of the result, restricted to the original nodes, equal the
    misere SG values of the input.  A sink cannot close a cycle, so the
    order is the input's with N last, and every depth grows by one (each
    longest play now ends with the move to N).
    """
    n, off, targets = len(graph), graph.offsets, graph.targets
    offsets, rows = array("i", [0]), array("i")
    for i in range(n):
        if off[i] == off[i + 1]:
            rows.append(n)
        else:
            rows.extend(targets[off[i]:off[i + 1]])
        offsets.append(len(rows))
    offsets.append(len(rows))
    index = dict(graph.index)
    index[MISERE_TERMINAL] = n
    return ReachableGraph.from_order(
        graph.roots, [*graph.positions, MISERE_TERMINAL], index, offsets,
        rows, graph.order + array("i", [n]),
        array("i", [d + 1 for d in graph.depths] + [0]))
