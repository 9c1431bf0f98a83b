"""Game graphs: rule objects, reachable subgames, depth, misere transform.

Positions are arbitrary hashable values.  Pile games use tuples of
non-negative ints; explicit fixtures use string node ids.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
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

    ``box_moves`` (optional, never with ``canonical``) declares the moves
    of an origin box's nodes: ``box_moves(k)`` is a tuple of moves for a
    box of k coordinates, each of one of three forms (``BoxGraph`` raises
    ValueError on any other move):

    - ``(step, order)``, ``step`` k integers >= 0, not all 0: with
      ``order`` +1 or -1 node p moves to each ``p - j*step``, j >= 1, that
      stays >= 0, a ray listed ascending resp. descending by node number;
      with 0 it moves to ``p - step`` alone, a point;
    - ``(step, start)``, ``start`` also k integers >= 0, not all 0: a ray
      from ``start``, to each ``p - start - j*step``, j >= 0, that stays
      >= 0 (``(step, +1)`` is the ray from ``step``);
    - ``(span, "region")``, ``span`` k of 0 and 1, not all 0: every q != p
      with q <= p where ``span`` is 1 and q = p where it is 0.

    When every move is of the first form, the moves, one after another,
    give the same options in the same order as ``options(p)``.  Otherwise
    they give the same set of options, and a box lists a node's options
    from ``options(p)``.  Moves may be declared only when every ``p - e_i``
    with ``p_i > 0`` is an option: then the box below a position is exactly
    that position's closure, and a position's depth is its coordinate sum
    (every move lowers the sum, and each move to a ``p - e_i`` lowers it by
    one).  ``enumerate_subgame`` uses them when the roots' componentwise
    maximum is itself one of the roots.
    """

    family: str
    params: dict = field(default_factory=dict)
    options: Callable[[Position], list] = None
    canonical: Callable[[Position], Position] | None = None
    box_moves: Callable[[int], tuple] | None = None

    def canon(self, p: Position) -> Position:
        return p if self.canonical is None else self.canonical(p)


class ReachableGraph:
    """The finite subgame generated by a root set: numbered nodes and moves.

    Nodes are numbered 0..N-1.  ``positions[i]`` is node i's position and
    the mapping ``index`` maps a position back to its number (a box and a
    sum keep both as read-only views, ``_ProductPositions`` and
    ``_ProductIndex``).
    Node i's options are ``targets[offsets[i]:offsets[i + 1]]`` (compressed
    sparse rows of ``array('i')``).  ``order`` lists the node numbers with
    every move source before its targets, and ``depths[i]`` is d(node i).
    ``succ``, ``topo`` and ``nodes`` are read-only views of the same data in
    terms of positions, ``row(i)`` is node i's option numbers, ``rows()``
    every node's in node order, and ``node_rows()`` walks every node after
    its options; every reader but the constructors of stored graphs takes
    the rows through these three.
    Immutable after construction.  ``order`` and ``depths`` come from one
    depth-first pass, which is also the cycle check, unless the caller
    passes both.  The closure of a greatest root, with ``box_moves``, is a
    ``BoxGraph``, and a disjunctive sum is a ``sums.ProductGraph``; both
    compute their rows and store none.
    """

    def __init__(self, roots, positions, index, offsets, targets,
                 order=None, depths=None):
        self.roots = frozenset(roots)
        self.positions = positions
        self.index = index
        self.offsets = offsets
        self.targets = targets
        if order is None:
            order, depths = _order_and_depths(positions, offsets, targets)
        self.order, self.depths = order, depths

    @property
    def succ(self) -> NodeView:
        """position -> tuple of its option positions, in node order."""
        return NodeView(self.index, lambda: self.positions, self._options)

    def _options(self, i) -> tuple:
        return tuple(map(self.positions.__getitem__, self.row(i)))

    def row(self, i):
        """Node i's option numbers, in the order the rule gave them."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def rows(self):
        return map(self.row, range(len(self)))

    def node_rows(self):
        """``(x, row)`` for every node x, each after all of its options:
        ``row`` iterates x's option numbers, as ``row(x)`` lists them."""
        offsets, targets = self.offsets, self.targets
        for x in reversed(self.order):
            yield x, targets[offsets[x]:offsets[x + 1]]

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
        return [x for x, row in zip(self.positions, self.rows()) if not row]

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


class BoxGraph(ReachableGraph):
    """The origin box below ``bounds`` of a game with ``box_moves``: the
    closure of any root set whose greatest root is ``bounds``.

    Node n is the mixed-radix number of its position, the last coordinate
    fastest: ``positions`` and ``index`` are a sum's views over one
    ``range`` per coordinate, so no position or index entry is stored, and
    whole-graph readers take the positions from one pass over the view.
    ``strides[i]`` is the node-number step of coordinate i, so a move's
    step is the same node-number step from every node.  When every move is
    a ray from its step or a point, node n's options are one range per
    move (``lines``); when a move has a start or is a region, they are
    ``options(p)`` numbered through the strides, in the rule's order,
    which no order of moves need reproduce.  No row is stored.  Every move
    lowers the node number, so the descending node numbers are ``order``
    (also what the depth-first pass would give), no cycle check runs, and
    ``node_rows`` walks the nodes in ascending order.  A node's depth is
    its coordinate sum, as the ``box_moves`` contract implies, so
    ``depths`` reads no row; its first reader gets it built, once.
    """

    def __init__(self, roots, bounds, moves, options):
        self.roots = frozenset(roots)
        self.positions = _ProductPositions([range(b + 1) for b in bounds])
        self.index = _ProductIndex(self.positions,
                                   [range(b + 1).index for b in bounds])
        self.strides = [math.prod(b + 1 for b in bounds[i + 1:])
                        for i in range(len(bounds))]
        self.moves = tuple(moves)
        k = len(bounds)
        for move in self.moves:
            if not _is_box_move(move, k):
                raise ValueError(
                    f"box move {move!r}: it must be (step, order), (step, "
                    f"start) or (span, 'region'), with step and start {k} "
                    f"integers >= 0, not all 0, order +1, -1 or 0, and span "
                    f"{k} of 0 and 1, not all 0")
        # the rule lists the rows unless every move is a ray from its step
        # or a point
        self.rule = (None if all(how in (1, -1, 0) for _, how in self.moves)
                     else options)
        # per move of a box whose moves list the rows: its node-number step,
        # its nonzero coordinates and its order
        self._steps = [] if self.rule else [
            (sum(map(operator.mul, step, self.strides)),
             [(i, c) for i, c in enumerate(step) if c], order)
            for step, order in self.moves]
        self.order = array("i", range(len(self.positions) - 1, -1, -1))

    def lines(self, x, p) -> list:
        """Node x's options, p being its position, as node-number
        sequences: one range per move, a ray's in its order and a point's
        of at most one node, or, when the rule lists the rows, one list."""
        if self.rule is not None:
            strides = self.strides
            return [[sum(map(operator.mul, q, strides)) for q in self.rule(p)]]
        out = []
        for s, nonzero, order in self._steps:
            if not order:
                for i, c in nonzero:
                    if p[i] < c:
                        break
                else:
                    out.append((x - s,))
                continue
            # the nodes the ray reaches: x >= p_i >= p_i // c bounds them
            k = x
            for i, c in nonzero:
                if p[i] < c * k:
                    k = p[i] // c
            out.append(range(x - k * s, x, s) if order > 0
                       else range(x - s, x - (k + 1) * s, -s))
        return out

    def node_rows(self):
        return enumerate(self.rows())

    def edge_count(self) -> int:
        # a region's options may be another region's: count rows, not moves
        return sum(map(len, itertools.chain.from_iterable(map(
            self.lines, range(len(self)), self.positions))))

    def row(self, i, p=None) -> list:
        # p, when given, is node i's position; a list takes a range faster
        # than an array does
        row = []
        for line in self.lines(i, self.positions[i] if p is None else p):
            row += line
        return row

    def rows(self):
        return map(self.row, range(len(self)), self.positions)

    topo = property(lambda self: list(self.positions)[::-1])
    depths = cached_property(
        lambda self: array("i", map(sum, self.positions)))


def _is_box_move(move, k) -> bool:
    """Whether ``move`` is of one of ``GameDef.box_moves``' three forms for
    a box of k coordinates."""
    def vector(v):
        return (isinstance(v, tuple) and len(v) == k and any(v)
                and all(type(c) is int and c >= 0 for c in v))

    if not (isinstance(move, tuple) and len(move) == 2):
        return False
    step, how = move
    if how == "region":
        return vector(step) and max(step) == 1
    return vector(step) and (how in (1, -1, 0) or vector(how))


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


class _ProductPositions(Sequence):
    """Node number -> position of a product of factors, each a sequence of
    positions: a tuple of one per factor, in mixed radix, the last fastest."""

    __slots__ = ("_factors", "_len")

    def __init__(self, factors):
        self._factors, self._len = factors, math.prod(map(len, factors))

    def __len__(self):
        return self._len

    def __iter__(self):
        return itertools.product(*self._factors)

    def __getitem__(self, n):
        n = range(self._len)[n]
        coords = []
        for factor in reversed(self._factors):
            n, c = divmod(n, len(factor))
            coords.append(factor[c])
        return tuple(reversed(coords))

    def key_order(self):
        """The product keys in sorted order, as (heads, tails, nodes):
        ``heads`` lists the nodes of all factors but the last as (their
        keys, each followed by a dash, node number), ``tails`` the last
        factor's keys and ``nodes`` their node numbers, by key, so node
        i·len(tails) + nodes[j] has key head + tails[j].  Product keys
        first differ inside the first factor whose keys differ, or where
        the shorter key's dash meets the longer, so the result is None only
        if a factor has equal keys, or a key that is a prefix of the next
        with a character at or below "-" after it (then key + "." sorts
        after the next key).  A product of no factors has one key, ""."""
        orders = []
        for factor in self._factors:
            keys = list(map(str, factor))
            # the node numbers by key, held as an array and not as tuples
            nodes = array("i", sorted(range(len(keys)), key=keys.__getitem__))
            keys = list(map(keys.__getitem__, nodes))
            dotted = map(operator.add, keys, itertools.repeat("."))
            if any(map(operator.gt, dotted, keys[1:])):
                return None
            orders.append((keys, nodes))
        *lefts, (tails, nodes) = orders or [([""], [0])]
        heads = [("", 0)]
        for keys, numbers in lefts:
            n = len(keys)
            heads = [(head + key + "-", i * n + j) for head, i in heads
                     for key, j in zip(keys, numbers)]
        return heads, tails, nodes


class _ProductIndex(Mapping):
    """Position -> node number of a ``_ProductPositions``, from one lookup
    per factor whose miss, KeyError or ValueError, is a KeyError here."""

    __slots__ = ("_positions", "_lookups")

    def __init__(self, positions, lookups):
        self._positions, self._lookups = positions, lookups

    def __len__(self):
        return len(self._positions)

    def __iter__(self):
        return iter(self._positions)

    def __getitem__(self, x):
        factors = self._positions._factors
        if not isinstance(x, tuple) or len(x) != len(factors):
            raise KeyError(x)
        n = 0
        try:
            for factor, lookup, p in zip(factors, self._lookups, x):
                n = n * len(factor) + lookup(p)
        except ValueError:
            raise KeyError(x) from None
        return n


def enumerate_subgame(game: GameDef, roots: Iterable[Position],
                      node_cap: int = DEFAULT_NODE_CAP) -> ReachableGraph:
    """Materialize the subgame reachable from ``roots``.

    Breadth-first closure under the move rule that numbers each node when
    it is first seen, then one depth-first pass that orders the nodes and
    doubles as the mandatory cycle check.  When the game has ``box_moves``
    and the roots' componentwise maximum is one of them (``_greatest``),
    the closure is the origin box below that root, numbered already, and
    every move lowers the node number, so the result is a ``BoxGraph``: no
    option is enumerated, no row is stored and no depth-first pass runs.
    """
    positions = list(dict.fromkeys(game.canon(r) for r in roots))
    if game.box_moves is not None:
        bounds = _greatest(positions)
        if bounds is not None:
            if math.prod(b + 1 for b in bounds) > node_cap:
                raise LimitExceeded(f"node cap {node_cap} exceeded")
            return BoxGraph(positions, bounds, game.box_moves(len(bounds)),
                            game.options)
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
                # a repeat: each option once, in first-seen order
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


def _greatest(positions):
    """The componentwise maximum of ``positions`` when it is one of them
    and all are vectors of one length of integers >= 0; else None."""
    try:
        if len(set(map(len, positions))) != 1:
            return None  # none, or of mixed length: zip would truncate
        columns = list(zip(*positions))
    except TypeError:  # not a vector
        return None
    if not set(map(type, itertools.chain.from_iterable(columns))) <= {int}:
        return None
    if columns and min(map(min, columns)) < 0:
        return None
    top = tuple(map(max, columns))
    return top if top in positions else None


def graph_from_adjacency(adj: dict, roots=None) -> ReachableGraph:
    """Build a ReachableGraph from an explicit node -> successors mapping.

    Nodes are numbered in the mapping's order; repeated successors are
    kept once.  ``roots`` defaults to ``source_nodes(adj)``.
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
        roots = source_nodes(adj)
    return ReachableGraph(roots, positions, index, offsets, targets)


def source_nodes(adj: dict) -> list:
    """The nodes of a node -> successors mapping that no edge enters, in
    mapping order; every node when each has an incoming edge."""
    targets = {y for ys in adj.values() for y in ys}
    return [x for x in adj if x not in targets] or list(adj)


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


def disjoint_union(graphs) -> tuple[ReachableGraph, array]:
    """One graph holding each of ``graphs`` as a component of its own, and
    the array ``starts`` of where each component's nodes begin.

    Graph k's node i is node ``starts[k] + i`` and its position p is
    ``(k, p)``; ``starts[k + 1]`` is one past graph k's last node.  No move
    crosses components, and every graph was ordered and cycle-checked
    already, so the orders and depths are concatenated and no DFS runs.
    ``graphs`` may be any iterable; each graph is read once, in turn.
    """
    positions, roots, degrees, targets = [], [], [], array("i")
    order, depths, starts = array("i"), array("i"), array("i", [0])
    for k, g in enumerate(graphs):
        base = len(positions)
        rows = list(g.rows())
        positions += [(k, p) for p in g.positions]
        roots += [(k, r) for r in g.roots]
        degrees += map(len, rows)
        targets += array("i", [y + base for row in rows for y in row])
        order += array("i", [x + base for x in g.order])
        depths += g.depths
        starts.append(len(positions))
    index = {x: i for i, x in enumerate(positions)}
    offsets = array("i", itertools.accumulate(degrees, initial=0))
    return (ReachableGraph(roots, positions, index, offsets, targets, order,
                           depths), starts)


def adjoin_misere_terminal(graph: ReachableGraph) -> ReachableGraph:
    """Remark-3 transform: one fresh terminal below every former terminal.

    The new terminal is node N; every other node keeps its number and its
    options, and each former terminal gets the single option N.  Normal SG
    values of the result, restricted to the original nodes, equal the
    misere SG values of the input.  A sink cannot close a cycle, so the
    order is the input's with N last, and every depth grows by one (each
    longest play now ends with the move to N).  The result's positions and
    index are read-only views over the input's, so no position is copied.
    """
    n = len(graph)
    offsets, rows = array("i", [0]), array("i")
    for opts in graph.rows():
        if opts:
            rows.extend(opts)
        else:
            rows.append(n)
        offsets.append(len(rows))
    offsets.append(len(rows))
    return ReachableGraph(
        graph.roots, _WithTerminal(graph.positions),
        _IndexWithTerminal(graph.index, n), offsets, rows,
        graph.order + array("i", [n]),
        array("i", [d + 1 for d in graph.depths] + [0]))


class _WithTerminal(Sequence):
    """Node number -> position: the input's, then ``MISERE_TERMINAL``."""

    __slots__ = ("_positions",)

    def __init__(self, positions):
        self._positions = positions

    def __len__(self):
        return len(self._positions) + 1

    def __iter__(self):
        yield from self._positions
        yield MISERE_TERMINAL

    def __getitem__(self, i):
        i = range(len(self))[i]
        return (MISERE_TERMINAL if i == len(self._positions)
                else self._positions[i])


class _IndexWithTerminal(Mapping):
    """Position -> node number: the input's, and ``MISERE_TERMINAL`` -> N."""

    __slots__ = ("_index", "_n")

    def __init__(self, index, n):
        self._index, self._n = index, n

    def __len__(self):
        return self._n + 1

    def __iter__(self):
        yield from self._index
        yield MISERE_TERMINAL

    def __contains__(self, x):
        return x is MISERE_TERMINAL or x in self._index

    def __getitem__(self, x):
        return self._n if x is MISERE_TERMINAL else self._index[x]
