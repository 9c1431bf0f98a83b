"""Disjunctive sums: product games, the XOR rule, and the tame-sum swap law."""

from __future__ import annotations

import itertools
import sys
from array import array
from collections.abc import Mapping, Sequence
from functools import reduce
from math import prod
from operator import xor

from .core import (DEFAULT_NODE_CAP, LimitExceeded, NotTameLabel,
                   ReachableGraph, UnknownPredicate)
from .grundy import Label, LabeledGraph, sg_labels
from .classify import PREDICATES, ClassReport, classify


def sum_graph(summands: list[ReachableGraph],
              node_cap: int = DEFAULT_NODE_CAP) -> ProductGraph:
    """The sum of the summand graphs, rooted at every tuple of summand roots.

    That subgame is the full Cartesian product of the summand graphs,
    numbered in mixed radix: node (c_1, ..., c_k), in the summands' node
    numbers, is ``(...(c_1·N_2 + c_2)·N_3 + ...) + c_k``.  It is a
    ``ProductGraph`` of two factors, the sum of the first k - 1 summands
    (a ``ProductGraph`` too when k > 2) and the last summand, so no product
    position and no product row is stored.  A node's options are its moves
    in summand 1, then those in summand 2, and so on.
    """
    if len(summands) < 2:
        raise ValueError("a disjunctive sum needs at least two summands")
    if prod(map(len, summands)) > node_cap:
        raise LimitExceeded(f"node cap {node_cap} exceeded")
    graph = summands[0]
    for k in range(2, len(summands) + 1):
        graph = ProductGraph(summands[:k], graph)
    return graph


def pair_sum_union(union: ReachableGraph,
                   starts: array) -> tuple[ReachableGraph, array]:
    """``core.disjoint_union`` of ``sum_graph([c_2k, c_2k+1])`` over the
    successive pairs of components of ``union``, and its ``starts``,
    written straight into one stored graph with no product built.

    ``union`` and ``starts`` are as ``core.disjoint_union`` gives them:
    component c holds nodes ``starts[c]`` to ``starts[c + 1] - 1``, its
    positions are (c, p), and ``order`` lists its nodes in turn.  Pair k's
    node (i, j), in the components' own node numbers, is
    ``starts'[k] + i·N₂ + j``, with position (k, (p_i, p_j)), the rows,
    depth and roots of ``sum_graph``'s node (i, j), and the components'
    orders taken lexicographically, as a ``ProductGraph`` has them.  Every
    component and pair is read once, so a battery of many tiny sums pays
    no per-sum set-up, and it is labelled by one edge loop.  A last
    component with no partner is left out.
    """
    offsets, targets = union.offsets, union.targets
    positions, order, depths = union.positions, union.order, union.depths
    # when every node is a root, as in a random union, so is every sum
    # node, and the index's keys give the roots with their hashes
    every_root = len(union.roots) == len(positions)
    roots = [[] for _ in range(len(starts) - 1)]
    for c, p in () if every_root else union.roots:
        roots[c].append(p)
    degrees, flat = [], []
    out_order, out_depths, out_starts = array("i"), array("i"), array("i", [0])
    out_positions, out_roots = [], []
    for k in range((len(starts) - 1) // 2):
        a, b, end = starts[2 * k:2 * k + 3]
        m, base = end - b, out_starts[-1]
        rights = [targets[offsets[y]:offsets[y + 1]] for y in range(b, end)]
        right_degrees = list(map(len, rights))
        for i, x in enumerate(range(a, b)):
            left = targets[offsets[x]:offsets[x + 1]]
            degrees += [len(left) + d for d in right_degrees]
            # node (i, j)'s moves: to (y, j) for y in left, then to (i, z)
            row_base = base + i * m - b
            if not left:
                flat += [row_base + z for right in rights for z in right]
                continue
            columns = zip(*[range(base + (y - a) * m, base + (y - a + 1) * m)
                            for y in left])
            for column, right in zip(columns, rights):
                flat += column
                if right:
                    flat += [row_base + z for z in right]
        out_order += _outer_sum(
            array("i", [base + (x - a) * m - b for x in order[a:b]]),
            order[b:end])
        out_depths += _outer_sum(depths[a:b], depths[b:end])
        right_positions = [p for _, p in positions[b:end]]
        out_positions += [(k, (p, q)) for _, p in positions[a:b]
                          for q in right_positions]
        out_roots += [(k, (p, q)) for p in roots[2 * k]
                      for q in roots[2 * k + 1]]
        out_starts.append(base + (b - a) * m)
    index = dict(zip(out_positions, range(len(out_positions))))
    return (ReachableGraph(index if every_root else out_roots,
                           out_positions, index,
                           array("i", itertools.accumulate(degrees, initial=0)),
                           array("i", flat), out_order, out_depths),
            out_starts)


class ProductGraph(ReachableGraph):
    """The sum of ``summands``, as the product of two factors: ``left``, the
    sum of all summands but the last (or the first summand alone), and
    ``right``, the last summand.

    Node ``i·N_right + j`` is left node i with right node j.  Its row is
    computed from the factors' rows (``row``): the moves in the left factor
    (j fixed), then those in the right (i fixed).  Listing the nodes
    lexicographically over the factors' parents-first orders is
    parents-first, and a node's depth is the sum of its components'
    depths; the factors passed the cycle check, so the product needs none.
    Labelling folds the product from its factors
    (``classify.fold_rows``); every other reader takes the rows one node at
    a time, so no product row is ever stored.
    """

    def __init__(self, summands, left):
        right = summands[-1]
        self.roots = frozenset(itertools.product(*(g.roots
                                                   for g in summands)))
        self.positions = _ProductPositions(summands)
        self.index = _ProductIndex(summands)
        self.left, self.right = left, right
        m = len(right)
        self.order = _outer_sum(array("i", [i * m for i in left.order]),
                                right.order)
        self.depths = _outer_sum(left.depths, right.depths)

    def row(self, x) -> list:
        left, right = self.left, self.right
        m = len(right)
        i, j = divmod(x, m)
        base = i * m
        return ([y * m + j for y in left.row(i)]
                + [base + y for y in right.row(j)])

    def node_rows(self):
        row = self.row
        for x in reversed(self.order):
            yield x, row(x)

    def edge_count(self) -> int:
        return _degrees(self)[0]

    def terminals(self):
        return list(map(self.positions.__getitem__, _terminal_nodes(self)))

    def factor_degrees(self) -> tuple:
        """(edge count, most options of one node) of ``left`` and of
        ``right``."""
        return _degrees(self.left), _degrees(self.right)


def _degrees(graph) -> tuple:
    """(edge count, most options of one node) of a graph; a product's come
    from its factors', with no product row built."""
    if isinstance(graph, ProductGraph):
        (e1, k1), (e2, k2) = graph.factor_degrees()
        return e1 * len(graph.right) + len(graph.left) * e2, k1 + k2
    degrees = list(map(len, map(graph.row, range(len(graph)))))
    return sum(degrees), max(degrees)


def _terminal_nodes(graph) -> list:
    """A graph's terminal node numbers, ascending; a product's are the
    pairs of its factors', with no product row built."""
    if isinstance(graph, ProductGraph):
        m, right = len(graph.right), _terminal_nodes(graph.right)
        return [i * m + j for i in _terminal_nodes(graph.left) for j in right]
    return [x for x in range(len(graph)) if not graph.row(x)]


def _outer_sum(a, b) -> array:
    """``[x + y for x in a for y in b]`` as an ``array('i')``."""
    packed, ones, out = _lanes(b), _ones(len(b)), array("i")
    for x in a:
        out += _unlanes(packed + x * ones, len(b))
    return out


def _lanes(values: array) -> int:
    """An ``array('i')`` of non-negative entries as one integer, one entry
    per lane of ``itemsize`` bytes.  Adding two such integers adds them
    entry by entry, at C speed, as long as no entry sum reaches 2**31; the
    entries here are node numbers and depths of graphs held in memory, far
    below that."""
    return int.from_bytes(values.tobytes(), sys.byteorder)


def _unlanes(number: int, n: int) -> array:
    """The ``n`` lanes of ``number`` as an ``array('i')``."""
    out = array("i")
    out.frombytes(number.to_bytes(n * out.itemsize, sys.byteorder))
    return out


def _ones(n: int) -> int:
    return _lanes(array("i", [1]) * n)


class _ProductPositions(Sequence):
    """Node number -> product position, read from the summands' positions."""

    __slots__ = ("_summands", "_len")

    def __init__(self, summands):
        self._summands, self._len = summands, prod(map(len, summands))

    def __len__(self):
        return self._len

    def __iter__(self):
        return itertools.product(*(g.positions for g in self._summands))

    def __getitem__(self, n):
        n = range(self._len)[n]
        coords = []
        for g in reversed(self._summands):
            n, c = divmod(n, len(g))
            coords.append(g.positions[c])
        return tuple(reversed(coords))

    def key_order(self):
        """The product keys in sorted order, as (heads, tails): ``heads``
        lists the left factor's nodes (all summands but the last) as (key
        and a dash, node number), ``tails`` the last summand's as (key,
        node number), each sorted by key, so that node i·len(tails) + j has
        key head + tail.  A key is the ``str`` of a summand position, and
        ``grundy.position_key`` joins them with dashes.

        When no key of a summand is a prefix of another of its keys, two
        product keys first differ inside the first summand whose keys
        differ, so the sorted product keys are the mixed-radix product of
        the summands' sorted keys.  Otherwise, equal keys included, the
        result is None.  A key is a prefix of a later sorted key only if it
        is one of the next key, so adjacent keys are tested."""
        orders = []
        for g in self._summands:
            pairs = sorted(zip(map(str, g.positions), range(len(g))))
            keys = [key for key, _ in pairs]
            if any(map(str.startswith, keys[1:], keys)):
                return None
            orders.append(pairs)
        *lefts, tails = orders
        heads = [("", 0)]
        for pairs in lefts:
            n = len(pairs)
            heads = [(head + key + "-", i * n + j) for head, i in heads
                     for key, j in pairs]
        return heads, tails


class _ProductIndex(Mapping):
    """Product position -> node number, read from the summands' indexes."""

    __slots__ = ("_summands",)

    def __init__(self, summands):
        self._summands = summands

    def __len__(self):
        return prod(map(len, self._summands))

    def __iter__(self):
        return iter(_ProductPositions(self._summands))

    def __getitem__(self, x):
        if not isinstance(x, tuple) or len(x) != len(self._summands):
            raise KeyError(x)
        n = 0
        for g, p in zip(self._summands, x):
            n = n * len(g) + g.index[p]
        return n


def sum_sg(values) -> int:
    """Bitwise XOR fold: the normal SG value of a sum of components."""
    return reduce(xor, values, 0)


def tame_sum_label(labels: list[Label]) -> Label:
    """Label of a sum position from tame component labels.

    All swaps: (1,0) iff the number of (1,0) inputs is odd, else (0,1).
    Otherwise the sum position satisfies g_minus = g = XOR of the g's.
    """
    for lab in labels:
        lab = Label(*lab)
        if lab.g != lab.g_minus and not lab.is_swap:
            raise NotTameLabel(f"{tuple(lab)} cannot occur in a tame game")
    if all(Label(*lab).is_swap for lab in labels):
        ones = sum(1 for lab in labels if tuple(lab) == (1, 0))
        return Label(1, 0) if ones % 2 == 1 else Label(0, 1)
    g = sum_sg(lab[0] for lab in labels)
    return Label(g, g)


def _tame_sum_arrays(lefts: list, last: list) -> tuple:
    """The g and g_minus arrays ``tame_sum_label`` predicts for a sum whose
    summands have the label lists ``lefts`` and then ``last``, in product
    node order.  Each left tuple of labels gives a block of ``len(last)``
    nodes, built once per distinct tuple, and ``tame_sum_label`` is called
    once per distinct tuple of component labels."""
    labels, blocks = {}, {}
    want_g, want_gm = array("i"), array("i")
    for left in itertools.product(*lefts):
        block = blocks.get(left)
        if block is None:
            column = []
            for lab in last:
                comps = left + (lab,)
                want = labels.get(comps)
                if want is None:
                    want = labels[comps] = tuple(tame_sum_label(comps))
                column.append(want)
            block = blocks[left] = [array("i", c) for c in zip(*column)]
        want_g += block[0]
        want_gm += block[1]
    return want_g, want_gm


class ClosureReport:
    def __init__(self, target: str, summand_reports: list,
                 sum_report: ClassReport, holds: bool, label_mismatches: list,
                 sum_labels: LabeledGraph):
        self.target = target
        self.summand_reports = summand_reports
        self.sum_report = sum_report
        self.holds = holds
        self.label_mismatches = label_mismatches
        # the labelled product the verdicts came from
        self.sum_labels = sum_labels

    @property
    def fast_path_ok(self) -> bool:
        return not self.label_mismatches


def check_closure(target: str, summands: list[ReachableGraph],
                  node_cap: int = DEFAULT_NODE_CAP) -> ClosureReport:
    """Classify the sum of the summand graphs (``sum_graph``) and report
    whether ``target`` survives.

    Each summand and the product are labelled and classified once.  For
    tame or miserable summands the theorem-derived fast path
    (``tame_sum_label``) is cross-checked against every sum label: its
    predicted label arrays are compared with the sum's whole, and node by
    node only where they differ.
    """
    if target not in PREDICATES:
        raise UnknownPredicate(f"unknown predicate {target!r}")
    product = sum_graph(summands, node_cap)
    summand_lgs = [sg_labels(graph) for graph in summands]
    summand_reports = [classify(lg) for lg in summand_lgs]

    sum_lg = sg_labels(product)
    sum_report = classify(sum_lg)
    holds = sum_report.verdicts[target]

    mismatches = []
    if all(r.verdicts["tame"] for r in summand_reports):
        *lefts, last = [list(zip(lg.g, lg.g_minus)) for lg in summand_lgs]
        want_g, want_gm = _tame_sum_arrays(lefts, last)
        if want_g != sum_lg.g or want_gm != sum_lg.g_minus:
            mismatches = [
                (product.positions[x], lab, want) for x, (lab, want)
                in enumerate(zip(zip(sum_lg.g, sum_lg.g_minus),
                                 zip(want_g, want_gm)))
                if lab != want]
    return ClosureReport(target, summand_reports, sum_report, holds,
                         mismatches, sum_lg)
