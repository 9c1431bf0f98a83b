"""Disjunctive sums: product games, the XOR rule, and the tame-sum swap law."""

from __future__ import annotations

import itertools
import sys
from array import array
from collections.abc import Mapping, Sequence
from functools import reduce
from math import prod
from operator import xor

from .core import (DEFAULT_NODE_CAP, GameDef, LimitExceeded, NotTameLabel,
                   ReachableGraph)
from .grundy import Label, LabeledGraph, sg_labels
from .classify import ClassReport, classify


def sum_game(games: list[GameDef]) -> GameDef:
    """Product rule object: a position is a tuple of component positions and
    a move is a move in exactly one component."""
    _check_summand_count(games)

    def options(pos):
        out = []
        for i, g in enumerate(games):
            for y in g.moves(pos[i]):
                out.append(pos[:i] + (y,) + pos[i + 1:])
        return out

    def canonical(pos):
        return tuple(g.canon(p) for g, p in zip(games, pos))

    family = "+".join(g.family for g in games)
    return GameDef(family=family, params={"summands": len(games)},
                   options=options, canonical=canonical)


def sum_graph(summands: list[ReachableGraph],
              node_cap: int = DEFAULT_NODE_CAP) -> ReachableGraph:
    """The sum of the summand graphs, rooted at every tuple of summand roots.

    That subgame is the full Cartesian product of the summand graphs, built
    from their move arrays and numbered in mixed radix: node
    (c_1, ..., c_k), in the summands' node numbers, is
    ``(...(c_1·N_2 + c_2)·N_3 + ...) + c_k``, and no product position is
    stored.  Listing the nodes lexicographically over the summands'
    parents-first orders is parents-first, and a node's depth is the sum of
    its components' depths; the summands passed the cycle check, so the
    product needs none.  Summands are folded in one at a time, as the
    mixed-radix numbering nests.  Any other list of product roots goes
    through ``enumerate_subgame(sum_game(games), roots)``.
    """
    _check_summand_count(summands)
    if prod(map(len, summands)) > node_cap:
        raise LimitExceeded(f"node cap {node_cap} exceeded")
    first = summands[0]
    offsets, targets = first.offsets, first.targets
    order, depths = first.order, first.depths
    for g in summands[1:]:
        offsets, targets = _csr_product(offsets, targets, g.offsets, g.targets)
        m = len(g)
        order = _outer_sum(array("i", [i * m for i in order]), g.order)
        depths = _outer_sum(depths, g.depths)
    return ReachableGraph.from_order(
        itertools.product(*(g.roots for g in summands)),
        _ProductPositions(summands), _ProductIndex(summands),
        offsets, targets, order, depths)


def _csr_product(off1, tg1, off2, tg2):
    """CSR rows of the product of two graphs: node i·N₂ + j moves first in
    the left factor (j fixed), then in the right (i fixed), which is
    ``sum_game``'s option order.

    Left node i gives a block of N₂ rows.  Its offsets, its right-factor
    moves and its left-factor moves are each one packed add (``_lanes``);
    the two kinds of moves are then interleaved row by row.
    """
    n2, e2 = len(off2) - 1, len(tg2)
    offsets, targets = array("i", [0]), array("i")
    right_moves, right_ones = _lanes(tg2), _ones(e2)
    row_ends, row_ones = _lanes(off2[1:]), _ones(n2)
    row_steps = _lanes(array("i", range(1, n2 + 1)))
    spread = {}     # d -> every j of the right factor written d times
    for i in range(len(off1) - 1):
        lo, hi = off1[i], off1[i + 1]
        d = hi - lo
        # row i·N₂ + j ends d·(j + 1) + off2[j + 1] after the block starts
        offsets += _unlanes(row_ends + offsets[-1] * row_ones + d * row_steps,
                            n2)
        right = _unlanes(right_moves + i * n2 * right_ones, e2)
        if not d:
            targets += right
            continue
        if d not in spread:
            spread[d] = _lanes(array("i", [j for j in range(n2)
                                           for _ in range(d)]))
        heads = array("i", [t * n2 for t in tg1[lo:hi]])
        left = _unlanes(_lanes(heads * n2) + spread[d], d * n2)
        for j in range(n2):
            targets += left[j * d:(j + 1) * d]
            targets += right[off2[j]:off2[j + 1]]
    return offsets, targets


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
    entries here are node numbers, depths and row offsets of arrays held
    in memory, far below that."""
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

    def position_keys(self):
        """``grundy.position_key`` of every product position, in node
        order: the dash-joined ``str`` of its summand positions.  Each
        summand position is formatted once and the strings are joined in
        mixed radix, as ``__iter__`` lists the positions."""
        return map("-".join, itertools.product(
            *([str(x) for x in g.positions] for g in self._summands)))


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


def _check_summand_count(games):
    if len(games) < 2:
        raise ValueError("a disjunctive sum needs at least two summands")


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
    (``tame_sum_label``) is cross-checked against every sum label.
    """
    product = sum_graph(summands, node_cap)
    summand_lgs = [sg_labels(graph) for graph in summands]
    summand_reports = [classify(lg) for lg in summand_lgs]

    sum_lg = sg_labels(product)
    sum_report = classify(sum_lg)
    holds = sum_report.verdicts.get(target, False)

    mismatches = []
    if all(r.verdicts["tame"] for r in summand_reports):
        # product node numbers run over the summands' in mixed radix
        components = itertools.product(*(list(zip(lg.g, lg.g_minus))
                                         for lg in summand_lgs))
        predicted = {}
        for x, (comps, lab) in enumerate(zip(components,
                                             zip(sum_lg.g, sum_lg.g_minus))):
            want = predicted.get(comps)
            if want is None:
                want = predicted[comps] = tuple(tame_sum_label(comps))
            if want != lab:
                mismatches.append((product.positions[x], lab, want))
    return ClosureReport(target, summand_reports, sum_report, holds,
                         mismatches, sum_lg)
