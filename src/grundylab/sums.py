"""Disjunctive sums: product games, the XOR rule, and the tame-sum swap law."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import xor

from .core import (BadSumRoot, GameDef, NotTameLabel, ReachableGraph,
                   enumerate_subgame)
from .grundy import Label, LabeledGraph, sg_labels
from .classify import ClassReport, classify


def sum_game(games: list[GameDef]) -> GameDef:
    """Product rule object: a position is a tuple of component positions and
    a move is a move in exactly one component."""
    if len(games) < 2:
        raise ValueError("a disjunctive sum needs at least two summands")

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


def sum_graph(games: list[GameDef], roots: list, **kwargs) -> ReachableGraph:
    """Explicit product subgame reachable from the product roots.

    ``roots`` is a list of product roots, each a tuple with one position
    per summand.  The summands are enumerated first and the product reads
    their move arrays; the result equals
    ``enumerate_subgame(sum_game(games), roots)``.
    """
    root_tuples = _product_roots(games, roots)
    summands = _summand_graphs(games, root_tuples, **kwargs)
    return _product_graph(games, summands, root_tuples, **kwargs)


def _summand_graphs(games, root_tuples, **kwargs) -> list[ReachableGraph]:
    """Each summand's subgame, from the component roots of every product root."""
    return [enumerate_subgame(g, dict.fromkeys(r[i] for r in root_tuples),
                              **kwargs)
            for i, g in enumerate(games)]


def _product_graph(games, summands, root_tuples, **kwargs) -> ReachableGraph:
    """Enumerate the sum with every component move read from ``summands``.

    A summand's move arrays hold its canonical, deduplicated moves, so the
    product's options come out in ``sum_game``'s order and need no further
    canonicalisation; only the roots are canonicalised, per summand.
    """
    tables = [(g.index, g.positions, g.offsets, g.targets) for g in summands]

    def options(pos):
        out = []
        for i, (index, positions, offsets, targets) in enumerate(tables):
            head, tail = pos[:i], pos[i + 1:]
            k = index[pos[i]]
            for y in targets[offsets[k]:offsets[k + 1]]:
                out.append(head + (positions[y],) + tail)
        return out

    product = replace(sum_game(games), options=options, canonical=None)
    roots = [tuple(g.canon(p) for g, p in zip(games, r)) for r in root_tuples]
    return enumerate_subgame(product, roots, **kwargs)


def _product_roots(games, roots) -> list:
    """``roots`` as a list, after checking each has one position per summand."""
    roots = list(roots)
    for r in roots:
        if not isinstance(r, tuple) or len(r) != len(games):
            raise BadSumRoot(f"sum root {r!r} is not a tuple of "
                             f"{len(games)} summand positions")
    return roots


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


@dataclass
class ClosureReport:
    target: str
    summand_reports: list
    sum_report: ClassReport
    holds: bool
    label_mismatches: list
    sum_labels: LabeledGraph  # the labelled product the verdicts came from

    @property
    def fast_path_ok(self) -> bool:
        return not self.label_mismatches


def check_closure(target: str, games: list[GameDef], roots: list,
                  **kwargs) -> ClosureReport:
    """Classify the explicit sum and report whether ``target`` survives.

    Each summand and the product are enumerated, labelled and classified
    once.  For tame or miserable summands the theorem-derived fast path
    (``tame_sum_label``) is cross-checked against every sum label.
    """
    root_tuples = _product_roots(games, roots)
    summands = _summand_graphs(games, root_tuples, **kwargs)
    summand_lgs = [sg_labels(graph) for graph in summands]
    summand_reports = [classify(lg) for lg in summand_lgs]

    sum_lg = sg_labels(_product_graph(games, summands, root_tuples, **kwargs))
    sum_report = classify(sum_lg)
    holds = sum_report.verdicts.get(target, False)

    mismatches = []
    if all(r.verdicts["tame"] for r in summand_reports):
        for pos, lab in sum_lg.labels.items():
            comp_labels = [lg.label(p) for lg, p in zip(summand_lgs, pos)]
            predicted = tame_sum_label(comp_labels)
            if tuple(predicted) != tuple(lab):
                mismatches.append((pos, tuple(lab), tuple(predicted)))
    return ClosureReport(target, summand_reports, sum_report, holds,
                         mismatches, sum_lg)
