"""Seeded random DAG games for the property-test batteries."""

from __future__ import annotations

import random
from array import array

from .core import ReachableGraph


def _draw_rows(rng, max_nodes, edge_prob, offsets, targets, depths) -> int:
    """Draw one random DAG's node count and rows onto the arrays and return
    the count.

    With base the node count already drawn, node base + i's options are
    drawn among base, ..., base + i - 1 in ascending order, one
    ``rng.random()`` each, and its depth follows from theirs.
    """
    n = rng.randint(1, max_nodes)
    base = len(depths)
    random, depth = rng.random, depths.__getitem__
    for i in range(base, base + n):
        row = [j for j in range(base, i) if random() < edge_prob]
        targets.fromlist(row)
        offsets.append(len(targets))
        depths.append(max(map(depth, row)) + 1 if row else 0)
    return n


def random_dag(rng: random.Random, max_nodes: int = 12,
               edge_prob: float = 0.3) -> ReachableGraph:
    """A random acyclic game graph: nodes 0..n-1, edges only downward.

    Node i's options are drawn in ascending order.  Every move lowers the
    node number, so n-1, ..., 0 is a parents-first order (the one the
    ordering DFS would find), and depths follow in one ascending pass.
    """
    offsets, targets, depths = array("i", [0]), array("i"), array("i")
    nodes = list(range(_draw_rows(rng, max_nodes, edge_prob, offsets,
                                  targets, depths)))
    return ReachableGraph(nodes, nodes, dict(zip(nodes, nodes)), offsets,
                          targets, array("i", reversed(nodes)), depths)


def random_dag_union(rng: random.Random, count: int, max_nodes: int = 12,
                     edge_prob: float = 0.3) -> tuple[ReachableGraph, array]:
    """``core.disjoint_union`` of ``count`` successive ``random_dag(rng,
    max_nodes, edge_prob)`` graphs, drawn straight into the union's arrays:
    the same draws, and the same graph and ``starts``, with no graph of
    its own built for a component."""
    offsets, targets, depths = array("i", [0]), array("i"), array("i")
    order, starts, positions = array("i"), array("i", [0]), []
    for k in range(count):
        n = _draw_rows(rng, max_nodes, edge_prob, offsets, targets, depths)
        base = starts[-1]
        positions += [(k, i) for i in range(n)]
        order.extend(range(base + n - 1, base - 1, -1))
        starts.append(base + n)
    index = dict(zip(positions, range(len(positions))))
    # every position is a root; the index's keys carry their hashes
    return (ReachableGraph(index, positions, index, offsets, targets,
                           order, depths), starts)
