"""Seeded random DAG games for the property-test batteries."""

from __future__ import annotations

import random
from array import array

from .core import ReachableGraph


def random_dag(rng: random.Random, max_nodes: int = 12,
               edge_prob: float = 0.3) -> ReachableGraph:
    """A random acyclic game graph: nodes 0..n-1, edges only downward.

    Node i's options are drawn in ascending order.  Every move lowers the
    node number, so n-1, ..., 0 is a parents-first order (the one the
    ordering DFS would find), and depths follow in one ascending pass.
    """
    n = rng.randint(1, max_nodes)
    offsets, targets, depths = array("i", [0]), array("i"), []
    for i in range(n):
        row = [j for j in range(i) if rng.random() < edge_prob]
        targets.fromlist(row)
        offsets.append(len(targets))
        depths.append(max(map(depths.__getitem__, row), default=-1) + 1)
    nodes = list(range(n))
    return ReachableGraph(nodes, nodes, dict(zip(nodes, nodes)), offsets,
                          targets, array("i", reversed(nodes)),
                          array("i", depths))
