"""Seeded random DAG games for the property-test batteries."""

from __future__ import annotations

import random

from .core import ReachableGraph, graph_from_adjacency


def random_dag(rng: random.Random, max_nodes: int = 12,
               edge_prob: float = 0.3) -> ReachableGraph:
    """A random acyclic game graph: nodes 0..n-1, edges only downward."""
    n = rng.randint(1, max_nodes)
    adj = {i: [j for j in range(i) if rng.random() < edge_prob]
           for i in range(n)}
    return graph_from_adjacency(adj, roots=list(adj))
