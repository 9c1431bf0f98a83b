"""Seeded streams of random DAG games for the property tests."""

import random

from grundylab.random_games import random_dag


def random_dag_stream(seed: int, count: int, max_nodes: int = 12,
                      edge_prob: float = 0.3):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_dag(rng, max_nodes, edge_prob)
