"""Seeded streams of random DAG games for the property tests."""

import random

from hypothesis import strategies as st

from grundylab.random_games import random_dag


def random_dag_stream(seed: int, count: int, max_nodes: int = 12,
                      edge_prob: float = 0.3):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_dag(rng, max_nodes, edge_prob)


# lists of one to eight random DAGs of one to twelve nodes each; a bound of
# one node draws a one-node graph
dag_lists = st.lists(
    st.builds(lambda seed, n, p: random_dag(random.Random(seed), n, p),
              st.integers(0, 2**32 - 1), st.integers(1, 12),
              st.floats(0.2, 0.6)),
    min_size=1, max_size=8)
