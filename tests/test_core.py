import dataclasses
import gc
import itertools
import random
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from grundylab import (
    CycleDetected,
    GameDef,
    LimitExceeded,
    MISERE_TERMINAL,
    UnknownPosition,
    adjoin_misere_terminal,
    disjoint_union,
    enumerate_subgame,
    graph_from_adjacency,
    sg_labels,
    sum_graph,
)
from grundylab import sums
from grundylab.core import (BoxGraph, DEFAULT_NODE_CAP, GameError,
                            ReachableGraph)
from grundylab.fixtures import (FIXTURE_NAMES, fixture_adjacency,
                                fixture_roots, load_fixture)
from grundylab.grundy import misere_via_adjoined_terminal
from grundylab.random_games import random_dag, random_dag_union
from grundylab.suites import UNION_BATCH
from grundylab.zoo import TABLE, box_roots, make_family

from literal_games import moves, ref_labels, ref_topological_order
from random_dags import dag_lists


def one_pile_nim():
    return GameDef("nim", {}, lambda p: [(v,) for v in range(p[0])])


def breadth_first(family, params=None, **kwargs):
    """A zoo family without its box moves, so that its enumeration keeps
    breadth-first numbering and the ordering DFS that the references pin."""
    return dataclasses.replace(make_family(family, params, **kwargs),
                               box_moves=None)


def test_moves_deduplicates():
    game = GameDef("dup", {}, lambda p: [(0,), (0,), (1,)])
    assert moves(game, (2,)) == [(0,), (1,)]


def test_canonical_applied_to_moves():
    game = GameDef("sorted", {}, lambda p: [(2, 1), (1, 2)],
                   canonical=lambda p: tuple(sorted(p)))
    assert moves(game, (3, 3)) == [(1, 2)]


def test_is_terminal():
    game = one_pile_nim()
    assert not moves(game, (0,))
    assert moves(game, (3,))


def test_enumerate_single_pile():
    graph = enumerate_subgame(one_pile_nim(), [(3,)])
    assert len(graph) == 4
    assert graph.terminals() == [(0,)]
    assert graph.edge_count() == 3 + 2 + 1


def test_depth_is_longest_move_count():
    graph = enumerate_subgame(one_pile_nim(), [(5,)])
    assert graph.depth((5,)) == 5
    assert graph.depth((0,)) == 0
    with pytest.raises(UnknownPosition):
        graph.depth((9,))


def test_topological_order_parents_first():
    graph = enumerate_subgame(one_pile_nim(), [(4,)])
    index = {x: i for i, x in enumerate(graph.topo)}
    for x, opts in graph.succ.items():
        for y in opts:
            assert index[x] < index[y]


def test_cycle_detected():
    adj = {"a": ["b"], "b": ["c"], "c": ["a"]}
    with pytest.raises(CycleDetected):
        graph_from_adjacency(adj)


def test_self_loop_detected():
    game = GameDef("loop", {}, lambda p: [p])
    with pytest.raises(CycleDetected):
        enumerate_subgame(game, [(1,)])


def test_node_cap():
    with pytest.raises(LimitExceeded):
        enumerate_subgame(one_pile_nim(), [(100,)], node_cap=10)


def test_adjacency_root_inference():
    adj = {"r": ["a", "b"], "a": [], "b": ["a"]}
    graph = graph_from_adjacency(adj)
    assert graph.roots == frozenset({"r"})


def test_adjacency_rejects_dangling_edge():
    with pytest.raises(UnknownPosition):
        graph_from_adjacency({"a": ["missing"]})


def test_adjoin_terminal_shape():
    graph = enumerate_subgame(one_pile_nim(), [(2,)])
    extended = adjoin_misere_terminal(graph)
    assert len(extended) == len(graph) + 1
    assert extended.succ[(0,)] == (MISERE_TERMINAL,)
    assert extended.succ[MISERE_TERMINAL] == ()
    # non-terminal successor lists are unchanged
    assert extended.succ[(2,)] == graph.succ[(2,)]


def test_misere_sentinel_repr():
    assert repr(MISERE_TERMINAL) == "x_T"


def test_adjacency_keeps_repeated_successor_once():
    graph = graph_from_adjacency({"a": ["b", "b", "c"], "b": ["c"], "c": []})
    assert graph.succ["a"] == ("b", "c")
    assert graph.edge_count() == 3


# --- reference: the dict-based closure, DFS order and depth pass -------------

def ref_depths(succ, topo):
    depth = {}
    for x in reversed(topo):
        opts = succ[x]
        depth[x] = 1 + max(depth[y] for y in opts) if opts else 0
    return depth


def ref_enumerate(game, roots, node_cap=10**9):
    root_set = list(dict.fromkeys(game.canon(r) for r in roots))
    succ = {}
    queue = deque(root_set)
    while queue:
        x = queue.popleft()
        if x in succ:
            continue
        opts = tuple(moves(game, x))
        succ[x] = opts
        if len(succ) > node_cap:
            raise LimitExceeded(f"node cap {node_cap} exceeded")
        for y in opts:
            if y not in succ:
                queue.append(y)
    topo = ref_topological_order(succ)
    return root_set, succ, topo, ref_depths(succ, topo)


def ref_graph_from_adjacency(adj, roots=None):
    succ = {x: tuple(ys) for x, ys in adj.items()}
    if roots is None:
        targets = {y for ys in succ.values() for y in ys}
        roots = [x for x in succ if x not in targets] or list(succ)
    topo = ref_topological_order(succ)
    return roots, succ, topo, ref_depths(succ, topo)


def assert_matches_reference(graph, ref):
    roots, succ, topo, depth = ref
    assert list(graph.succ.items()) == list(succ.items())
    assert graph.topo == topo
    assert [graph.depth(x) for x in topo] == [depth[x] for x in topo]
    assert graph.roots == frozenset(roots)
    assert graph.terminals() == [x for x, opts in succ.items() if not opts]
    assert graph.edge_count() == sum(map(len, succ.values()))
    assert (list(sg_labels(graph).labels.items())
            == list(ref_labels(succ, topo).items()))


def assert_same_outcome(build, reference):
    """Both raise the same GameError with the same message, or both build
    the same graph."""
    try:
        ref = reference()
    except GameError as exc:
        with pytest.raises(type(exc)) as got:
            build()
        assert str(got.value) == str(exc)
        return None
    graph = build()
    assert_matches_reference(graph, ref)
    return graph


def assert_caps_match(game, roots, n):
    for cap in sorted({1, n // 2, n - 1}):
        if cap < n:
            with pytest.raises(LimitExceeded):
                ref_enumerate(game, roots, node_cap=cap)
            with pytest.raises(LimitExceeded, match=f"node cap {cap} "):
                enumerate_subgame(game, roots, node_cap=cap)
    assert_matches_reference(enumerate_subgame(game, roots, node_cap=n),
                             ref_enumerate(game, roots, node_cap=n))


@st.composite
def random_moves(draw, acyclic=True):
    """Option lists on nodes 0..n-1 that may repeat a node, plus a root list
    that may repeat one too."""
    n = draw(st.integers(1, 14))
    moves = {}
    for i in range(n):
        pool = range(i) if acyclic else range(n)
        moves[i] = (draw(st.lists(st.sampled_from(pool), max_size=6))
                    if pool else [])
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return moves, roots


def rule(moves):
    return GameDef("r", {}, lambda p: list(moves[p]))


@settings(max_examples=200, deadline=None)
@given(random_moves())
def test_enumerate_matches_reference_on_random_dags(case):
    moves, roots = case
    game = rule(moves)
    graph = assert_same_outcome(lambda: enumerate_subgame(game, roots),
                                lambda: ref_enumerate(game, roots))
    assert_caps_match(game, roots, len(graph))


@settings(max_examples=200, deadline=None)
@given(random_moves(acyclic=False))
def test_enumerate_matches_reference_on_cyclic_rules(case):
    moves, roots = case
    game = rule(moves)
    assert_same_outcome(lambda: enumerate_subgame(game, roots),
                        lambda: ref_enumerate(game, roots))


def test_cycle_message_matches_reference():
    game = GameDef("cycle", {}, lambda p: [(p + 1) % 3])
    with pytest.raises(CycleDetected) as want:
        ref_enumerate(game, [0])
    with pytest.raises(CycleDetected) as got:
        enumerate_subgame(game, [0])
    assert (str(got.value) == str(want.value)
            == "position 0 recurs on the expansion path")


@settings(max_examples=200, deadline=None)
@given(random_moves(acyclic=False), st.booleans())
def test_adjacency_matches_reference(case, infer_roots):
    moves, roots = case
    # the reference keeps repeated successors; graph_from_adjacency does not
    adj = {x: list(dict.fromkeys(ys)) for x, ys in moves.items()}
    roots = None if infer_roots else roots
    graph = assert_same_outcome(lambda: graph_from_adjacency(adj, roots),
                                lambda: ref_graph_from_adjacency(adj, roots))
    if graph is not None:
        want = {x: opts or (MISERE_TERMINAL,) for x, opts in graph.succ.items()}
        want[MISERE_TERMINAL] = ()
        assert_matches_reference(adjoin_misere_terminal(graph),
                                 ref_graph_from_adjacency(want, graph.roots))


@pytest.mark.parametrize("summands", [
    [(one_pile_nim(), [(3,)]), (one_pile_nim(), [(2,)])],
    [(breadth_first("subtraction", {"x": [1, 3]}), [(7,)]),
     (load_fixture("pet"), fixture_roots("pet")),
     (breadth_first("nim"), [(1, 2)])],
], ids=["two", "three"])
def test_adjoined_product_matches_reference(summands):
    product = sum_graph([enumerate_subgame(game, roots)
                         for game, roots in summands])
    want = {x: opts or (MISERE_TERMINAL,) for x, opts in product.succ.items()}
    want[MISERE_TERMINAL] = ()
    assert_matches_reference(adjoin_misere_terminal(product),
                             ref_graph_from_adjacency(want, product.roots))


def test_adjoined_views_behave_as_a_list_and_a_dict():
    graph = enumerate_subgame(make_family("nim"), [(2, 1)])
    adjoined = adjoin_misere_terminal(graph)
    positions = [*graph.positions, MISERE_TERMINAL]
    index = {x: i for i, x in enumerate(positions)}
    assert list(adjoined.positions) == positions
    assert len(adjoined.positions) == len(positions)
    assert [adjoined.positions[i] for i in range(-len(positions),
                                                  len(positions))] == 2 * positions
    with pytest.raises(IndexError):
        adjoined.positions[len(positions)]
    assert list(adjoined.index) == list(index)
    assert len(adjoined.index) == len(index)
    assert dict(adjoined.index) == index
    assert MISERE_TERMINAL in adjoined and (2, 1) in adjoined
    assert (3, 3) not in adjoined and "x_T" not in adjoined
    with pytest.raises(KeyError):
        adjoined.index[(3, 3)]


def test_adjoining_a_product_never_lists_its_positions(monkeypatch):
    summands = [enumerate_subgame(one_pile_nim(), [(3,)]),
                enumerate_subgame(make_family("nim"), [(1, 2)])]
    product = sum_graph(summands)
    want = sg_labels(product).g_minus

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} iterated")

    monkeypatch.setattr(sums._ProductPositions, "__iter__", refuse)
    monkeypatch.setattr(sums._ProductIndex, "__iter__", refuse)
    adjoined = adjoin_misere_terminal(product)
    n = len(product)
    assert len(adjoined) == n + 1 and len(adjoined.index) == n + 1
    assert adjoined.positions[n] is MISERE_TERMINAL
    assert adjoined.positions[n - 1] == product.positions[n - 1]
    assert adjoined.index[MISERE_TERMINAL] == n
    assert adjoined.index[((0,), (0, 0))] == product.index[((0,), (0, 0))]
    assert MISERE_TERMINAL in adjoined and ((3,), (1, 2)) in adjoined
    assert misere_via_adjoined_terminal(product) == want


# --- disjoint unions ---------------------------------------------------------


def union_mismatches(union, starts, graphs) -> list:
    """The indices k of ``graphs`` whose component of ``union``, nodes
    ``starts[k]`` to ``starts[k + 1] - 1``, is not graph k with every
    node number shifted by ``starts[k]`` and every position p as (k, p)."""
    bad = [] if len(starts) == len(graphs) + 1 else [len(graphs)]
    if starts[-1] != len(union):
        bad.append(len(graphs))
    for k, (g, lo, hi) in enumerate(zip(graphs, starts, starts[1:])):
        nodes = range(lo, hi)
        same = (len(nodes) == len(g)
                and [union.positions[x] for x in nodes]
                == [(k, p) for p in g.positions]
                and all(union.index[(k, p)] == lo + i
                        for p, i in g.index.items())
                and [list(union.targets[union.offsets[x]:union.offsets[x + 1]])
                     for x in nodes]
                == [[lo + y for y in g.targets[g.offsets[i]:g.offsets[i + 1]]]
                    for i in range(len(g))]
                and list(union.order[lo:hi]) == [lo + x for x in g.order]
                and union.depths[lo:hi] == g.depths)
        if not same:
            bad.append(k)
    roots = {(k, r) for k, g in enumerate(graphs) for r in g.roots}
    if union.roots != roots:
        bad.append(len(graphs))
    return bad


@settings(max_examples=200, deadline=None)
@given(dag_lists)
def test_union_components_are_the_graphs_shifted(graphs):
    union, starts = disjoint_union(graphs)
    assert union_mismatches(union, starts, graphs) == []
    assert len(union.positions) == len(union.index) == len(union)
    assert union.edge_count() == sum(g.edge_count() for g in graphs)
    for stored in (union.offsets, union.targets, union.order, union.depths,
                   starts):
        assert type(stored) is array and stored.typecode == "i"


def test_union_takes_any_iterable_of_graphs():
    graphs = [random_dag(random.Random(s), 6) for s in range(5)]
    union, starts = disjoint_union(iter(graphs))
    assert union_mismatches(union, starts, graphs) == []
    assert disjoint_union([])[1] == array("i", [0])


def test_shifted_starts_fail_the_comparison():
    graphs = [random_dag(random.Random(s), 6) for s in range(5)]
    union, starts = disjoint_union(graphs)
    shifted = array("i", [starts[0], *(s + 1 for s in starts[1:-1]),
                          starts[-1]])
    assert union_mismatches(union, shifted, graphs) != []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       samples=st.integers(1, 2 * UNION_BATCH + 10),
       max_nodes=st.integers(1, 12), edge_prob=st.floats(0, 1))
@example(seed=0, samples=UNION_BATCH, max_nodes=12, edge_prob=0.3)
@example(seed=3, samples=UNION_BATCH + 1, max_nodes=12, edge_prob=0.3)
@example(seed=2, samples=2500, max_nodes=12, edge_prob=0.3)
def test_batch_drawer_equals_the_union_of_a_random_dag_stream(
        seed, samples, max_nodes, edge_prob):
    # batches as the equalities suite draws them, one generator for all
    drawer, stream = random.Random(seed), random.Random(seed)
    for first in range(0, samples, UNION_BATCH):
        count = min(UNION_BATCH, samples - first)
        union, starts = random_dag_union(drawer, count, max_nodes, edge_prob)
        want, want_starts = disjoint_union(
            random_dag(stream, max_nodes, edge_prob) for _ in range(count))
        assert union.positions == want.positions
        assert union.index == want.index
        assert union.roots == want.roots
        for got, expected in ((union.offsets, want.offsets),
                              (union.targets, want.targets),
                              (union.order, want.order),
                              (union.depths, want.depths),
                              (starts, want_starts)):
            assert type(got) is array and got.typecode == "i"
            assert got == expected
    # the same draws: both generators are in the same state
    assert drawer.getstate() == stream.getstate()


# --- kernel edge cases: label widths, deep chains, marks -------------------


def test_labels_reach_the_out_degree_bound():
    # single-pile nim: g = out-degree at every node, the widest a mex gets
    game = one_pile_nim()
    graph = enumerate_subgame(game, [(300,)])
    assert_matches_reference(graph, ref_enumerate(game, [(300,)]))
    lg = sg_labels(graph)
    offsets = graph.offsets
    assert list(lg.g) == [offsets[i + 1] - offsets[i]
                          for i in range(len(graph))]
    assert max(lg.g) == 300


@pytest.mark.parametrize("family,params,root", [
    ("mark", {}, (20_000,)),
    ("subtraction", {"x": [1, 2]}, (10_000,)),
], ids=["mark", "subtraction"])
def test_deep_chains_match_reference(family, params, root):
    game = breadth_first(family, params)
    graph = enumerate_subgame(game, [root])
    assert_matches_reference(graph, ref_enumerate(game, [root]))
    assert graph.depth(root) > 1_000 > max(
        graph.offsets[i + 1] - graph.offsets[i] for i in range(len(graph)))


@pytest.mark.parametrize("roots", [[None, "a"], ["top"], ["a", None]])
def test_enumerate_with_none_as_a_position(roots):
    game = rule({"top": [None, "a", None], None: ["a", 0, "a"],
                 "a": [0, ()], 0: [()], (): []})
    graph = enumerate_subgame(game, roots)
    assert None in graph
    assert_matches_reference(graph, ref_enumerate(game, roots))


def test_node_repeated_within_a_row_and_in_the_next():
    # node 2 repeats in row 0 and is taken again, twice, by row 1
    game = rule({0: [1, 2, 2, 1], 1: [2, 3, 2], 2: [3], 3: []})
    graph = enumerate_subgame(game, [0])
    assert rows(graph)[:2] == [[1, 2], [2, 3]]
    assert_matches_reference(graph, ref_enumerate(game, [0]))


# enumerate_subgame canonicalises an option only when the raw option is not
# already a node; the reference canonicalises every option first


def ref_enumerate_canonicalising(game, roots, node_cap=DEFAULT_NODE_CAP):
    positions = list(dict.fromkeys(game.canon(r) for r in roots))
    root_count = len(positions)
    index = {x: i for i, x in enumerate(positions)}
    offsets, targets = array("i", [0]), array("i")
    i = 0
    while i < len(positions):
        if len(positions) > node_cap:
            raise LimitExceeded(f"node cap {node_cap} exceeded")
        ids = []
        for y in map(game.canonical, game.options(positions[i])):
            j = index.get(y)
            if j is None:
                j = index[y] = len(positions)
                positions.append(y)
            ids.append(j)
        targets.extend(dict.fromkeys(ids))
        offsets.append(len(targets))
        i += 1
    return ReachableGraph(positions[:root_count], positions, index,
                          offsets, targets)


# the symmetry hooks of zoo.TABLE: pile sorting, sorting all but the first
# pile, and least rotation
HOOKS = [TABLE["nim"].symmetry({}), TABLE["extended_nim"].symmetry({}),
         TABLE["ho_nim"].symmetry({"shape": "cycle"})]


@st.composite
def symmetric_rules(draw):
    """A rule on small tuples with a symmetry hook, acyclic or not, whose
    option lists hold raw (non-canonical) and repeated positions, and a root
    list that may repeat a position or give it in non-canonical form."""
    arity = draw(st.integers(1, 3))
    side = draw(st.integers(1, 3 if arity < 3 else 2))
    raw = list(itertools.product(range(side + 1), repeat=arity))
    acyclic = draw(st.booleans())
    moves = {}
    for p in raw:
        pool = [y for y in raw if sum(y) < sum(p)] if acyclic else raw
        moves[p] = (draw(st.lists(st.sampled_from(pool), max_size=5))
                    if pool else [])
    game = GameDef("r", {}, lambda p: list(moves[p]),
                   draw(st.sampled_from(HOOKS)))
    return game, draw(st.lists(st.sampled_from(raw), min_size=1, max_size=4))


def enumeration_outcome(build):
    """The graph's arrays and roots, or the error type and message."""
    try:
        g = build()
    except GameError as exc:
        return type(exc), str(exc)
    return (list(g.positions), g.offsets, g.targets, g.order, g.depths,
            g.roots)


@settings(max_examples=300, deadline=None)
@given(symmetric_rules())
def test_enumerate_with_symmetry_matches_canonicalising_reference(case):
    game, roots = case
    full = enumeration_outcome(lambda: ref_enumerate_canonicalising(game,
                                                                    roots))
    n = len(full[0]) if isinstance(full[0], list) else 8
    for cap in sorted({DEFAULT_NODE_CAP, 1, n // 2, n - 1, n}):
        assert (enumeration_outcome(
                    lambda: enumerate_subgame(game, roots, node_cap=cap))
                == enumeration_outcome(
                    lambda: ref_enumerate_canonicalising(game, roots, cap)))


ZOO_GAMES = [
    ("nim", {}, [(3, 2, 2)]),
    ("wythoff", {}, box_roots(2, 6)),
    ("wythoff", {}, [(7, 5)]),
    ("moore_nim", {"n": 3, "k": 2}, [(2, 3, 1)]),
    ("extended_nim", {"n": 2, "k": 1}, [(1, 2, 3)]),
    ("ho_nim", {"shape": "cycle", "n": 5}, [(2, 1, 2, 0, 1)]),
    ("subtraction", {"x": (1, 3, 4)}, [(30,), (12,)]),
    ("mark", {}, [(25,)]),
    ("euclid_grossman", {}, [(5, 8), (3, 7)]),
    ("wyt_a", {"a": 2}, [(6, 4)]),
]


@pytest.mark.parametrize("symmetry", [False, True], ids=["raw", "symmetry"])
@pytest.mark.parametrize("family,params,roots", ZOO_GAMES,
                         ids=[f"{g[0]}{i}" for i, g in enumerate(ZOO_GAMES)])
def test_enumerate_matches_reference_on_zoo(family, params, roots, symmetry):
    game = breadth_first(family, params, use_symmetry=symmetry)
    graph = enumerate_subgame(game, roots)
    assert_matches_reference(graph, ref_enumerate(game, roots))
    assert_caps_match(game, roots, len(graph))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_enumerate_matches_reference_on_fixtures(name):
    game, roots = load_fixture(name), fixture_roots(name)
    assert_matches_reference(enumerate_subgame(game, roots),
                             ref_enumerate(game, roots))
    adj = fixture_adjacency(name)
    assert_matches_reference(graph_from_adjacency(adj),
                             ref_graph_from_adjacency(adj))


# every row is GameDef.moves in first-seen order, whether an option repeats
# as the same raw position or as two raw positions of one canonical form


@st.composite
def repeating_rules(draw):
    """An acyclic rule on pairs whose option lists repeat raw options and
    hold mirrored pairs, with or without a symmetry hook under which a pair
    and its mirror are one position, and a root list."""
    side = draw(st.integers(1, 3))
    raw = list(itertools.product(range(side + 1), repeat=2))
    moves = {}
    for p in raw:
        pool = [y for y in raw if sum(y) < sum(p)]
        opts = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        if opts:
            again = st.lists(st.sampled_from(opts), max_size=4)
            opts += draw(again) + [y[::-1] for y in draw(again)]
        moves[p] = draw(st.permutations(opts))
    canonical = HOOKS[0] if draw(st.booleans()) else None
    game = GameDef("r", {}, lambda p: list(moves[p]), canonical)
    return game, draw(st.lists(st.sampled_from(raw), min_size=1, max_size=4))


def rows(graph):
    positions, offsets = graph.positions, graph.offsets
    return [[positions[j] for j in graph.targets[offsets[i]:offsets[i + 1]]]
            for i in range(len(graph))]


@settings(max_examples=100, deadline=None)
@given(repeating_rules())
def test_enumerate_rows_are_moves_in_first_seen_order(case):
    game, roots = case
    graph = enumerate_subgame(game, roots)
    assert rows(graph) == [moves(game, x) for x in graph.positions]


@settings(max_examples=100, deadline=None)
@given(random_moves(), st.booleans())
def test_adjacency_rows_keep_first_seen_successors(case, string_nodes):
    moves, _ = case
    name = (lambda i: f"n{i}") if string_nodes else (lambda i: i)
    adj = {name(x): [name(y) for y in ys] for x, ys in moves.items()}
    graph = graph_from_adjacency(adj)
    assert list(graph.positions) == list(adj)
    assert rows(graph) == [list(dict.fromkeys(ys)) for ys in adj.values()]


def test_graph_and_label_arrays_stay_int_arrays():
    wythoff = enumerate_subgame(make_family("wythoff"), box_roots(2, 5))
    graphs = [wythoff, graph_from_adjacency(fixture_adjacency("pet")),
              adjoin_misere_terminal(wythoff),
              sum_graph([wythoff, enumerate_subgame(one_pile_nim(), [(3,)])])]
    for graph in graphs:
        lg = sg_labels(graph)
        arrays = [graph.order, graph.depths, lg.g, lg.g_minus]
        if not isinstance(graph, (BoxGraph, sums.ProductGraph)):
            arrays += [graph.targets, graph.offsets]    # its stored rows
        for stored in arrays:
            assert type(stored) is array and stored.typecode == "i"


def test_graph_memory_per_edge():
    game = make_family("wythoff")
    roots = box_roots(2, 60)
    gc.collect()
    tracemalloc.start()
    try:
        graph = enumerate_subgame(game, roots)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert graph.edge_count() == 297_070
    assert held / graph.edge_count() <= 8
