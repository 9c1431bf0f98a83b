import gc
import itertools
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import grundylab
from grundylab import (
    CandidateSets,
    GameDef,
    Label,
    LimitExceeded,
    NotTameLabel,
    ReachableGraph,
    UnknownPredicate,
    adjoin_misere_terminal,
    check_closure,
    classify,
    disjoint_union,
    enumerate_subgame,
    load_fixture,
    sg_labels,
    sum_graph,
    sum_sg,
    tame_sum_label,
    verify_candidate_sets,
    verify_sg_consistency,
)
from grundylab.classify import _fold_product
from grundylab.core import BoxGraph
from grundylab.fixtures import FIXTURE_NAMES, fixture_graph, fixture_roots
from grundylab.grundy import LabeledGraph, to_csv
from grundylab.random_games import random_dag, random_dag_union
from grundylab.sums import pair_sum_union
from grundylab.suites import SuiteResult, check_xor_pairs, sodo_summands
from grundylab.zoo import make_family

from literal_games import (ref_labels, ref_packed_masks,
                            ref_topological_order, sum_game)
from random_dags import random_dag_stream


def nim_from(*piles):
    return enumerate_subgame(make_family("nim"), [piles])


def test_sum_needs_two_games():
    with pytest.raises(ValueError):
        sum_graph([nim_from(2)])


def test_two_single_piles_nine_nodes():
    graph = sum_graph([nim_from(2), nim_from(2)])
    assert len(graph) == 9


def test_two_unit_piles_diamond():
    graph = sum_graph([nim_from(1), nim_from(1)])
    assert len(graph) == 4
    assert graph.edge_count() == 4


def test_component_shorthand_roots():
    # the sum is rooted at every tuple of summand roots
    left = enumerate_subgame(make_family("nim"), [(2,), (1,)])
    graph = sum_graph([left, nim_from(3)])
    assert graph.roots == {((2,), (3,)), ((1,), (3,))}
    assert len(graph) == 12


def test_sum_roots_of_pile_tuples():
    graph = sum_graph([nim_from(1, 2), nim_from(3, 4)])
    assert ((1, 2), (3, 4)) in graph
    assert len(graph) == 2 * 3 * 4 * 5


def test_sodo_sum_label():
    lg = sg_labels(sum_graph(sodo_summands()))
    assert tuple(lg.labels[("E", "Y")]) == (0, 3)


def test_sum_sg_examples():
    assert sum_sg([3, 5]) == 6
    assert sum_sg([7, 7]) == 0
    assert sum_sg([]) == 0


@given(st.lists(st.integers(min_value=0, max_value=63)))
def test_sum_sg_permutation_invariant(values):
    assert sum_sg(values) == sum_sg(list(reversed(values)))
    assert sum_sg(sorted(values)) == sum_sg(values)


def test_xor_rule_on_random_pairs():
    graphs = list(random_dag_stream(5, 40, max_nodes=8))
    for left, right in zip(graphs[::2], graphs[1::2]):
        comp = [sg_labels(left), sg_labels(right)]
        lg = sg_labels(sum_graph([left, right]))
        for (p0, p1), lab in lg.labels.items():
            assert lab.g == comp[0].labels[p0].g ^ comp[1].labels[p1].g


@pytest.mark.parametrize("node", [0, -1], ids=["first", "last"])
def test_xor_check_reports_a_wrong_product_label(node, monkeypatch):
    # the summands' union has positions (k, i), the sums' union (k, (i, j));
    # each sum's first or last node is flipped
    def corrupted(graph):
        lg = sg_labels(graph)
        positions = graph.positions
        if isinstance(positions[0][1], tuple):
            # the first node of every sum but the first
            firsts = [x for x in range(1, len(graph))
                      if positions[x][0] != positions[x - 1][0]]
            for x in ([0] + firsts if node == 0 else
                      [x - 1 for x in firsts] + [len(graph) - 1]):
                lg.g[x] ^= 1
        return lg

    monkeypatch.setattr("grundylab.suites.sg_labels", corrupted)
    res = SuiteResult("sums", 0)
    check_xor_pairs(res, random.Random(0), 3)
    ((name, ok, detail),) = res.checks
    assert name == "xor_rule_random_pairs" and not ok
    rng, sizes = random.Random(0), []
    for _ in range(3):
        sizes.append([len(random_dag(rng, 8)) for _ in range(2)])
    corner = [(0, 0) if node == 0 else (a - 1, b - 1) for a, b in sizes]
    assert detail == f"3 pairs; violations {list(enumerate(corner))}"


def test_xor_check_sums_the_random_graphs_without_enumerating(monkeypatch):
    # the battery sums random_dag's graphs as they are
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_subgame called")

    original = grundylab.core.enumerate_subgame
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "grundylab":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    assert grundylab.suites.enumerate_subgame is refuse
    res = SuiteResult("sums", 0)
    check_xor_pairs(res, random.Random(0), 3)
    assert res.ok, res.checks


# pair_sum_union writes many small sums into one stored graph; each of its
# components must be sum_graph's product of its pair, row by row

pair_summands = st.one_of(
    st.builds(lambda seed, n: random_dag(random.Random(seed), n, 0.4),
              st.integers(0, 2**32 - 1), st.integers(1, 6)),
    st.sampled_from(FIXTURE_NAMES).map(fixture_graph),
    st.lists(st.integers(0, 2), min_size=1, max_size=2).map(
        lambda piles: nim_from(*piles)),
    st.builds(lambda xs, n: enumerate_subgame(
        make_family("subtraction", {"x": xs}), [(n,)]),
        st.sampled_from([[1, 2], [2, 3], [1, 3, 4]]), st.integers(0, 8)))


def assert_pair_sums(union, starts, pairs):
    """Component k of ``union`` is ``sum_graph(pairs[k])``: the same rows in
    the same order, positions, order, depths, roots and labels."""
    lg = sg_labels(union)
    assert len(starts) == len(pairs) + 1 and starts[-1] == len(union)
    for k, pair in enumerate(pairs):
        product = sum_graph(list(pair))
        want = sg_labels(product)
        lo, hi = starts[k], starts[k + 1]
        assert hi - lo == len(product)
        assert [[y - lo for y in union.row(x)] for x in range(lo, hi)] == [
            list(product.row(x)) for x in range(len(product))]
        assert union.positions[lo:hi] == [(k, p) for p in product.positions]
        assert [x - lo for x in union.order[lo:hi]] == list(product.order)
        assert union.depths[lo:hi] == product.depths
        assert {p for c, p in union.roots if c == k} == product.roots
        assert lg.g[lo:hi] == want.g and lg.g_minus[lo:hi] == want.g_minus
    assert [union.index[p] for p in union.positions] == list(range(len(union)))


@settings(deadline=None)
@given(st.lists(st.tuples(pair_summands, pair_summands), min_size=1,
                max_size=3))
def test_pair_sum_union_components_are_the_pairs_sums(pairs):
    graphs = [g for pair in pairs for g in pair]
    assert_pair_sums(*pair_sum_union(*disjoint_union(graphs)), pairs)


def test_pair_sum_union_of_a_random_union_leaves_an_odd_component_out():
    # random_dag_union draws what successive random_dag calls draw
    graph, starts = random_dag_union(random.Random(3), 7, 8)
    rng = random.Random(3)
    graphs = [random_dag(rng, 8) for _ in range(7)]
    assert_pair_sums(*pair_sum_union(graph, starts),
                     list(zip(graphs[::2], graphs[1::2])))


def test_tame_sum_label_swaps():
    assert tame_sum_label([Label(0, 1), Label(0, 1)]) == Label(0, 1)
    assert tame_sum_label([Label(0, 1), Label(1, 0)]) == Label(1, 0)
    assert tame_sum_label([Label(1, 0)] * 3) == Label(1, 0)


def test_tame_sum_label_nonswap():
    assert tame_sum_label([Label(2, 2), Label(3, 3)]) == Label(1, 1)
    assert tame_sum_label([Label(0, 1), Label(2, 2)]) == Label(2, 2)


def test_tame_sum_label_rejects_wild_input():
    with pytest.raises(NotTameLabel):
        tame_sum_label([Label(0, 2), Label(1, 0)])


swap_label = st.sampled_from([Label(0, 1), Label(1, 0)])


@given(st.lists(swap_label, min_size=1, max_size=8))
def test_tame_sum_label_swap_parity(labels):
    out = tame_sum_label(labels)
    odd = sum(1 for lab in labels if lab == Label(1, 0)) % 2 == 1
    assert out == (Label(1, 0) if odd else Label(0, 1))


def test_tame_sum_matches_brute_force():
    # product of two tame games: every sum label equals the fast path
    comp1 = sg_labels(enumerate_subgame(
        load_fixture("tame_not_miserable"), fixture_roots("tame_not_miserable")))
    comp2 = sg_labels(nim_from(3, 4))
    lg = sg_labels(sum_graph([comp1.graph, comp2.graph]))
    for (p1, p2), lab in lg.labels.items():
        assert tame_sum_label([comp1.labels[p1], comp2.labels[p2]]) == lab


def test_closure_nim_forced():
    report = check_closure("forced", [nim_from(2, 3), nim_from(1, 4)])
    assert report.holds
    assert report.fast_path_ok
    assert report.sum_report.verdicts["miserable"]


def test_closure_domestic_fails_on_sodo():
    report = check_closure("domestic", sodo_summands())
    assert all(r.verdicts["domestic"] for r in report.summand_reports)
    assert not report.holds


def test_closure_pet_fails_on_single_piles():
    report = check_closure("pet", [nim_from(2), nim_from(2)])
    assert all(r.verdicts["pet"] for r in report.summand_reports)
    assert not report.holds
    # the sum acquires a (0,0)-position at the doubled pile
    lg = sg_labels(sum_graph([nim_from(2), nim_from(2)]))
    assert tuple(lg.labels[((2,), (2,))]) == (0, 0)


def test_closure_unknown_target_raises_before_building_the_sum():
    # a node cap of 0 makes building the product raise LimitExceeded
    with pytest.raises(UnknownPredicate, match="'weird'"):
        check_closure("weird", [nim_from(1), nim_from(2)], node_cap=0)
    with pytest.raises(LimitExceeded):
        check_closure("tame", [nim_from(1), nim_from(2)], node_cap=0)


# sum_graph builds the product from the summands' move arrays; the reference
# enumerates the literal product rule object from every tuple of summand
# roots.  Node numbers differ, so every comparison is by position.


def enumerated(games, rootsets):
    return [enumerate_subgame(g, rs) for g, rs in zip(games, rootsets)]


def literal_sum(games, rootsets, roots=None):
    """The reference: ``sum_game`` enumerated from ``roots``, by default
    every tuple of summand roots."""
    if roots is None:
        roots = list(itertools.product(*rootsets))
    return enumerate_subgame(sum_game(games), roots)


def assert_same_graph(got, want):
    assert dict(got.succ) == dict(want.succ)
    assert {x: got.depth(x) for x in got.nodes} == {
        x: want.depth(x) for x in want.nodes}
    assert got.roots == want.roots
    assert [got.index[x] for x in got.positions] == list(range(len(got)))
    topo = {x: i for i, x in enumerate(got.topo)}
    assert all(topo[x] < topo[y] for x, ys in got.succ.items() for y in ys)


def game_of(graph):
    """A rule object whose moves are ``graph``'s."""
    return GameDef("r", {}, lambda p, fr=dict(graph.succ): list(fr[p]))


@st.composite
def random_sums(draw):
    """(summands, games, root lists) for a sum of two or three random DAGs.
    A summand is either the random graph itself, rooted at all its nodes,
    or its subgame below a drawn root list with repeats."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graphs = [random_dag(rng, max_nodes=6, edge_prob=0.4)
              for _ in range(draw(st.integers(2, 3)))]
    summands, rootsets = [], []
    for g in graphs:
        if draw(st.booleans()):
            summands.append(g)
            rootsets.append(list(g.positions))
        else:
            rootsets.append(draw(st.lists(st.sampled_from(g.positions),
                                          min_size=1, max_size=3)))
            summands.append(enumerate_subgame(game_of(g), rootsets[-1]))
    return summands, [game_of(g) for g in graphs], rootsets


@given(random_sums())
def test_sum_graph_matches_literal_product_on_random_dags(case):
    summands, games, rootsets = case
    assert_same_graph(sum_graph(summands), literal_sum(games, rootsets))


SYMMETRIC_PAIRS = [
    ("nim", {}, "wythoff", {}, [[(3, 1, 2), (1, 3, 0)], [(4, 2), (2, 4)]]),
    ("wyt_a", {"a": 2}, "nim", {}, [[(1, 3)], [(2, 0, 1)]]),
    ("extended_nim", {"n": 2, "k": 1}, "ho_nim", {"shape": "cycle", "n": 4},
     [[(1, 2, 1)], [(1, 0, 2, 1)]]),
]


@pytest.mark.parametrize("pair", SYMMETRIC_PAIRS, ids=lambda p: f"{p[0]}+{p[2]}")
def test_sum_graph_matches_literal_product_with_symmetry(pair):
    fa, pa, fb, pb, rootsets = pair
    games = [make_family(fa, pa, use_symmetry=True),
             make_family(fb, pb, use_symmetry=True)]
    summands, want = enumerated(games, rootsets), literal_sum(games, rootsets)
    assert_same_graph(sum_graph(summands), want)
    # both builds stop at the same node cap
    roots = list(itertools.product(*rootsets))
    n = len(want)
    for cap in (1, n // 2, n - 1):
        with pytest.raises(LimitExceeded):
            enumerate_subgame(sum_game(games), roots, node_cap=cap)
        with pytest.raises(LimitExceeded):
            sum_graph(summands, node_cap=cap)
    assert_same_graph(sum_graph(summands, node_cap=n), want)


# every answer computed on the product must equal the one computed on the
# literal sum

CLOSURE_TARGETS = ("domestic", "tame", "pet", "miserable", "forced",
                   "returnable")


@st.composite
def cartesian_sums(draw):
    """A random DAG sum, with the product of its root lists in a random
    order as the reference's roots."""
    summands, games, rootsets = draw(random_sums())
    roots = draw(st.permutations(list(itertools.product(*rootsets))))
    return summands, games, rootsets, roots


SYMMETRIC_SUMMANDS = [("nim", {}, 2), ("wythoff", {}, 2),
                      ("wyt_a", {"a": 2}, 2), ("subtraction", {"x": [1, 3]}, 1),
                      ("nim", {}, 3)]


@st.composite
def symmetric_cartesian_sums(draw):
    """Two or three summands with symmetry, each with a root list that
    holds non-canonical and repeated positions."""
    picks = draw(st.lists(st.sampled_from(SYMMETRIC_SUMMANDS), min_size=2,
                          max_size=3))
    games = [make_family(f, p, use_symmetry=True) for f, p, _ in picks]
    rootsets = [draw(st.lists(st.tuples(*[st.integers(0, 2)] * arity),
                              min_size=1, max_size=3))
                for _, _, arity in picks]
    return games, rootsets


@given(symmetric_cartesian_sums())
def test_sum_game_canonical_is_idempotent(case):
    games, rootsets = case
    canon = sum_game(games).canonical
    for r in itertools.product(*rootsets):
        assert canon(canon(r)) == canon(r)


def assert_same_answers(summands, games, rootsets, roots=None):
    got, want = sum_graph(summands), literal_sum(games, rootsets, roots)
    assert_same_graph(got, want)
    got_lg, want_lg = sg_labels(got), sg_labels(want)
    assert dict(got_lg.labels) == dict(want_lg.labels)
    report = classify(want_lg)
    assert classify(got_lg).to_dict() == report.to_dict()
    assert to_csv(got_lg) == to_csv(want_lg)

    misere = dict(zip(got.positions, sg_labels(
        adjoin_misere_terminal(got)).g))
    assert misere == {x: lab.g_minus for x, lab in want_lg.labels.items()}
    solver = CandidateSets(*(want_lg.vset(*lab)
                             for lab in ((0, 1), (1, 0), (0, 0), (1, 1))))
    for target in ("pet", "miserable", "tame", "domestic"):
        got_v = verify_candidate_sets(got, solver, target)
        want_v = verify_candidate_sets(want, solver, target)
        assert sorted(got_v.failures) == sorted(want_v.failures)
        assert got_v.set_mismatches == want_v.set_mismatches

    summand_lgs = [sg_labels(g) for g in summands]
    summand_reports = [classify(lg).to_dict() for lg in summand_lgs]
    mismatches = []
    if all(r["verdicts"]["tame"] for r in summand_reports):
        for pos, lab in want_lg.labels.items():
            predicted = tame_sum_label([lg.label(p)
                                        for lg, p in zip(summand_lgs, pos)])
            if predicted != lab:
                mismatches.append((pos, tuple(lab), tuple(predicted)))
    for target in CLOSURE_TARGETS:
        closure = check_closure(target, summands)
        assert closure.holds == report.verdicts[target]
        assert closure.sum_report.to_dict() == report.to_dict()
        assert dict(closure.sum_labels.labels) == dict(want_lg.labels)
        assert [r.to_dict() for r in closure.summand_reports] == \
            summand_reports
        assert sorted(closure.label_mismatches) == sorted(mismatches)

    n = len(want)
    for cap in {1, n // 2, n - 1}:
        if cap < n:
            with pytest.raises(LimitExceeded):
                sum_graph(summands, node_cap=cap)
            with pytest.raises(LimitExceeded):
                check_closure("tame", summands, node_cap=cap)
    assert len(sum_graph(summands, node_cap=n)) == n


@settings(deadline=None)  # a case runs check_closure six times
@given(cartesian_sums())
def test_cartesian_product_matches_sum_graph_on_random_dags(case):
    assert_same_answers(*case)


@settings(deadline=None)  # a case runs check_closure six times
@given(symmetric_cartesian_sums())
def test_cartesian_product_matches_sum_graph_with_symmetry(case):
    games, rootsets = case
    assert_same_answers(enumerated(games, rootsets), games, rootsets)


@pytest.mark.parametrize("rootsets", [[[(1, 2), (0, 2)], [(3,)]]],
                         ids=["cartesian"])
def test_tame_cross_check_lists_every_disagreement(rootsets, monkeypatch):
    # a wrong fast path must be reported at every product node, in node order
    monkeypatch.setattr("grundylab.sums.tame_sum_label",
                        lambda labels: Label(99, 99))
    summands = [enumerate_subgame(make_family("nim"), rootsets[0]),
                enumerate_subgame(make_family("subtraction", {"x": [1, 2]}),
                                  rootsets[1])]
    closure = check_closure("tame", summands)
    lg = closure.sum_labels
    assert closure.label_mismatches == [
        (x, (a, b), (99, 99))
        for x, a, b in zip(lg.graph.positions, lg.g, lg.g_minus)]


# the product fold (classify._fold_product) labels the sum from its two
# factors; the reference labels the literal product rule's graph


def folds(product):
    """The fold of ``product`` with each factor as the outer loop, then
    ``sg_labels``' (which picks one), each as (g, g_minus, packed_masks)."""
    width = max(product.depths) + 2
    lg = sg_labels(product)
    return [_fold_product(product, width, outer_is_left)
            for outer_is_left in (True, False)] + [
        (lg.g, lg.g_minus, lg.packed_masks)]


def assert_fold_matches_reference(product, want):
    """Every fold of ``product`` gives each position the label and the
    packed word that the literal product graph ``want`` gives it."""
    succ = dict(want.succ)
    labels = ref_labels(succ, ref_topological_order(succ))
    ref = {x: (labels[x], word)
           for x, word in zip(want.positions, ref_packed_masks(want))}
    assert len(product) == len(want)
    for g, gm, packed in folds(product):
        assert {x: ((g[i], gm[i]), packed[i])
                for i, x in enumerate(product.positions)} == ref


def literal_of(summands):
    """The literal product of whole summand graphs, from their moves."""
    return literal_sum([game_of(g) for g in summands],
                       [list(g.positions) for g in summands])


@settings(deadline=None)
@given(random_sums())
def test_product_fold_equals_the_literal_reference_on_random_dags(case):
    summands, games, rootsets = case
    assert_fold_matches_reference(sum_graph(summands),
                                  literal_sum(games, rootsets))


def _box(family, params, bound):
    return enumerate_subgame(make_family(family, params), [bound])


def _fixture(name):
    return enumerate_subgame(load_fixture(name), fixture_roots(name))


FOLD_SUMS = {
    "nim+wythoff": lambda: [_box("nim", {}, (2, 3)),
                            _box("wythoff", {}, (3, 3))],
    "subtraction+nim": lambda: [_box("subtraction", {"x": [1, 2, 5]}, (12,)),
                                _box("nim", {}, (1, 2))],
    "wythoff+subtraction": lambda: [_box("wythoff", {}, (4, 2)),
                                    _box("subtraction", {"x": [2, 3]}, (9,))],
    # g = g_minus = 7 at the top, its number of options: the widest values
    "nim_piles": lambda: [_box("nim", {}, (5,)), _box("nim", {}, (2,))],
    "fixtures": lambda: [_fixture("tame_not_pet"),
                         _fixture("returnable_not_forced")],
    "fixture+box": lambda: [_fixture("not_returnable"),
                            _box("nim", {}, (2, 2))],
    "single+single": lambda: [_box("nim", {}, (0,)), _box("nim", {}, (0, 0))],
    "single+box": lambda: [_box("nim", {}, (0,)), _box("wythoff", {}, (2, 3))],
    "box+single": lambda: [_box("wythoff", {}, (2, 3)), _box("nim", {}, (0,))],
    "three": lambda: [_box("nim", {}, (2, 1)), _fixture("pet"),
                      _box("subtraction", {"x": [1, 2]}, (4,))],
    "three_with_single": lambda: [_fixture("abc_chain"), _box("nim", {}, (0,)),
                                  _box("wythoff", {}, (1, 2))],
}


@pytest.mark.parametrize("name", FOLD_SUMS)
def test_product_fold_equals_the_literal_reference_on_named_sums(name):
    summands = FOLD_SUMS[name]()
    assert_fold_matches_reference(sum_graph(summands), literal_of(summands))


@pytest.mark.parametrize("name", ["nim+wythoff", "three"])
def test_product_fold_that_keeps_few_lookups(name, monkeypatch):
    # the lookup dict is emptied whenever it is full, and the blocks' dict
    # keeps one outer OR at a time
    monkeypatch.setattr(sys.modules["grundylab.classify"], "_SEEN_CAP", 2)
    monkeypatch.setattr(sys.modules["grundylab.classify"], "_BLOCKS_CAP", 1)
    summands = FOLD_SUMS[name]()
    assert_fold_matches_reference(sum_graph(summands), literal_of(summands))


@st.composite
def repeating_sums(draw):
    """A Nim box and a subtraction game in either order, sometimes with a
    small third summand: sums whose blocks repeat."""
    piles = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2)))
    xs = sorted(draw(st.sets(st.integers(1, 4), min_size=1)))
    summands = [_box("nim", {}, piles),
                _box("subtraction", {"x": xs}, (draw(st.integers(0, 12)),))]
    if draw(st.booleans()):
        summands.reverse()
    if draw(st.booleans()):
        summands.insert(draw(st.integers(0, 2)),
                        draw(st.sampled_from([_box("nim", {}, (2,)),
                                              _box("wythoff", {}, (1, 1))])))
    return summands


@settings(deadline=None)
@given(repeating_sums())
def test_product_fold_of_repeating_blocks_equals_the_literal_reference(
        summands):
    assert_fold_matches_reference(sum_graph(summands), literal_of(summands))


def _counted_blocks(monkeypatch):
    """The outer ORs ``classify._fold_block`` is called with, from now on."""
    module = sys.modules["grundylab.classify"]
    fold_block, ors = module._fold_block, []

    def counted(outer_or, *args):
        ors.append(outer_or)
        return fold_block(outer_or, *args)

    monkeypatch.setattr(module, "_fold_block", counted)
    return ors


def test_product_fold_labels_each_distinct_block_once(monkeypatch):
    product = sum_graph([_box("nim", {}, (6, 6, 6)),
                         _box("subtraction", {"x": [1, 2]}, (30,))])
    # Nim (6,6,6), with more edges per node, is the outer factor: 343
    # blocks of 31 nodes, with 50 distinct outer ORs among them
    (e_nim, _), (e_sub, _) = product.factor_degrees()
    assert e_nim * len(product.right) >= e_sub * len(product.left)
    assert len(product.left) == 343
    ors = _counted_blocks(monkeypatch)
    want = sg_labels(product)
    assert len(ors) == len(set(ors)) == 50
    # with room for the bytes of one outer OR, a block is folded again
    # whenever it follows a fold of another block
    monkeypatch.setattr(sys.modules["grundylab.classify"], "_BLOCKS_CAP",
                        len(ors[0]))
    ors.clear()
    got = sg_labels(product)
    assert len(set(ors)) == 50 < len(ors)
    assert all(a != b for a, b in zip(ors, ors[1:]))
    assert (got.g, got.g_minus, got.packed_masks) == (
        want.g, want.g_minus, want.packed_masks)


def test_product_fold_of_a_sum_with_a_sum_as_summand():
    inner = [_box("nim", {}, (2,)), _fixture("sodo_g1")]
    summands = [sum_graph(inner), _box("wythoff", {}, (2, 1))]
    assert_fold_matches_reference(sum_graph(summands), literal_of(summands))


@settings(deadline=None)
@given(random_sums())
def test_product_rows_equal_its_stored_rows(case):
    # the stored rows are those of the literal sum, compared as positions
    summands, games, rootsets = case
    product, want = sum_graph(summands), literal_sum(games, rootsets)
    positions = product.positions
    for x in range(len(product)):
        assert (tuple(map(positions.__getitem__, product.row(x)))
                == want.succ[positions[x]])
    assert product.edge_count() == want.edge_count()
    assert [(x, list(row)) for x, row in product.node_rows()] == [
        (x, product.row(x)) for x in reversed(product.order)]


@settings(deadline=None)
@given(random_sums())
def test_product_terminals_are_the_literal_sums_terminals(case):
    summands, games, rootsets = case
    product, want = sum_graph(summands), literal_sum(games, rootsets)
    attributes = set(vars(product))
    assert product.terminals() == [x for x in product.positions
                                   if not want.succ[x]]
    assert vars(product).keys() == attributes


def stored_copy(graph):
    """``graph``, which computes its rows, as a graph that stores them, as
    ``sum_graph`` built a product before it folded sums from their
    factors."""
    rows = list(map(graph.row, range(len(graph))))
    return ReachableGraph(graph.roots, graph.positions, graph.index,
                          array("i", itertools.accumulate(map(len, rows),
                                                          initial=0)),
                          array("i", itertools.chain.from_iterable(rows)),
                          graph.order, graph.depths)


def graph_arrays(graph):
    return [list(a) for a in (graph.offsets, graph.targets, graph.order,
                              graph.depths)]


@st.composite
def computed_graphs(draw):
    """A graph that computes its rows: a sum of random DAGs, or a Wythoff
    or a Nim box; and a random DAG to put beside it."""
    summands = draw(random_sums())[0]
    if draw(st.booleans()):
        return sum_graph(summands), summands[0]
    family, piles = draw(st.sampled_from([("wythoff", 2), ("nim", 3)]))
    bound = tuple(draw(st.lists(st.integers(0, 4), min_size=piles,
                                max_size=piles)))
    box = _box(family, {}, bound)
    assert isinstance(box, BoxGraph)
    return box, summands[0]


@settings(deadline=None)
@given(computed_graphs(), st.integers(0, 2**32 - 1))
def test_whole_graph_readers_see_a_product_as_its_stored_rows(case, seed):
    computed, other = case
    stored = stored_copy(computed)
    lg = sg_labels(computed)
    # labels with a few values raised or lowered, so that checks fail
    rng = random.Random(seed)
    g, gm = array("i", lg.g), array("i", lg.g_minus)
    for values in (g, gm):
        for x in rng.sample(range(len(computed)), min(3, len(computed))):
            values[x] = max(0, values[x] + rng.choice((-1, 1, 2)))
    for labels in ((lg.g, lg.g_minus), (g, gm)):
        assert verify_sg_consistency(LabeledGraph(computed, *labels)) \
            .violations == verify_sg_consistency(
                LabeledGraph(stored, *labels)).violations
    # the true V sets, each with one position added or taken away
    positions = list(computed.positions)
    cand = CandidateSets(*(lg.vset(*label) ^ {rng.choice(positions)}
                           for label in ((0, 1), (1, 0), (0, 0), (1, 1))))
    for target in ("pet", "miserable", "tame", "domestic"):
        got, want = (verify_candidate_sets(graph, cand, target)
                     for graph in (computed, stored))
        assert (got.failures, got.set_mismatches) == (
            want.failures, want.set_mismatches)
    got = adjoin_misere_terminal(computed)
    want = adjoin_misere_terminal(stored)
    assert graph_arrays(got) == graph_arrays(want)
    assert sg_labels(got).g == sg_labels(want).g
    (got, got_starts), (want, want_starts) = (
        disjoint_union([graph, other, graph]) for graph in (computed, stored))
    assert got_starts == want_starts
    assert graph_arrays(got) == graph_arrays(want)
    assert list(got.positions) == list(want.positions)
    assert got.roots == want.roots
    assert computed.terminals() == stored.terminals()
    assert computed.edge_count() == stored.edge_count()
    # every reader ran, and none left rows stored on the graph
    assert not hasattr(computed, "offsets")
    assert not hasattr(computed, "targets")


def test_product_fold_memory_per_node():
    # about 10^5 nodes: each of the 50 distinct blocks among the 343 keeps
    # one lane int of 9 bytes per inner node (the value fields are as wide
    # as the most options of a node plus 2: 20 + 2), shared by the blocks
    # that repeat it, and the product's rows are never built
    product = sum_graph([_box("nim", {}, (6, 6, 6)),
                         _box("subtraction", {"x": [1, 2]}, (300,))])
    assert len(product) == 103_243
    sg_labels(product)  # the words' memo holds this product's labels
    gc.collect()
    tracemalloc.start()
    try:
        lg = sg_labels(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a)
                 for a in (lg.g, lg.g_minus, lg.packed_masks))
    assert (peak - arrays) / len(product) <= 24


def test_product_fold_memory_per_node_when_no_block_repeats(monkeypatch):
    # Nim pile k's block holds (k, 0), whose g is k, so no two of the 31
    # blocks are alike; each keeps its lane int, 12 bytes per node, and its
    # outer OR as a key, as long as the keys stay below _BLOCKS_CAP
    product = sum_graph([_box("nim", {}, (30,)),
                         _box("subtraction", {"x": [1, 2]}, (1000,))])
    assert len(product) == 31_031
    ors = _counted_blocks(monkeypatch)
    sg_labels(product)
    assert len(ors) == len(set(ors)) == 31
    monkeypatch.undo()
    del ors
    gc.collect()
    tracemalloc.start()
    try:
        lg = sg_labels(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a)
                 for a in (lg.g, lg.g_minus, lg.packed_masks))
    assert (peak - arrays) / len(product) <= 48
