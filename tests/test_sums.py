import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import grundylab
from grundylab import (
    CandidateSets,
    GameDef,
    Label,
    LimitExceeded,
    NotTameLabel,
    adjoin_misere_terminal,
    check_closure,
    classify,
    enumerate_subgame,
    load_fixture,
    sg_labels,
    sum_game,
    sum_graph,
    sum_sg,
    tame_sum_label,
    verify_candidate_sets,
)
from grundylab.fixtures import fixture_roots
from grundylab.grundy import to_csv
from grundylab.random_games import random_dag
from grundylab.suites import SuiteResult, check_xor_pairs, sodo_summands
from grundylab.zoo import make_family

from random_dags import random_dag_stream


def nim_from(*piles):
    return enumerate_subgame(make_family("nim"), [piles])


def test_sum_needs_two_games():
    game = make_family("nim")
    with pytest.raises(ValueError):
        sum_game([game])
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
    # random DAG nodes are integers, product nodes tuples of them
    def corrupted(graph):
        lg = sg_labels(graph)
        if isinstance(graph.positions[0], tuple):
            lg.g[node] ^= 1
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
