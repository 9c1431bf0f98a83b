import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from grundylab import (
    BadSumRoot,
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
    product_graph,
    sg_labels,
    sum_game,
    sum_graph,
    sum_sg,
    tame_sum_label,
    verify_candidate_sets,
)
from grundylab.fixtures import fixture_roots
from grundylab.grundy import to_csv
from grundylab.random_games import random_dag, random_dag_stream
from grundylab.suites import SuiteResult, check_xor_pairs
from grundylab.zoo import make_family


def one_pile(n):
    return make_family("nim"), [(n,)]


def test_sum_needs_two_games():
    game = make_family("nim")
    with pytest.raises(ValueError):
        sum_game([game])


def test_two_single_piles_nine_nodes():
    game = make_family("nim")
    graph = sum_graph([game, game], [((2,), (2,))])
    assert len(graph) == 9


def test_two_unit_piles_diamond():
    game = make_family("nim")
    graph = sum_graph([game, game], [((1,), (1,))])
    assert len(graph) == 4
    assert graph.edge_count() == 4


def test_component_shorthand_roots():
    game = make_family("nim")
    graph = sum_graph([game, game], [((2,), (2,))])
    assert len(graph) == 9


def test_sum_root_of_the_wrong_length_is_an_error():
    nim = make_family("nim")
    roots = [(1, 2, 3), (4, 5, 6)]
    with pytest.raises(BadSumRoot, match=r"\(1, 2, 3\)"):
        sum_graph([nim, nim], roots)
    with pytest.raises(BadSumRoot):
        check_closure("tame", [nim, nim], roots)


def test_sum_roots_of_pile_tuples():
    nim = make_family("nim")
    graph = sum_graph([nim, nim], [((1, 2), (3, 4))])
    assert ((1, 2), (3, 4)) in graph
    assert len(graph) == 2 * 3 * 4 * 5


def test_sodo_sum_label():
    g1, g2 = load_fixture("sodo_g1"), load_fixture("sodo_g2")
    lg = sg_labels(sum_graph([g1, g2], [("E", "Y")]))
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
        games, nodesets = [], []
        for graph in (left, right):
            frozen = dict(graph.succ)
            games.append(GameDef("r", {}, lambda p, fr=frozen: list(fr[p])))
            nodesets.append(list(frozen))
        comp = [sg_labels(enumerate_subgame(g, ns))
                for g, ns in zip(games, nodesets)]
        roots = [(a, b) for a in nodesets[0] for b in nodesets[1]]
        lg = sg_labels(sum_graph(games, roots))
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
    g1 = load_fixture("tame_not_miserable")
    g2 = make_family("nim")
    roots = [(r, (3, 4)) for r in fixture_roots("tame_not_miserable")]
    comp1 = sg_labels(enumerate_subgame(
        g1, fixture_roots("tame_not_miserable")))
    comp2 = sg_labels(enumerate_subgame(g2, [(3, 4)]))
    lg = sg_labels(sum_graph([g1, g2], roots))
    for (p1, p2), lab in lg.labels.items():
        assert tame_sum_label([comp1.labels[p1], comp2.labels[p2]]) == lab


def test_closure_nim_forced():
    nim = make_family("nim")
    report = check_closure("forced", [nim, nim], [((2, 3), (1, 4))])
    assert report.holds
    assert report.fast_path_ok
    assert report.sum_report.verdicts["miserable"]


def test_closure_domestic_fails_on_sodo():
    g1, g2 = load_fixture("sodo_g1"), load_fixture("sodo_g2")
    report = check_closure("domestic", [g1, g2], [("E", "Y")])
    assert all(r.verdicts["domestic"] for r in report.summand_reports)
    assert not report.holds


def test_closure_pet_fails_on_single_piles():
    nim = make_family("nim")
    report = check_closure("pet", [nim, nim], [((2,), (2,))])
    assert all(r.verdicts["pet"] for r in report.summand_reports)
    assert not report.holds
    # the sum acquires a (0,0)-position at the doubled pile
    lg = sg_labels(sum_graph([nim, nim], [((2,), (2,))]))
    assert tuple(lg.labels[((2,), (2,))]) == (0, 0)


# sum_graph reads the summands' move tables; the reference enumerates the
# literal product rule object


def assert_same_graph(got, want):
    assert list(got.succ.items()) == list(want.succ.items())
    assert got.topo == want.topo
    assert got.roots == want.roots
    assert [got.depth(x) for x in want.topo] == [want.depth(x) for x in want.topo]


@st.composite
def random_sums(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graphs = [random_dag(rng, max_nodes=6, edge_prob=0.4)
              for _ in range(draw(st.integers(2, 3)))]
    games = [GameDef("r", {}, lambda p, fr=dict(g.succ): list(fr[p]))
             for g in graphs]
    root = st.tuples(*(st.sampled_from(sorted(g.succ)) for g in graphs))
    return games, draw(st.lists(root, min_size=1, max_size=4))


@given(random_sums())
def test_sum_graph_matches_literal_product_on_random_dags(case):
    games, roots = case
    assert_same_graph(sum_graph(games, roots),
                      enumerate_subgame(sum_game(games), roots))


SYMMETRIC_PAIRS = [
    ("nim", {}, "wythoff", {}, [((3, 1, 2), (4, 2)), ((1, 3, 0), (2, 4))]),
    ("wyt_a", {"a": 2}, "nim", {}, [((1, 3), (2, 0, 1))]),
    ("extended_nim", {"n": 2, "k": 1}, "ho_nim", {"shape": "cycle", "n": 4},
     [((1, 2, 1), (1, 0, 2, 1))]),
]


@pytest.mark.parametrize("pair", SYMMETRIC_PAIRS, ids=lambda p: f"{p[0]}+{p[2]}")
def test_sum_graph_matches_literal_product_with_symmetry(pair):
    fa, pa, fb, pb, roots = pair
    games = [make_family(fa, pa, use_symmetry=True),
             make_family(fb, pb, use_symmetry=True)]
    want = enumerate_subgame(sum_game(games), roots)
    assert_same_graph(sum_graph(games, roots), want)
    # both builds stop at the same node cap
    n = len(want)
    for cap in (1, n // 2, n - 1):
        with pytest.raises(LimitExceeded):
            enumerate_subgame(sum_game(games), roots, node_cap=cap)
        with pytest.raises(LimitExceeded):
            sum_graph(games, roots, node_cap=cap)
    assert_same_graph(sum_graph(games, roots, node_cap=n), want)


# product_graph numbers a Cartesian product in mixed radix instead of
# enumerating it; every answer must equal the one sum_graph gives

CLOSURE_TARGETS = ("domestic", "tame", "pet", "miserable", "forced",
                   "returnable")


def random_games(draw, count):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graphs = [random_dag(rng, max_nodes=6, edge_prob=0.4)
              for _ in range(count)]
    games = [GameDef("r", {}, lambda p, fr=dict(g.succ): list(fr[p]))
             for g in graphs]
    return games, [sorted(g.succ) for g in graphs]


@st.composite
def cartesian_sums(draw):
    """Random DAG summands, roots the product of component root lists with
    repeats, in a random order."""
    games, nodes = random_games(draw, draw(st.integers(2, 3)))
    parts = [draw(st.lists(st.sampled_from(ns), min_size=1, max_size=3))
             for ns in nodes]
    return games, draw(st.permutations(list(itertools.product(*parts))))


SYMMETRIC_SUMMANDS = [("nim", {}, 2), ("wythoff", {}, 2),
                      ("wyt_a", {"a": 2}, 2), ("subtraction", {"x": [1, 3]}, 1),
                      ("nim", {}, 3)]


@st.composite
def symmetric_cartesian_sums(draw):
    """Summands with symmetry, roots the product of component root lists
    that hold non-canonical and repeated positions."""
    picks = draw(st.lists(st.sampled_from(SYMMETRIC_SUMMANDS), min_size=2,
                          max_size=3))
    games = [make_family(f, p, use_symmetry=True) for f, p, _ in picks]
    parts = [draw(st.lists(st.tuples(*[st.integers(0, 2)] * arity),
                           min_size=1, max_size=3))
             for _, _, arity in picks]
    return games, list(itertools.product(*parts))


@given(symmetric_cartesian_sums())
def test_sum_game_canonical_is_idempotent(case):
    games, roots = case
    canon = sum_game(games).canonical
    for r in roots:
        assert canon(canon(r)) == canon(r)


def assert_same_answers(games, roots):
    got, want = product_graph(games, roots), sum_graph(games, roots)
    assert dict(got.succ) == dict(want.succ)
    assert {x: got.depth(x) for x in got.nodes} == {
        x: want.depth(x) for x in want.nodes}
    assert got.roots == want.roots
    assert [got.index[x] for x in got.positions] == list(range(len(got)))
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

    summands = [sg_labels(enumerate_subgame(g, dict.fromkeys(r[i]
                                                            for r in roots)))
                for i, g in enumerate(games)]
    summand_reports = [classify(lg).to_dict() for lg in summands]
    mismatches = []
    if all(r["verdicts"]["tame"] for r in summand_reports):
        for pos, lab in want_lg.labels.items():
            predicted = tame_sum_label([lg.label(p)
                                        for lg, p in zip(summands, pos)])
            if predicted != lab:
                mismatches.append((pos, tuple(lab), tuple(predicted)))
    for target in CLOSURE_TARGETS:
        closure = check_closure(target, games, roots)
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
                product_graph(games, roots, node_cap=cap)
            with pytest.raises(LimitExceeded):
                check_closure("tame", games, roots, node_cap=cap)
    assert len(product_graph(games, roots, node_cap=n)) == n


@settings(deadline=None)  # a case runs check_closure six times
@given(cartesian_sums())
def test_cartesian_product_matches_sum_graph_on_random_dags(case):
    assert_same_answers(*case)


@settings(deadline=None)  # a case runs check_closure six times
@given(symmetric_cartesian_sums())
def test_cartesian_product_matches_sum_graph_with_symmetry(case):
    assert_same_answers(*case)


@st.composite
def diagonal_roots(draw):
    """Two roots differing in every summand: not a Cartesian product."""
    games, nodes = random_games(draw, draw(st.integers(2, 3)))
    assume(all(len(ns) >= 2 for ns in nodes))
    pairs = [draw(st.lists(st.sampled_from(ns), min_size=2, max_size=2,
                           unique=True)) for ns in nodes]
    return games, list(zip(*pairs))


@settings(deadline=None)  # a case runs check_closure six times
@given(diagonal_roots())
def test_non_cartesian_roots_keep_the_enumerated_product(case):
    games, roots = case
    assert_same_graph(product_graph(games, roots), sum_graph(games, roots))
    assert_same_answers(games, roots)


@pytest.mark.parametrize("roots", [[((1, 2), (3,)), ((0, 2), (3,))],
                                   [((1, 2), (3,)), ((0, 2), (2,))]],
                         ids=["cartesian", "diagonal"])
def test_tame_cross_check_lists_every_disagreement(roots, monkeypatch):
    # a wrong fast path must be reported at every product node, in node order
    monkeypatch.setattr("grundylab.sums.tame_sum_label",
                        lambda labels: Label(99, 99))
    games = [make_family("nim"), make_family("subtraction", {"x": [1, 2]})]
    closure = check_closure("tame", games, roots)
    lg = closure.sum_labels
    assert closure.label_mismatches == [
        (x, (a, b), (99, 99))
        for x, a, b in zip(lg.graph.positions, lg.g, lg.g_minus)]
