import random

import pytest
from hypothesis import given, strategies as st

from grundylab import (
    BadSumRoot,
    GameDef,
    Label,
    LimitExceeded,
    NotTameLabel,
    check_closure,
    enumerate_subgame,
    load_fixture,
    sg_labels,
    sum_game,
    sum_graph,
    sum_sg,
    tame_sum_label,
)
from grundylab.fixtures import fixture_roots
from grundylab.random_games import random_dag, random_dag_stream
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
