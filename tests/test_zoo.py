import contextlib
import dataclasses
import gc
import io
import itertools
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from grundylab import (
    InvalidParams,
    LimitExceeded,
    UnsupportedParams,
    classify,
    enumerate_subgame,
    mex,
    sg_labels,
)
from grundylab.classify import _WORD_BITS, _fold_shifts, _or_label, fold_rows
from grundylab.cli import main
from grundylab.core import BoxGraph, ReachableGraph, graph_from_adjacency
from grundylab.suites import (
    WYT_AB_PAIRS,
    SuiteResult,
    check_beatty,
    check_p_sets,
    check_wythoff,
    check_wyt_ab,
    subtraction_sets,
    suite_wythoff,
    suite_wyt_ab,
)
from grundylab.zoo import (
    FAMILIES,
    TABLE,
    BeattyPair,
    box_roots,
    euclid_swap_oracle,
    ferguson_check,
    floor_phi_n,
    ho_nim_hyperedges,
    make_family,
    mex_b,
    moore_swap_oracle,
    nim_swap_oracle,
    slow_swap_oracle,
    wyt_a_p,
    wyt_a_sequence,
    wyt_ab_p,
    wyt_ab_sequence,
    wythoff_p,
)
from literal_games import (moves, ref_labels, ref_packed_masks,
                           ref_topological_order)


def labels(family, params, roots, sym=False):
    game = make_family(family, params, use_symmetry=sym)
    return sg_labels(enumerate_subgame(game, roots))


def swap_or_none(lab):
    return tuple(lab) if lab.is_swap else None


# --- move rules --------------------------------------------------------------

def test_grossman_moves_stay_positive():
    game = make_family("euclid_grossman")
    assert set(moves(game, (2, 6))) == {(2, 4), (2, 2)}
    assert moves(game, (3, 3)) == []


def test_cd_moves_may_empty_a_pile():
    game = make_family("euclid_cd")
    assert set(moves(game, (2, 6))) == {(2, 4), (2, 2), (2, 0)}
    assert moves(game, (0, 5)) == []


def test_mark_moves():
    game = make_family("mark")
    assert set(moves(game, (8,))) == {(7,), (4,)}
    assert moves(game, (0,)) == []
    assert set(moves(game, (1,))) == {(0,)}


def test_ho_nim_cycle_moves():
    game = make_family("ho_nim", {"shape": "cycle", "n": 4})
    opts = set(moves(game, (1, 0, 0, 1)))
    # the wrap-around hyperedge covers both occupied blocks
    assert {(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)} <= opts


def test_exact_nim_short_positions_terminal():
    game = make_family("exact_nim", {"n": 5, "k": 2})
    assert moves(game, (1, 0, 0, 0, 0)) == []
    assert moves(game, (1, 1, 0, 0, 0)) != []


def test_slow_nim_unit_steps():
    game = make_family("slow_nim", {"n": 3, "k": 2})
    assert set(moves(game, (1, 1, 0))) == {(0, 1, 0), (1, 0, 0), (0, 0, 0)}


def test_extended_nim_lone_extra_pile_move():
    game = make_family("extended_nim", {"n": 3, "k": 2})
    assert set(moves(game, (1, 0, 0, 0))) == {(0, 0, 0, 0)}


def test_wythoff_moves():
    game = make_family("wythoff")
    opts = set(moves(game, (2, 2)))
    assert (0, 0) in opts and (1, 1) in opts
    assert (1, 2) in opts and (2, 0) in opts
    assert len(opts) == 6


def test_subtraction_params_validated():
    with pytest.raises(InvalidParams):
        make_family("subtraction", {"x": ()})
    with pytest.raises(InvalidParams):
        make_family("subtraction", {"x": (0, 2)})


def test_unknown_family():
    with pytest.raises(InvalidParams):
        make_family("chess")


def test_multi_pile_param_validation():
    with pytest.raises(InvalidParams):
        make_family("moore_nim", {"n": 3, "k": 4})
    with pytest.raises(InvalidParams):
        make_family("extended_nim", {"n": 3, "k": 3})
    with pytest.raises(InvalidParams):
        make_family("ho_nim", {"shape": "cycle", "n": 2})
    with pytest.raises(InvalidParams):
        make_family("ho_nim", {"shape": "donut"})


# valid parameters of every family, and a small box side for its positions
FAMILY_SAMPLES = {
    "nim": [({}, 2)],
    "moore_nim": [({"n": 3, "k": 1}, 2), ({"n": 3, "k": 3}, 2)],
    "extended_nim": [({"n": 3, "k": 2}, 2)],
    "exact_nim": [({"n": 3, "k": 2}, 2)],
    "slow_nim": [({"n": 3, "k": 2}, 2)],
    "subtraction": [({"x": (4, 1, 1)}, 9)],
    "euclid_cd": [({}, 5)],
    "euclid_grossman": [({}, 5)],
    "wythoff": [({}, 5)],
    "wyt_a": [({"a": 2}, 5)],
    "wyt_ab": [({"a": 0, "b": 1}, 4), ({"a": 2, "b": 3}, 5)],
    "mark": [({}, 9)],
    "ho_nim": [({"shape": "cycle", "n": 4}, 2), ({"shape": "path", "n": 3}, 2),
               ({"shape": "conj1"}, 1), ({"shape": "conj2"}, 1)],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_arity_and_symmetry(family):
    """Every position of a small box and each of its options has the
    family's arity, and the symmetry hook commutes with the move rule."""
    for params, side in FAMILY_SAMPLES[family]:
        arity = TABLE[family].arity(params)
        plain = make_family(family, params)
        sym = make_family(family, params, use_symmetry=True)
        for p in box_roots(3 if arity is None else arity, side):
            options = plain.options(p)
            if arity is not None:
                assert all(len(y) == arity for y in options), (params, p)
            assert (set(moves(sym, sym.canon(p)))
                    == {sym.canon(y) for y in options}), (params, p)


SYMMETRIC_SAMPLES = [(family, params) for family in FAMILIES
                     for params, _ in FAMILY_SAMPLES[family]
                     if make_family(family, params,
                                    use_symmetry=True).canonical]


@pytest.mark.parametrize("family,params", SYMMETRIC_SAMPLES,
                         ids=[f"{f}{i}" for i, (f, _) in
                              enumerate(SYMMETRIC_SAMPLES)])
@given(data=st.data())
def test_symmetry_hook_is_idempotent(family, params, data):
    # enumeration trusts a raw option that is already a node to be canonical
    arity = TABLE[family].arity(params)
    size = data.draw(st.integers(0, 6) if arity is None else st.just(arity))
    p = tuple(data.draw(st.lists(st.integers(0, 40), min_size=size,
                                 max_size=size)))
    canon = make_family(family, params, use_symmetry=True).canonical
    assert canon(canon(p)) == canon(p)


@pytest.mark.parametrize("family,params", [
    ("moore_nim", {"n": "3", "k": 2}),
    ("moore_nim", {"n": 3, "k": True}),
    ("exact_nim", {"n": 3}),
    ("extended_nim", {"n": 2, "k": 2}),
    ("ho_nim", {"shape": "cycle", "n": "5"}),
    ("ho_nim", {"shape": "path"}),
    ("ho_nim", {"shape": "conj1", "n": -1}),
    ("subtraction", {"x": ["1", 2]}),
    ("subtraction", {"x": [1.5]}),
    ("subtraction", {"x": "12"}),
    ("subtraction", {"x": [True, 2]}),
    ("wyt_a", {"a": "2"}),
    ("wyt_a", {"a": 2.0}),
    ("wyt_a", {"a": True}),
    ("wyt_a", {"a": 0}),
    ("wyt_a", {"a": None}),
    ("wyt_ab", {"a": 2, "b": "1"}),
    ("wyt_ab", {"a": 1.5, "b": 1}),
])
def test_bad_params_rejected(family, params):
    with pytest.raises(InvalidParams):
        make_family(family, params)


def test_ho_nim_hyperedges_shapes():
    assert ho_nim_hyperedges("cycle", 4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert ho_nim_hyperedges("path", 4) == [(0, 1), (1, 2), (2, 3)]
    assert len(ho_nim_hyperedges("conj1")) == 4
    assert len(ho_nim_hyperedges("conj2")) == 4


# --- Beatty / Wythoff oracles ------------------------------------------------

def test_floor_phi_small_values():
    assert [floor_phi_n(n) for n in range(7)] == [0, 1, 3, 4, 6, 8, 9]


def test_beatty_pair_identity():
    for n in range(200):
        pair = BeattyPair(n)
        assert pair.y == pair.x + n


def test_beatty_matches_recursion():
    res = SuiteResult("wythoff", 0)
    check_beatty(res, 1999)
    assert res.ok, res.checks


def test_wythoff_p_examples():
    assert wythoff_p(0) == (0, 0)
    assert wythoff_p(2) == (3, 5)
    assert wythoff_p(0, "misere") == (0, 1)
    assert wythoff_p(1, "misere") == (2, 2)
    assert wythoff_p(2, "misere") == (3, 5)
    with pytest.raises(InvalidParams):
        wythoff_p(1, "optimal")


def test_wythoff_3_5_is_00():
    lg = labels("wythoff", {}, [(3, 5)])
    assert tuple(lg.labels[(3, 5)]) == (0, 0)


def test_wyt_a_examples():
    assert wyt_a_p(2, 0) == (0, 0)
    assert wyt_a_p(2, 1) == (1, 3)
    assert wyt_a_p(2, 0, "misere") == (0, 1)
    with pytest.raises(InvalidParams):
        wyt_a_p(1, 0)


def test_wyt_a_marks_solver_p_positions():
    res = SuiteResult("wyt_a", 0)
    for a in (2, 3):
        lg = labels("wyt_a", {"a": a}, box_roots(2, 20))
        check_p_sets(res, f"a{a}_{{}}", lg, "wyt_a", {"a": a}, 20)
    assert res.ok, res.checks


@pytest.mark.parametrize("convention", ["normal", "misere"])
@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_wyt_a_sequence_is_the_solvers_p_positions(a, convention):
    lg = labels("wyt_a", {"a": a}, box_roots(2, 30))
    value = "g" if convention == "normal" else "g_minus"
    solver = {(x, y) for (x, y), lab in lg.labels.items()
              if x <= y and getattr(lab, value) == 0}
    sequence = {(x, y) for x, y in wyt_a_sequence(a, 30, convention)
                if y <= 30}
    assert sequence == solver


def test_mex_b_examples():
    assert mex_b(3, set()) == 0
    assert mex_b(2, {0, 1, 4}) == 3
    with pytest.raises(InvalidParams):
        mex_b(0, {1})


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mex_1_is_mex(values):
    assert mex_b(1, values) == mex(values)


def _literal_mex_b_sequence(a, b, upto, convention):
    """The recursion as written: x_n = mex_b of every earlier coordinate."""
    if convention == "normal":
        pairs, extra = [(0, 0)], 0
    elif a == 1:
        pairs, extra = [(b + 1, b + 1)], 0
    else:
        pairs, extra = [(0, 1)], 1
    for n in range(1, upto + 1):
        x = mex_b(b, [c for pair in pairs for c in pair])
        pairs.append((x, x + a * n + extra))
    return pairs


# no misere recursion is known for a = 0
@pytest.mark.parametrize("a,b,convention", [
    (a, b, convention) for a in range(5) for b in range(1, 5)
    for convention in ("normal", "misere") if a or convention == "normal"])
def test_wyt_ab_sequence_equals_literal_mex_b_recursion(a, b, convention):
    assert (wyt_ab_sequence(a, b, 400, convention)
            == _literal_mex_b_sequence(a, b, 400, convention))


def test_wyt_ab_11_is_wythoff():
    for n in range(51):
        assert wyt_ab_p(1, 1, n) == wythoff_p(n)


def test_wyt_ab_01_is_two_pile_nim():
    for n, (x, y) in enumerate(wyt_ab_sequence(0, 1, 30)):
        assert (x, y) == (n, n)


def test_wyt_ab_misere_starts():
    assert wyt_ab_p(1, 2, 0, "misere") == (3, 3)
    assert wyt_ab_p(2, 2, 0, "misere") == (0, 1)
    with pytest.raises(UnsupportedParams):
        wyt_ab_sequence(0, 2, 5, "misere")


def test_wyt_ab_marks_solver_p_positions():
    res = SuiteResult("wyt_ab", 0)
    for a, b in ((2, 1), (1, 2), (2, 2)):
        check_wyt_ab(res, labels("wyt_ab", {"a": a, "b": b}, box_roots(2, 20)),
                     a, b, 20)
    assert res.ok, res.checks


@pytest.mark.parametrize("family, suite, checks", [
    ("wythoff", suite_wythoff, {"normal_p_set", "misere_p_set"}),
    ("wyt_ab", suite_wyt_ab, {f"a{a}_b{b}_{conv}" for a, b in WYT_AB_PAIRS
                              for conv in ("normal", "misere")}),
])
def test_suites_check_the_table_p_sequences(monkeypatch, family, suite,
                                            checks):
    """The suites expect the P-sequence of ``TABLE``, the one ``table
    --p-sequence`` prints: dropping an in-box pair from it fails them."""
    record = TABLE[family]

    def dropped(params, upto, convention):
        pairs = record.p_sequence(params, upto, convention)
        return pairs[:1] + pairs[2:]

    monkeypatch.setitem(TABLE, family, record._replace(p_sequence=dropped))
    failed = {name for name, ok, _ in suite(samples=100).checks if not ok}
    assert failed == checks


def test_p_set_checks_fail_when_a_box_position_is_missing():
    """The expected P-sets come from the sequences and the box alone, so a
    position that enumeration left out fails the checks."""
    for family, params, check, missing in (
            ("wythoff", {}, lambda res, lg: check_wythoff(res, lg, 20),
             (1, 2)),
            ("wyt_ab", {"a": 2, "b": 2},
             lambda res, lg: check_wyt_ab(res, lg, 2, 2, 20),
             wyt_ab_p(2, 2, 2))):
        lg = labels(family, params, [(20, 20)])
        res = SuiteResult(family, 0)
        check(res, lg)
        assert res.ok, res.checks
        kept = [x for x, p in enumerate(lg.graph.positions) if p != missing]
        dropped = SimpleNamespace(
            graph=SimpleNamespace(positions=[lg.graph.positions[x]
                                             for x in kept]),
            g=[lg.g[x] for x in kept], g_minus=[lg.g_minus[x] for x in kept])
        res = SuiteResult(family, 0)
        check(res, dropped)
        assert not res.ok, (family, missing)


# --- swap oracles ------------------------------------------------------------

def test_nim_swap_oracle_examples():
    assert nim_swap_oracle((1, 1, 0)) == (0, 1)
    assert nim_swap_oracle((1, 0, 0)) == (1, 0)
    assert nim_swap_oracle((2, 0, 0)) is None


def test_nim_swap_oracle_vs_solver():
    lg = labels("nim", {}, [(3, 3, 3)], sym=True)
    for x, lab in lg.labels.items():
        assert nim_swap_oracle(x) == swap_or_none(lab)


def test_moore_swap_oracle_examples():
    assert moore_swap_oracle(4, 2, (1, 1, 1, 0)) == (0, 1)
    assert moore_swap_oracle(4, 2, (1, 0, 0, 0)) == (1, 0)
    assert moore_swap_oracle(4, 2, (2, 0, 0, 0)) is None
    with pytest.raises(InvalidParams):
        moore_swap_oracle(3, 3, (1, 1, 1))


def test_moore_swap_oracle_vs_solver():
    lg = labels("moore_nim", {"n": 4, "k": 2}, [(2, 2, 2, 2)], sym=True)
    for x, lab in lg.labels.items():
        assert moore_swap_oracle(4, 2, x) == swap_or_none(lab)


def test_euclid_swap_oracle_examples():
    assert euclid_swap_oracle("cd", (5, 5)) == (1, 0)
    assert euclid_swap_oracle("cd", (0, 7)) == (0, 1)
    assert euclid_swap_oracle("grossman", (4, 4)) == (0, 1)
    assert euclid_swap_oracle("grossman", (3, 6)) == (1, 0)
    # consecutive Fibonacci pairs beyond (x,2x) are swaps as well
    assert euclid_swap_oracle("grossman", (2, 3)) == (0, 1)
    assert euclid_swap_oracle("grossman", (3, 5)) == (1, 0)
    assert euclid_swap_oracle("grossman", (4, 6)) == (0, 1)
    assert euclid_swap_oracle("grossman", (2, 5)) is None
    with pytest.raises(InvalidParams):
        euclid_swap_oracle("nivasch", (1, 1))


def test_euclid_swap_oracle_vs_solver():
    lg = labels("euclid_cd", {}, box_roots(2, 12))
    for x, lab in lg.labels.items():
        assert euclid_swap_oracle("cd", x) == swap_or_none(lab)
    lg = labels("euclid_grossman", {}, box_roots(2, 12, floor=1))
    for x, lab in lg.labels.items():
        assert euclid_swap_oracle("grossman", x) == swap_or_none(lab)


def test_slow_swap_oracle_examples():
    assert slow_swap_oracle(3, 3, (0, 0, 4)) == (0, 1)
    assert slow_swap_oracle(3, 2, (2, 2, 5)) == (1, 0)
    with pytest.raises(UnsupportedParams):
        slow_swap_oracle(4, 2, (1, 1, 2, 3))


def test_slow_swap_oracle_vs_solver():
    for n, k in ((3, 3), (3, 2), (4, 4), (4, 3)):
        lg = labels("slow_nim", {"n": n, "k": k}, [(4,) * n], sym=True)
        for x, lab in lg.labels.items():
            assert slow_swap_oracle(n, k, x) == swap_or_none(lab), (n, k, x)


def test_slow_nim_4_2_counterexample():
    lg = labels("slow_nim", {"n": 4, "k": 2}, [(1, 1, 2, 3)])
    assert tuple(lg.labels[(1, 1, 2, 3)]) == (4, 0)


def test_exact_nim_counterexample():
    lg = labels("exact_nim", {"n": 5, "k": 2}, [(1, 2, 3, 3, 3)])
    assert tuple(lg.labels[(1, 2, 3, 3, 3)]) == (0, 2)


def test_mark_8_is_02():
    lg = labels("mark", {}, [(8,)])
    assert tuple(lg.labels[(8,)]) == (0, 2)


# --- subtraction battery -----------------------------------------------------

def test_ferguson_examples():
    assert ferguson_check({1}, 20).ok
    assert ferguson_check({2, 3}, 50).ok
    assert ferguson_check({1, 4, 7}, 100).ok


def test_ferguson_random_sets():
    for xs in subtraction_sets(random.Random(0), 25):
        assert ferguson_check(xs, 150).ok, xs


def ferguson_reference(xs, bound, mex):
    """Ferguson's shift and escape laws checked heap by heap, as they are
    stated, with ``mex`` giving each heap's value."""
    xs = sorted(xs)
    k, g, failures = xs[0], [], []
    for n in range(bound + 1):
        g.append(mex(g[n - s] for s in xs if n - s >= 0))
    for n in range(bound + 1 - k):
        if (g[n] == 0) != (g[n + k] == 1):
            failures.append(("shift", n, g[n], g[n + k]))
    for n in range(bound + 1):
        if g[n] == 0 and any(n - s >= 0 for s in xs):
            if not any(n - s >= 0 and g[n - s] == 1 for s in xs):
                failures.append(("escape", n, g[n], None))
    return failures


def mex_wrong_at(heap, value):
    """A mex that gives ``value`` at its call for ``heap``: mex is called
    once per heap, in ascending order."""
    calls = itertools.count()

    def planted(values):
        right = mex(values)
        return value if next(calls) == heap else right
    return planted


@pytest.mark.parametrize("xs, heap, value", [
    ({1, 2}, 7, 2), ({1, 2}, 10, 0), ({2, 3}, 2, 0), ({2, 3}, 12, 0),
    ({3, 5, 7}, 40, 1), ({1}, 61, 0)])
def test_ferguson_failures_equal_the_literal_laws(xs, heap, value,
                                                  monkeypatch):
    monkeypatch.setattr("grundylab.zoo.mex", mex_wrong_at(heap, value))
    report = ferguson_check(xs, 80)
    want = ferguson_reference(xs, 80, mex_wrong_at(heap, value))
    assert not report.ok and want
    assert report.failures == want


def test_ferguson_rejects_bad_set():
    with pytest.raises(InvalidParams):
        ferguson_check(set(), 10)


def test_box_roots():
    assert set(box_roots(2, 1)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert set(box_roots(1, 2, floor=1)) == {(1,), (2,)}


# --- origin boxes by index arithmetic ----------------------------------------

def _box(bounds):
    return list(itertools.product(*(range(b + 1) for b in bounds)))


def _outcome(game, roots):
    """Everything enumeration, labelling and classification give."""
    lg = sg_labels(enumerate_subgame(game, roots))
    graph, report = lg.graph, classify(lg)
    return (graph.positions, graph.index,
            [list(graph.row(i)) for i in range(len(graph))], graph.order, graph.depths, lg.g, lg.g_minus, lg.packed_masks,
            report.verdicts, report.witnesses)


def _keyed_outcome(game, roots):
    """What ``_outcome`` gives, keyed by position, so that two numberings of
    one graph compare equal: per position its row as positions in order,
    depth, g, g⁻ and packed word; whether ``order`` is parents-first; the
    roots, the report's bound, verdicts and witnesses."""
    lg = sg_labels(enumerate_subgame(game, roots))
    graph, report = lg.graph, classify(lg)
    positions = graph.positions
    nodes = {p: ([positions[y] for y in graph.row(i)], graph.depths[i],
                 lg.g[i], lg.g_minus[i], lg.packed_masks[i])
             for i, p in enumerate(positions)}
    rank = {x: k for k, x in enumerate(graph.order)}
    parents_first = (len(rank) == len(graph) and all(
        rank[x] < rank[y] for x in range(len(graph)) for y in graph.row(x)))
    return (nodes, parents_first, graph.roots, report.enumerated_bound,
            report.verdicts, report.witnesses)


def _breadth_first(game):
    return dataclasses.replace(game, box_moves=None)


def _rows_from_rule(game):
    """Whether the game's boxes list their rows from its option function:
    some move has a start or is a region."""
    k = TABLE[game.family].arity(game.params)
    return k is not None and any(how not in (1, -1, 0)
                                 for _, how in game.box_moves(k))


def _box_only(game):
    """The game with no option function, so that only the box path can
    enumerate it; a game whose boxes list their rows from that function
    keeps it, and each test of such a game checks that the box path ran."""
    if _rows_from_rule(game):
        return game
    return dataclasses.replace(game, options=None)


def _no_box(game):
    def refuse(k):
        raise AssertionError(f"box path taken with {k} coordinates")
    return dataclasses.replace(game, box_moves=refuse)


def _declared(game, moves):
    """The game with ``moves`` declared for its boxes of every size."""
    return dataclasses.replace(game, box_moves=lambda k: moves)


def _stored(graph):
    """The same nodes and rows, stored: the edge loop folds them."""
    return graph_from_adjacency(dict(graph.succ))


def _is_ray_box(graph):
    return isinstance(graph, BoxGraph) and all(
        order for _, order in graph.moves)


_PAIRS = st.tuples(st.integers(0, 12), st.integers(0, 12))


def _heights(params):
    # a hypergraph Nim position: up to 256 nodes in its box
    k = TABLE["ho_nim"].arity(params)
    return st.tuples(*[st.integers(0, 3 if k <= 4 else 2)] * k)


# per family with box moves: a strategy for its parameters and, from them,
# one for a position, which is also a box's largest position
_BOX_FAMILIES = {
    "nim": (st.just({}), lambda p: st.lists(st.integers(0, 4),
                                            max_size=4).map(tuple)),
    "subtraction": (st.sets(st.integers(2, 9), max_size=3).map(
                        lambda s: {"x": tuple(s | {1})}),
                    lambda p: st.integers(0, 40).map(lambda n: (n,))),
    "wythoff": (st.just({}), lambda p: _PAIRS),
    "wyt_a": (st.integers(1, 4).map(lambda a: {"a": a}), lambda p: _PAIRS),
    "wyt_ab": (st.builds(lambda a, b: {"a": a, "b": b}, st.integers(0, 4),
                         st.integers(1, 4)), lambda p: _PAIRS),
    "ho_nim": (st.one_of(st.builds(lambda shape, n: {"shape": shape, "n": n},
                                   st.sampled_from(("path", "cycle")),
                                   st.integers(3, 5)),
                         st.sampled_from(({"shape": "conj1"},
                                          {"shape": "conj2"}))),
               _heights),
}
_GAME_BOUNDS = st.sampled_from(sorted(_BOX_FAMILIES)).flatmap(
    lambda f: _BOX_FAMILIES[f][0].flatmap(
        lambda p: st.tuples(st.just(make_family(f, p)),
                            _BOX_FAMILIES[f][1](p))))

# each family's move forms: a start stands for every start
_MOVE_FORMS = {"nim": {1}, "subtraction": {0}, "wythoff": {1, -1},
               "wyt_a": {"start"}, "wyt_ab": {"start"}, "ho_nim": {"region"}}


@settings(max_examples=60, deadline=None)
@given(case=_GAME_BOUNDS)
def test_box_path_equals_breadth_first(case):
    game, bounds = case
    roots = _box(bounds)
    assert game.box_moves is not None
    assert isinstance(enumerate_subgame(_box_only(game), roots), BoxGraph)
    assert (_outcome(_box_only(game), roots)
            == _outcome(_breadth_first(game), roots))


@settings(max_examples=60, deadline=None)
@given(case=_GAME_BOUNDS)
def test_box_lines_lie_below_the_node_and_give_the_options(case):
    # the box path runs no cycle check: every move must lower the node number
    game, bounds = case
    graph = enumerate_subgame(_box_only(game), _box(bounds))
    assert isinstance(graph, BoxGraph)
    # a subtraction set is points; Nim's and Wythoff's moves are rays from
    # their steps, the Wythoff variants' rays from starts and hypergraph
    # Nim's regions
    forms = {"start" if isinstance(how, tuple) else how
             for _, how in graph.moves}
    assert forms <= _MOVE_FORMS[game.family]
    assert (graph.rule is not None) == _rows_from_rule(game)
    for n, p in enumerate(graph.positions):
        row = graph.row(n)
        assert all(0 <= y < n for y in row)
        assert [graph.positions[y] for y in row] == game.options(p)


@settings(max_examples=100, deadline=None)
@given(case=_GAME_BOUNDS)
def test_box_lines_contract_drops_each_coordinate_by_one(case):
    """Every option lies below its position in every coordinate, and each
    non-zero coordinate can drop by 1 alone: so the box below a root is
    that root's closure, which the corner path relies on."""
    assert sorted(f for f in FAMILIES if TABLE[f].box_moves) == sorted(
        _BOX_FAMILIES)
    game, p = case
    options = game.options(p)
    for y in options:
        assert len(y) == len(p) and y != p
        assert all(a <= b for a, b in zip(y, p))
    drops = {p[:i] + (c - 1,) + p[i + 1:] for i, c in enumerate(p) if c}
    assert drops <= set(options)


@settings(max_examples=60, deadline=None)
@given(case=_GAME_BOUNDS)
def test_box_depths_are_coordinate_sums_and_breadth_first_depths(case):
    # the box path takes its depths from the box_moves contract
    game, bounds = case
    box = enumerate_subgame(_box_only(game), [bounds])
    bfs = enumerate_subgame(_breadth_first(game), [bounds])
    assert isinstance(box, BoxGraph)
    assert list(box.depths) == [sum(p) for p in box.positions]
    assert (dict(zip(box.positions, box.depths))
            == dict(zip(bfs.positions, bfs.depths)))


def test_box_depths_read_no_line():
    graph = enumerate_subgame(make_family("wythoff"), [(5, 7)])

    def refuse(x):
        raise AssertionError(f"line of node {x} read")

    graph.lines = refuse
    assert graph.depth((5, 7)) == 12 and graph.depth((0, 0)) == 0
    assert list(graph.depths) == [sum(p) for p in graph.positions]
    assert not {"offsets", "targets"} & vars(graph).keys()


@settings(max_examples=100, deadline=None)
@given(case=_GAME_BOUNDS, data=st.data())
def test_corner_roots_equal_breadth_first(case, data):
    # a corner root alone, or among roots below it, in any order
    game, top = case
    below = data.draw(st.lists(st.sampled_from(_box(top)), max_size=6))
    roots = data.draw(st.permutations(below + [top]))
    assert isinstance(enumerate_subgame(game, roots), BoxGraph)
    assert (_keyed_outcome(_box_only(game), roots)
            == _keyed_outcome(_breadth_first(game), roots))


@pytest.mark.parametrize("roots", [
    _box((3, 3))[::-1],                    # the box in another order
    [(0, 1), (0, 0), (1, 0), (1, 1)],
    box_roots(2, 3, floor=1),              # not from the origin
    [(3, 3)],                              # a corner root
], ids=["reversed", "permuted", "floor", "corner"])
def test_roots_with_a_greatest_root_take_the_box_path(roots):
    game = make_family("wythoff")
    assert (_keyed_outcome(_box_only(game), roots)
            == _keyed_outcome(_breadth_first(game), roots))


@pytest.mark.parametrize("family,top", [("wythoff", (5, 7)),
                                        ("nim", (3, 0, 4))])
def test_ray_fold_builds_no_depths(monkeypatch, family, top):
    graph = enumerate_subgame(make_family(family), [top])
    assert _is_ray_box(graph)

    def refuse(*args):
        raise AssertionError("depths or a line read")

    monkeypatch.setattr(BoxGraph, "depths", property(refuse))
    graph.lines = refuse
    lg = sg_labels(graph)
    monkeypatch.undo()
    del graph.lines
    assert "depths" not in vars(graph)
    _assert_reference_labels(lg, _reference_labels(graph))


def test_corner_comparison_catches_lines_without_the_move_of_1():
    game = make_family("subtraction", {"x": (1, 3)})
    mutated = _declared(game, (((3,), 0),))
    assert (_keyed_outcome(_box_only(mutated), [(12,)])
            != _keyed_outcome(_breadth_first(game), [(12,)]))


# declaration mutants: each changes the rows of some node of the boxes below


def _drop_last_move(moves):
    return moves[:-1]


def _swap_two_moves(moves):
    return (moves[-1], *moves[1:-1], moves[0])


def _flip_an_order(moves):
    (step, order), *rest = moves
    return ((step, -order), *rest)


def _ray_as_a_point(moves):
    (step, _), *rest = moves
    return ((step, 0), *rest)


@pytest.mark.parametrize("mutate", [_drop_last_move, _swap_two_moves,
                                    _flip_an_order, _ray_as_a_point])
@pytest.mark.parametrize("family,bounds", [("wythoff", (3, 4)),
                                           ("nim", (2, 0, 3))])
def test_box_path_comparison_catches_a_wrong_rule(family, bounds, mutate):
    game, roots = make_family(family), _box(bounds)
    mutated = _declared(game, mutate(game.box_moves(len(bounds))))
    outcome = _outcome(_box_only(mutated), roots)
    assert outcome != _outcome(_breadth_first(game), roots)
    # the fold that takes the mutated box agrees with the edge loop
    graph = enumerate_subgame(_box_only(mutated), roots)
    assert outcome[5:8] == fold_rows(_stored(graph))


# the same for the moves of boxes whose rows come from the rule: such a
# box's rows are right whatever its moves, so its labels must show the fault


def _start_one_step_further(moves):
    (step, start), *rest = moves
    return ((step, tuple(map(sum, zip(start, step)))), *rest)


def _region_missing_a_coordinate(moves):
    (span, how), *rest = moves
    first = span.index(1)
    return ((span[:first] + (0,) + span[first + 1:], how), *rest)


@pytest.mark.parametrize("family,params,bounds,mutate", [
    ("wyt_ab", {"a": 2, "b": 2}, (4, 5), _start_one_step_further),
    ("wyt_a", {"a": 3}, (4, 5), _start_one_step_further),
    # the band's last diagonal
    ("wyt_ab", {"a": 2, "b": 2}, (4, 5), _drop_last_move),
    ("wyt_a", {"a": 2}, (4, 5), _drop_last_move),
    ("ho_nim", {"shape": "path", "n": 4}, (2, 2, 2, 2),
     _region_missing_a_coordinate),
    ("ho_nim", {"shape": "conj1"}, (1, 2, 1, 1, 2),
     _region_missing_a_coordinate),
], ids=["wyt_ab_start", "wyt_a_start", "wyt_ab_band", "wyt_a_band",
        "path_region", "conj1_region"])
def test_box_path_comparison_catches_a_wrong_start_band_or_region(
        family, params, bounds, mutate):
    game, roots = make_family(family, params), _box(bounds)
    mutated = _declared(game, mutate(game.box_moves(len(bounds))))
    graph = enumerate_subgame(mutated, roots)
    assert isinstance(graph, BoxGraph) and graph.rule is not None
    outcome = _outcome(mutated, roots)
    want = _outcome(_breadth_first(game), roots)
    assert outcome[:5] == want[:5]      # the same nodes, rows and depths
    assert outcome[5:8] != want[5:8]    # but other labels or words


def _literal_options(p, moves):
    """The positions that ``moves`` give position p, each form as
    ``GameDef.box_moves`` describes it, as a set."""
    out = set()
    for vec, how in moves:
        if how == "region":
            out |= set(itertools.product(*(range(c + 1) if s else (c,)
                                           for c, s in zip(p, vec))))
            out.discard(p)
            continue
        start = how if isinstance(how, tuple) else vec
        q = tuple(a - o for a, o in zip(p, start))
        while min(q) >= 0:
            out.add(q)
            if how == 0:
                break
            q = tuple(a - c for a, c in zip(q, vec))
    return out


@settings(max_examples=60, deadline=None)
@given(case=_GAME_BOUNDS)
def test_declared_moves_give_the_rule_options(case):
    game, top = case
    moves = game.box_moves(len(top))
    for p in _box(top):
        assert _literal_options(p, moves) == set(game.options(p))


def _reference_labels(graph):
    succ = dict(graph.succ)
    return ref_labels(succ, ref_topological_order(succ))


def _assert_reference_labels(lg, labels):
    graph = lg.graph
    assert list(zip(lg.g, lg.g_minus)) == [labels[p] for p in graph.positions]
    assert list(lg.packed_masks) == ref_packed_masks(graph)


@pytest.mark.parametrize("family,top", [
    ("wythoff", (7, 0)), ("wythoff", (0, 7)),   # strides [1, 1]
    ("nim", (0, 5)), ("nim", (3, 0, 4)), ("nim", (9,)), ("nim", (8, 8, 8, 8)),
])
def test_line_fold_equals_the_literal_reference_on_degenerate_boxes(family,
                                                                    top):
    graph = enumerate_subgame(make_family(family), [top])
    assert _is_ray_box(graph)
    _assert_reference_labels(sg_labels(graph), _reference_labels(graph))


def _ray(k):
    """A declared ray of a k-coordinate box: 1 to 3 nonzero coordinates,
    each up to 6, so often longer than the box, in either order."""
    return st.tuples(
        st.dictionaries(st.integers(0, k - 1), st.integers(1, 6),
                        min_size=1, max_size=3).map(
            lambda step: tuple(step.get(i, 0) for i in range(k))),
        st.sampled_from((1, -1)))


def _literal_row(p, moves):
    """The positions p - j*step, j >= 1, of each ray, in its declared
    order: ascending node numbers are descending j."""
    row = []
    for step, order in moves:
        ray, j = [], 1
        while all(a >= j * c for a, c in zip(p, step)):
            ray.append(tuple(a - j * c for a, c in zip(p, step)))
            j += 1
        row += ray[::-1] if order > 0 else ray
    return row


@settings(max_examples=150, deadline=None)
@given(bounds=st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple),
       data=st.data())
def test_line_fold_equals_the_literal_reference_on_random_range_lines(
        bounds, data):
    # random rays on a random box: its rows against the literal rays, and
    # the ray fold against the literal labels
    moves = data.draw(st.lists(_ray(len(bounds)), min_size=1,
                               max_size=4).map(tuple))
    graph = enumerate_subgame(_box_only(_declared(make_family("nim"), moves)),
                              [bounds])
    assert _is_ray_box(graph)
    positions = graph.positions
    for n, p in enumerate(positions):
        assert [positions[y] for y in graph.row(n)] == _literal_row(p, moves)
    _assert_reference_labels(sg_labels(graph), _reference_labels(graph))


@pytest.mark.parametrize("move", [
    ((1, -1), 1), ((0, 0), -1), ((1, 0, 0), 1), ((1,), 0), ((1, 1), 2),
    ((1, 0), (0, 0)), ((1, 0), (1, -1)), ((1, 0), (1,)), ((1, 0), [1, 0]),
    ((0, 0), (1, 0)), ((1, 2), "region"), ((0, 0), "region"),
    ((1, 0), "ray"), ((1, 0),), ((1, 0), 1, (1, 0))],
    ids=["negative", "zero", "too_long", "too_short", "bad_order",
         "zero_start", "negative_start", "short_start", "list_start",
         "zero_step_with_start", "span_of_2", "empty_span", "bad_form",
         "no_order", "three_parts"])
def test_box_refuses_a_bad_move(move):
    game = _declared(make_family("wythoff"), (((1, 0), 1), move))
    with pytest.raises(ValueError) as exc:
        enumerate_subgame(game, [(3, 4)])
    assert str(exc.value) == (
        f"box move {move!r}: it must be (step, order), (step, start) or "
        "(span, 'region'), with step and start 2 integers >= 0, not all 0, "
        "order +1, -1 or 0, and span 2 of 0 and 1, not all 0")


def test_or_label_refuses_a_full_g_field():
    # options with every g in 0 .. width - 1: the mex, width, has no bit
    width = 4
    label = _or_label(((1 << width - 1) - 1) << _WORD_BITS, width, {})[0]
    assert label[0] == width - 1
    with pytest.raises(ValueError, match="^g exceeds every depth"):
        _or_label(((1 << width) - 1) << _WORD_BITS, width, {})


def test_line_fold_memory_per_node():
    # the rings and lookup take about 34 B per node here; the range-matching
    # fold took about 44 and the edge loop about 17
    graph = enumerate_subgame(make_family("wythoff"), [(120, 120)])
    assert _is_ray_box(graph)
    tracemalloc.start()
    try:
        out = fold_rows(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a) for a in out)
    assert peak - arrays <= 64 * len(graph)


@pytest.mark.parametrize("family,params,top,bound", [
    # starts: 3 rings of at most 4 * 121 + 5 entries, about 57 B per node;
    # rings as long as the box took about 320
    ("wyt_ab", {"a": 2, "b": 3}, (120, 120), 80),
    # regions: 4 rings of 7**3 entries, about 66 B per node; rings as long
    # as the box took about 230
    ("ho_nim", {"shape": "conj2"}, (6, 6, 6, 6), 100),
])
def test_start_and_region_fold_memory_per_node(family, params, top, bound):
    graph = enumerate_subgame(make_family(family, params), [top])
    assert isinstance(graph, BoxGraph) and graph.rule is not None
    fold_rows(graph)  # the words' memo holds this graph's labels
    gc.collect()
    tracemalloc.start()
    try:
        out = fold_rows(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a) for a in out)
    assert peak - arrays <= bound * len(graph)


def test_many_short_sided_fold_memory_per_node():
    # Nim on twelve piles of 1: 12 rings of 3 * 2**10 entries and one read
    # plan per row with the first pile empty, about 400 B per node; padding
    # every coordinate made each ring 3**11 entries long, about 6,400
    graph = enumerate_subgame(make_family("nim"), [(1,) * 12])
    assert _is_ray_box(graph)
    fold_rows(graph)  # the words' memo holds this graph's labels
    gc.collect()
    tracemalloc.start()
    try:
        out = fold_rows(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a) for a in out)
    assert peak - arrays <= 520 * len(graph)


@pytest.mark.parametrize("family,symmetry,root,bound", [
    # Mark from 100,000: 10^5 deep, but no node has more than 2 options, so
    # the value fields are 4 bits wide and each node holds about one list
    # slot, 8 B; fields as wide as the depth, each OR 25 kB, took about 14
    ("mark", False, (100_000,), 12),
    # symmetric Wythoff from (120, 120): 7,381 nodes whose ORs of 64-byte
    # packed ints are nearly all distinct.  With the lookup emptied at
    # _SEEN_CAP entries this took about 79 B per node; a lookup never
    # emptied took about 95, and a packed int per node instead of one per
    # label about 136
    ("wythoff", True, (120, 120), 88),
])
def test_edge_loop_memory_per_node(family, symmetry, root, bound):
    graph = enumerate_subgame(make_family(family, use_symmetry=symmetry),
                              [root])
    assert not isinstance(graph, BoxGraph)
    fold_rows(graph)  # the words' memo holds this graph's labels
    gc.collect()
    tracemalloc.start()
    try:
        out = fold_rows(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a) for a in out)
    assert peak - arrays <= bound * len(graph)


def _subtraction_box(xs, heap):
    graph = enumerate_subgame(make_family("subtraction", {"x": xs}), [(heap,)])
    assert isinstance(graph, BoxGraph)
    assert graph.moves == tuple(((s,), 0) for s in xs)
    return graph


@settings(max_examples=100, deadline=None)
@given(xs=st.sets(st.integers(2, 40), max_size=5).map(
           lambda s: tuple(sorted(s | {1}))),
       offset=st.integers(-40, 400))
@example(xs=(1, 2), offset=5)        # repeat at heap 7, block from heap 4
@example(xs=(1, 6), offset=15)       # block from heap 12
@example(xs=(1, 40), offset=-1)      # below max S: no window to test
@example(xs=(1, 40), offset=0)       # at max S
def test_shift_fold_equals_the_literal_reference(xs, offset):
    """Heaps below, at and above max S; the fold's block starts above max
    S in every set with 1 in it, since heap 0 is the only terminal."""
    m = max(xs)
    graph = _subtraction_box(xs, max(0, m + offset))
    _assert_reference_labels(sg_labels(graph), _reference_labels(graph))
    repeat = _fold_shifts(graph, xs)[1]
    if repeat is not None:
        start, period = repeat
        assert m < start and start + period < len(graph)


class _CountedShifts(tuple):
    """Shifts that count how often they are read in full."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_shift_fold_reads_only_the_heaps_before_the_repeat():
    graph = _subtraction_box((1, 2), 10_000)
    shifts = _CountedShifts((1, 2))
    out, repeat = _fold_shifts(graph, shifts)
    # max(shifts) once, then one row per heap: heaps 0 to 6, as the window
    # before heap 7 repeats the one before heap 4
    assert repeat == (4, 3)
    assert shifts.reads == 8 < 20

    def refuse(x):
        raise AssertionError(f"line of node {x} read")

    # fold_rows reads the shifts from the moves, and no line
    graph.lines = refuse
    assert fold_rows(graph) == out
    del graph.lines
    # the edge loop over every heap's row agrees
    assert fold_rows(_stored(graph)) == out


def test_every_subtraction_set_with_a_move_of_1_is_pet_at_every_heap():
    """All subtraction games are pet: for each S with 1 in S within 1..12
    the box below 400 is pet, and its labels and words repeat from a
    window inside it.  Every heap beyond repeats a heap of the box, so
    every heap size is pet."""
    sets = 0
    for r in range(12):
        for rest in itertools.combinations(range(2, 13), r):
            xs = (1, *rest)
            graph = _subtraction_box(xs, 400)
            assert classify(sg_labels(graph)).verdicts["pet"], xs
            start, period = _fold_shifts(graph, xs)[1]
            assert start + period + max(xs) <= 400, xs
            sets += 1
    assert sets == 2048


def _analyzed_graph(monkeypatch, argv):
    """The JSON report of ``analyze`` on ``argv``, and the one graph it
    enumerated; the ordering DFS must not run."""
    graphs = []

    def kept(*args, **kwargs):
        graphs.append(enumerate_subgame(*args, **kwargs))
        return graphs[-1]

    def no_dfs(*args):
        raise AssertionError("ordering DFS ran")

    monkeypatch.setattr("grundylab.cli.enumerate_subgame", kept)
    monkeypatch.setattr("grundylab.core._order_and_depths", no_dfs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main.main(args=["analyze", *argv, "--format", "json"])
    assert exc.value.code in (0, None)
    (graph,) = graphs
    return json.loads(out.getvalue()), graph


def test_analyze_on_a_box_stores_no_rows_and_runs_no_dfs(monkeypatch):
    report, graph = _analyzed_graph(monkeypatch,
                                    ["--family", "wythoff", "--box", "12"])
    assert report["verdicts"]["pet"] is False
    assert isinstance(graph, BoxGraph)
    assert not {"offsets", "targets", "index"} & vars(graph).keys()


def test_analyze_from_a_corner_root_stores_no_rows_and_runs_no_dfs(
        monkeypatch):
    # no option function: every row comes from the lines
    monkeypatch.setitem(TABLE, "subtraction", TABLE["subtraction"]._replace(
        rule=lambda params: None))
    report, graph = _analyzed_graph(monkeypatch, [
        "--family", "subtraction", "--set", "1,2", "--roots", "1000"])
    assert report["verdicts"]["pet"] is True
    assert isinstance(graph, BoxGraph) and len(graph) == 1001
    assert graph.roots == {(1000,)}
    assert not {"offsets", "targets", "index"} & vars(graph).keys()


@pytest.mark.parametrize("family,params,roots", [
    ("wythoff", {}, box_roots(2, 6)),
    ("nim", {}, [(3, 0, 2), (1, 0, 2)]),
    ("subtraction", {"x": (1, 4)}, [(30,)]),
], ids=["wythoff", "nim", "subtraction"])
def test_box_edge_count_and_terminals_read_the_lines(family, params, roots):
    game = make_family(family, params)
    graph = enumerate_subgame(game, roots)
    assert isinstance(graph, BoxGraph)
    assert graph.edge_count() == sum(len(game.options(x))
                                     for x in graph.positions)
    assert graph.terminals() == [x for x in graph.positions
                                 if not game.options(x)]
    assert not hasattr(graph, "offsets") and not hasattr(graph, "targets")


@pytest.mark.parametrize("family,params,roots", [
    ("wythoff", {}, _box((3, 3))[:-1]),         # a partial box
    ("wythoff", {}, _box((3, 3)) + [(4, 0)]),   # a box and one more root
    # a zip of the two would give the 6-node box of (5,); the closure has 26
    ("nim", {}, [(3, 4), (5,)]),
    ("nim", {}, [(2, -1)]),
    ("subtraction", {"x": (1, 2)}, [(2.5,)]),
    ("subtraction", {"x": (2, 3)}, [(7,)]),     # no move of 1: no box moves
], ids=["partial", "extra", "mixed_arity", "negative", "non_integer",
        "no_move_of_1"])
def test_other_roots_take_the_breadth_first_path(family, params, roots):
    game = make_family(family, params)
    assert type(enumerate_subgame(game, roots)) is ReachableGraph
    if game.box_moves is not None:
        assert (_outcome(_no_box(game), roots)
                == _outcome(_breadth_first(game), roots))


def test_box_path_only_without_symmetry():
    assert [f for f in FAMILIES if TABLE[f].box_moves] == [
        "nim", "subtraction", "wythoff", "wyt_a", "wyt_ab", "ho_nim"]
    for family, params in [("nim", {}), ("wythoff", {}), ("wyt_a", {"a": 2}),
                           ("wyt_ab", {"a": 2, "b": 3}),
                           ("ho_nim", {"shape": "cycle", "n": 4})]:
        game = make_family(family, params, use_symmetry=True)
        assert game.canonical is not None and game.box_moves is None
        assert make_family(family, params).box_moves is not None
    # hypergraph Nim's path and conjecture shapes have no symmetry hook
    for params in ({"shape": "path", "n": 4}, {"shape": "conj1"},
                   {"shape": "conj2"}):
        game = make_family("ho_nim", params, use_symmetry=True)
        assert game.canonical is None and game.box_moves is not None
    # subtraction has no symmetry hook, and box moves only with a move of 1
    assert make_family("subtraction", {"x": [1, 5]},
                       use_symmetry=True).box_moves is not None
    assert make_family("subtraction", {"x": [2, 5]}).box_moves is None


@pytest.mark.parametrize("game", [_box_only(make_family("wythoff")),
                                  _breadth_first(make_family("wythoff"))],
                         ids=["box", "breadth_first"])
def test_box_node_cap(game):
    roots = box_roots(2, 3)
    with pytest.raises(LimitExceeded, match="^node cap 15 exceeded$"):
        enumerate_subgame(game, roots, node_cap=15)
    assert len(enumerate_subgame(game, roots, node_cap=16)) == 16


@pytest.mark.parametrize("path", [_box_only, _breadth_first],
                         ids=["box", "breadth_first"])
def test_corner_root_node_cap(path):
    # the box below (20, 20, 20) has 21**3 = 9261 nodes
    game = path(make_family("nim"))
    with pytest.raises(LimitExceeded, match="^node cap 9260 exceeded$"):
        enumerate_subgame(game, [(20, 20, 20)], node_cap=9260)
    assert len(enumerate_subgame(game, [(20, 20, 20)], node_cap=9261)) == 9261


def test_hypergraph_nim_box_of_another_arity_is_refused():
    # the breadth-first rule would index a block the position lacks
    game = make_family("ho_nim", {"shape": "path", "n": 4})
    with pytest.raises(ValueError, match=r"^box move \(\(1, 1, 0, 0\), "):
        enumerate_subgame(game, [(2, 2, 2)])
