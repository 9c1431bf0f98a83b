import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from grundylab import (
    InvalidParams,
    LimitExceeded,
    UnsupportedParams,
    classify,
    enumerate_subgame,
    mex,
    sg_labels,
)
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


def labels(family, params, roots, sym=False):
    game = make_family(family, params, use_symmetry=sym)
    return sg_labels(enumerate_subgame(game, roots))


def swap_or_none(lab):
    return tuple(lab) if lab.is_swap else None


# --- move rules --------------------------------------------------------------

def test_grossman_moves_stay_positive():
    game = make_family("euclid_grossman")
    assert set(game.moves((2, 6))) == {(2, 4), (2, 2)}
    assert game.moves((3, 3)) == []


def test_cd_moves_may_empty_a_pile():
    game = make_family("euclid_cd")
    assert set(game.moves((2, 6))) == {(2, 4), (2, 2), (2, 0)}
    assert game.moves((0, 5)) == []


def test_mark_moves():
    game = make_family("mark")
    assert set(game.moves((8,))) == {(7,), (4,)}
    assert game.moves((0,)) == []
    assert set(game.moves((1,))) == {(0,)}


def test_ho_nim_cycle_moves():
    game = make_family("ho_nim", {"shape": "cycle", "n": 4})
    opts = set(game.moves((1, 0, 0, 1)))
    # the wrap-around hyperedge covers both occupied blocks
    assert {(0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0)} <= opts


def test_exact_nim_short_positions_terminal():
    game = make_family("exact_nim", {"n": 5, "k": 2})
    assert game.moves((1, 0, 0, 0, 0)) == []
    assert game.moves((1, 1, 0, 0, 0)) != []


def test_slow_nim_unit_steps():
    game = make_family("slow_nim", {"n": 3, "k": 2})
    assert set(game.moves((1, 1, 0))) == {(0, 1, 0), (1, 0, 0), (0, 0, 0)}


def test_extended_nim_lone_extra_pile_move():
    game = make_family("extended_nim", {"n": 3, "k": 2})
    assert set(game.moves((1, 0, 0, 0))) == {(0, 0, 0, 0)}


def test_wythoff_moves():
    game = make_family("wythoff")
    opts = set(game.moves((2, 2)))
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
            assert (set(sym.moves(sym.canon(p)))
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
        check_p_sets(res, f"a{a}_{{}}", lg, "wyt_a", {"a": a}, 20, False)
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
                     a, b, 20, False)
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


@pytest.mark.parametrize("sym", [False, True])
def test_p_set_checks_fail_when_a_box_position_is_missing(sym):
    """The expected P-sets come from the sequences and the box alone, so a
    position that enumeration left out fails the checks."""
    roots = [(20, 20)] if sym else box_roots(2, 20)
    for family, params, check, missing in (
            ("wythoff", {}, lambda res, lg: check_wythoff(res, lg, 20, sym),
             (1, 2)),
            ("wyt_ab", {"a": 2, "b": 2},
             lambda res, lg: check_wyt_ab(res, lg, 2, 2, 20, sym),
             wyt_ab_p(2, 2, 2))):
        lg = labels(family, params, roots, sym)
        res = SuiteResult(family, 0)
        check(res, lg)
        assert res.ok, res.checks
        dropped = SimpleNamespace(labels={p: lab for p, lab in lg.labels.items()
                                          if p != missing})
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


def test_ferguson_rejects_bad_set():
    with pytest.raises(InvalidParams):
        ferguson_check(set(), 10)


def test_box_roots():
    assert set(box_roots(2, 1)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert set(box_roots(1, 2, floor=1)) == {(1,), (2,)}


# --- full boxes by index arithmetic ------------------------------------------

def _box(bounds):
    return list(itertools.product(*(range(b + 1) for b in bounds)))


def _outcome(game, roots):
    """Everything enumeration, labelling and classification give."""
    lg = sg_labels(enumerate_subgame(game, roots))
    graph, report = lg.graph, classify(lg)
    return (graph.positions, graph.index, graph.offsets, graph.targets,
            graph.order, graph.depths, lg.g, lg.g_minus, report.verdicts,
            report.witnesses)


def _breadth_first(game):
    return dataclasses.replace(game, box_rows=None)


def _box_only(game):
    """The game with no option function: only the box path can enumerate."""
    return dataclasses.replace(game, options=None)


def _no_box(game):
    def refuse(bounds):
        raise AssertionError(f"box path taken for {bounds}")
    return dataclasses.replace(game, box_rows=refuse)


_WYTHOFF_BOUNDS = st.tuples(st.integers(0, 12), st.integers(0, 12))
_NIM_BOUNDS = st.lists(st.integers(0, 4), max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(family_bounds=st.one_of(_WYTHOFF_BOUNDS.map(lambda b: ("wythoff", b)),
                               _NIM_BOUNDS.map(lambda b: ("nim", b))))
def test_box_path_equals_breadth_first(family_bounds):
    family, bounds = family_bounds
    game, roots = make_family(family), _box(bounds)
    assert game.box_rows is not None
    assert (_outcome(_box_only(game), roots)
            == _outcome(_breadth_first(game), roots))


def _drop_last_move(offsets, targets):
    i = max(i for i in range(len(offsets) - 1) if offsets[i] < offsets[i + 1])
    del targets[offsets[i + 1] - 1]
    for j in range(i + 1, len(offsets)):
        offsets[j] -= 1


def _swap_two_moves(offsets, targets):
    i = next(i for i in range(len(offsets) - 1)
             if offsets[i + 1] - offsets[i] >= 2)
    a = offsets[i]
    targets[a], targets[a + 1] = targets[a + 1], targets[a]


@pytest.mark.parametrize("mutate", [_drop_last_move, _swap_two_moves])
@pytest.mark.parametrize("family,bounds", [("wythoff", (3, 4)),
                                           ("nim", (2, 0, 3))])
def test_box_path_comparison_catches_a_wrong_rule(family, bounds, mutate):
    game = make_family(family)

    def mutated(bounds):
        offsets, targets = game.box_rows(bounds)
        mutate(offsets, targets)
        return offsets, targets

    roots = _box(bounds)
    assert (_outcome(_box_only(dataclasses.replace(game, box_rows=mutated)),
                     roots)
            != _outcome(_breadth_first(game), roots))


@pytest.mark.parametrize("roots", [
    _box((3, 3))[:-1],                     # a partial box
    _box((3, 3))[::-1],                    # the box in another order
    [(0, 1), (0, 0), (1, 0), (1, 1)],
    box_roots(2, 3, floor=1),              # not from the origin
    [(3, 3)],                              # a corner root
    _box((3, 3)) + [(4, 0)],               # a box and one more root
], ids=["partial", "reversed", "permuted", "floor", "corner", "extra"])
def test_other_roots_take_the_breadth_first_path(roots):
    game = make_family("wythoff")
    assert (_outcome(_no_box(game), roots)
            == _outcome(_breadth_first(game), roots))


def test_box_path_only_without_symmetry():
    assert [f for f in FAMILIES if TABLE[f].box_rows] == ["nim", "wythoff"]
    for family in ("nim", "wythoff"):
        game = make_family(family, use_symmetry=True)
        assert game.canonical is not None and game.box_rows is None


@pytest.mark.parametrize("game", [_box_only(make_family("wythoff")),
                                  _breadth_first(make_family("wythoff"))],
                         ids=["box", "breadth_first"])
def test_box_node_cap(game):
    roots = box_roots(2, 3)
    with pytest.raises(LimitExceeded, match="^node cap 15 exceeded$"):
        enumerate_subgame(game, roots, node_cap=15)
    assert len(enumerate_subgame(game, roots, node_cap=16)) == 16
