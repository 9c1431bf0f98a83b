import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grundylab import (
    CandidateSets,
    ClassReport,
    FIXTURE_NAMES,
    MissingSet,
    UnknownPredicate,
    check_sm_equivalences,
    classify,
    enumerate_subgame,
    find_witness,
    graph_from_adjacency,
    load_fixture,
    sg_labels,
    verify_candidate_sets,
)
from grundylab.classify import PREDICATES
from grundylab.fixtures import fixture_roots
from grundylab.grundy import SWAP_LABELS, LabeledGraph, sort_key
from grundylab.random_games import random_dag
from grundylab.suites import EQUALITIES, FIXTURE_EXPECTATIONS, HIERARCHY
from grundylab.zoo import box_roots, euclid_swap_oracle, make_family, moore_swap_oracle

from random_dags import random_dag_stream


def labeled_fixture(name):
    game = load_fixture(name)
    return sg_labels(enumerate_subgame(game, fixture_roots(name)))


def labeled_family(family, params, roots, sym=True):
    game = make_family(family, params, use_symmetry=sym)
    return sg_labels(enumerate_subgame(game, roots))


def test_domestic_not_tame_witness():
    report = classify(labeled_fixture("domestic_not_tame"))
    assert report.verdicts["domestic"]
    assert not report.verdicts["tame"]
    pos, lab, _ = report.witnesses["tame"]
    assert tuple(lab) == (1, 2)


def test_tame_not_pet_verdicts():
    verdicts = classify(labeled_fixture("tame_not_pet")).verdicts
    for pred, want in FIXTURE_EXPECTATIONS["tame_not_pet"].items():
        assert verdicts[pred] == want, pred


def test_wythoff_returnable_not_forced():
    report = classify(labeled_family("wythoff", {}, [(20, 20)]))
    assert report.verdicts["miserable"]
    assert report.verdicts["returnable"]
    assert not report.verdicts["forced"]
    pos, lab, _ = report.witnesses["forced"]
    assert tuple(lab) in ((0, 1), (1, 0))


def test_mark_not_domestic_witness_8():
    report = classify(labeled_family("mark", {}, [(20,)], sym=False))
    assert not report.verdicts["domestic"]
    pos, lab, _ = report.witnesses["domestic"]
    assert pos == (8,)
    assert tuple(lab) == (0, 2)


def test_hierarchy_nesting_on_random_graphs():
    for graph in random_dag_stream(1, 200):
        verdicts = classify(sg_labels(graph)).verdicts
        for a, b in HIERARCHY:
            assert not verdicts[a] or verdicts[b], (a, b)
        for a, b in EQUALITIES:
            assert verdicts[a] == verdicts[b], (a, b)


def test_sm_equivalences_agree_on_random_graphs():
    for graph in random_dag_stream(2, 200):
        report = check_sm_equivalences(sg_labels(graph))
        assert report.agree
        assert len(report.conditions) == 6


def test_shared_masks_give_the_same_reports_in_either_call_order():
    # the masks are built by whichever call comes first and reused after
    for graph in random_dag_stream(3, 200):
        lg = sg_labels(graph)
        fresh = LabeledGraph(graph, lg.g, lg.g_minus)
        first = classify(lg).to_dict(), check_sm_equivalences(lg)
        sm = check_sm_equivalences(fresh)
        assert fresh.packed_masks is not None
        assert (classify(fresh).to_dict(), sm) == first
        assert fresh.packed_masks == lg.packed_masks


def test_sm_equivalences_on_pet_fixture():
    report = check_sm_equivalences(labeled_fixture("pet"))
    assert report.agree and report.value


def test_find_witness_not_returnable():
    lg = labeled_fixture("not_returnable")
    wit = find_witness(lg, "returnable")
    assert wit is not None
    pos, lab, reason = wit
    assert tuple(lab) in ((0, 1), (1, 0))
    assert "answered back" in reason


def test_find_witness_absent_on_pet():
    assert find_witness(labeled_fixture("pet"), "pet") is None


def test_find_witness_exact_nim():
    lg = labeled_family("exact_nim", {"n": 5, "k": 2}, [(3, 3, 3, 3, 3)])
    wit = find_witness(lg, "domestic")
    assert wit is not None
    pos, lab, _ = wit
    assert tuple(lab) in ((0, 2), (2, 0))
    # the named counterexample position carries that label too
    assert tuple(lg.labels[(1, 2, 3, 3, 3)]) == (0, 2)


def test_find_witness_unknown_predicate():
    with pytest.raises(UnknownPredicate):
        find_witness(labeled_fixture("pet"), "bogus")


def test_every_false_verdict_has_witness():
    for name in ("not_domestic", "not_returnable", "tame_not_miserable"):
        report = classify(labeled_fixture(name))
        for pred in PREDICATES:
            assert report.verdicts[pred] == (pred not in report.witnesses)


def test_report_to_dict_shape():
    report = classify(labeled_fixture("not_domestic"))
    data = report.to_dict()
    assert set(data) == {"verdicts", "witnesses", "bound"}
    assert data["verdicts"]["domestic"] is False
    assert "domestic" in data["witnesses"]


# --- candidate sets ----------------------------------------------------------

def oracle_sets(graph, oracle):
    v01 = {x for x in graph.nodes if oracle(x) == (0, 1)}
    v10 = {x for x in graph.nodes if oracle(x) == (1, 0)}
    return CandidateSets(v01, v10)


def test_euclid_stay_positive_candidate_sets():
    game = make_family("euclid_grossman")
    graph = enumerate_subgame(
        game, [(x, y) for x in range(1, 13) for y in range(1, 13)])
    cand = oracle_sets(graph, lambda x: euclid_swap_oracle("grossman", x))
    report = verify_candidate_sets(graph, cand, "miserable")
    assert report.ok


def test_euclid_diagonal_double_sets_rejected():
    # diagonal + doubled-pair sets miss the higher Fibonacci pairs and fail
    # the covering condition, e.g. at (2,3) which is movable to (1,2) only
    game = make_family("euclid_grossman")
    graph = enumerate_subgame(
        game, [(x, y) for x in range(1, 13) for y in range(1, 13)])
    v01 = {(x, x) for x in range(1, 13)}
    v10 = ({(x, 2 * x) for x in range(1, 7)}
           | {(2 * x, x) for x in range(1, 7)})
    report = verify_candidate_sets(graph, CandidateSets(v01, v10), "miserable")
    assert not report.ok
    assert any(cond == "M(v)" for cond, _, _ in report.failures)


def test_euclid_original_candidate_sets():
    game = make_family("euclid_cd")
    graph = enumerate_subgame(game, box_roots(2, 12))
    cand = oracle_sets(graph, lambda x: euclid_swap_oracle("cd", x))
    assert verify_candidate_sets(graph, cand, "miserable").ok


def test_abc_chain_demonstrates_covering_necessity():
    graph = enumerate_subgame(load_fixture("abc_chain"), ["C"])
    cand = CandidateSets({"A"}, {"B"}, set(), set())
    partial = verify_candidate_sets(graph, cand, "tame", structural_only=True)
    assert partial.conditions_ok
    assert not partial.sets_match  # C belongs to the true V01
    full = verify_candidate_sets(graph, cand, "tame")
    assert not full.conditions_ok


def test_moore_candidate_sets():
    game = make_family("moore_nim", {"n": 4, "k": 2}, use_symmetry=True)
    graph = enumerate_subgame(game, [(2, 2, 2, 2)])
    cand = oracle_sets(graph, lambda x: moore_swap_oracle(4, 2, x))
    assert verify_candidate_sets(graph, cand, "miserable").ok


def test_missing_set_error():
    graph = enumerate_subgame(load_fixture("abc_chain"), ["C"])
    with pytest.raises(MissingSet):
        verify_candidate_sets(graph, CandidateSets({"A"}, {"B"}), "tame")


def test_unknown_target_error():
    graph = enumerate_subgame(load_fixture("abc_chain"), ["C"])
    with pytest.raises(UnknownPredicate):
        verify_candidate_sets(graph, CandidateSets(set(), set()), "weird")


def test_candidate_position_outside_graph():
    graph = enumerate_subgame(load_fixture("abc_chain"), ["C"])
    report = verify_candidate_sets(
        graph, CandidateSets({"A", "Z"}, {"B"}), "miserable")
    assert not report.conditions_ok
    assert any(cond == "membership" for cond, _, _ in report.failures)


def test_pet_covering_rejects_both_membership_and_double_move():
    # node 2 is in v01 and moves to both sets: the pet condition asks for
    # exactly one of the two, the miserable condition for at least one
    graph = graph_from_adjacency({0: [], 1: [0], 2: [0, 1]})
    cand = CandidateSets({0, 2}, {1})
    inside = ("i", 2, "move inside v01")
    assert verify_candidate_sets(graph, cand, "pet").failures == [
        inside,
        ("SM(v)", 2, "exactly one of membership / double-movability must hold")]
    assert verify_candidate_sets(graph, cand, "miserable").failures == [inside]


def test_solver_sets_always_verify():
    # the solver's own V sets satisfy every theorem they instantiate
    for name in ("tame_not_pet", "tame_not_miserable"):
        game = load_fixture(name)
        graph = enumerate_subgame(game, fixture_roots(name))
        lg = sg_labels(graph)
        cand = CandidateSets(lg.vset(0, 1), lg.vset(1, 0),
                             lg.vset(0, 0), lg.vset(1, 1))
        assert verify_candidate_sets(graph, cand, "tame").ok


def test_clean_structural_pass_outside_target_class():
    # every structural and covering condition holds, yet node 7 is a
    # (2,0)-position: only the comparison with the solver's sets rejects it
    graph = graph_from_adjacency({0: [], 1: [0], 2: [0, 1], 3: [2], 4: [0, 1],
                                  5: [3], 6: [3], 7: [0, 5]})
    report = verify_candidate_sets(graph, CandidateSets({0}, {1, 7}),
                                   "miserable")
    assert report.failures == []
    assert report.set_mismatches == [("v10", {7}, set())]
    assert not report.ok


# --- literal-definition reference --------------------------------------------
# Each property and predicate written straight from its definition, with a
# set-based "movable to"; the production evaluator must agree exactly.

def ref_movable_to(lg, x, target):
    return any(y in target for y in lg.graph.succ[x])


def ref_movable_to_both(lg, x, a, b):
    return (ref_movable_to(lg, x, lg.vset(*a))
            and ref_movable_to(lg, x, lg.vset(*b)))


def ref_a(lg, x):
    return tuple(lg.labels[x]) in SWAP_LABELS


def ref_a0(lg, x):
    return tuple(lg.labels[x]) in ((0, 1), (1, 0), (0, 0), (1, 1))


def ref_b(lg, x):
    return not ref_movable_to(lg, x, lg.vset(0, 1) | lg.vset(1, 0))


def ref_c(lg, x):
    return ref_movable_to_both(lg, x, (0, 1), (1, 0))


def ref_c0(lg, x):
    return ref_movable_to_both(lg, x, (0, 1), (0, 0))


def ref_c1(lg, x):
    return ref_movable_to_both(lg, x, (1, 0), (0, 0))


def ref_e(lg, x):
    return ref_movable_to_both(lg, x, (0, 0), (1, 1))


def ref_label_rule(holds, reason):
    def violates(lg, x):
        g, gm = lg.labels[x]
        return None if holds(lg, x, g, gm) else reason.format(g=g, gm=gm)
    return violates


def ref_any_of(props, reason):
    return ref_label_rule(lambda lg, x, g, gm: any(p(lg, x) for p in props),
                          reason)


def ref_forced(lg, x):
    lab = tuple(lg.labels[x])
    if lab in SWAP_LABELS:
        opposite = lab[::-1]
        for y in lg.graph.succ[x]:
            if tuple(lg.labels[y]) != opposite:
                return (f"move to {y!r} with label {tuple(lg.labels[y])} "
                        f"instead of {opposite}")
    return None


def ref_returnable(lg, x):
    lab = tuple(lg.labels[x])
    if lab in SWAP_LABELS:
        for y in lg.graph.succ[x]:
            if lg.graph.succ[y] and not ref_movable_to(lg, y, lg.vset(*lab)):
                return f"move to {y!r} cannot be answered back to a {lab}-position"
    return None


REF_PREDICATES = {
    "domestic": ref_label_rule(
        lambda lg, x, g, gm: not (g == 0 and gm >= 2 or gm == 0 and g >= 2),
        "({g},{gm})-position breaks domesticity"),
    "tame": ref_label_rule(lambda lg, x, g, gm: ref_a(lg, x) or g == gm,
                           "({g},{gm})-position is neither swap nor equal-valued"),
    "pet": ref_label_rule(
        lambda lg, x, g, gm: ref_a(lg, x) or g == gm >= 2,
        "({g},{gm})-position is neither swap nor (k,k) with k>=2"),
    "miserable": ref_any_of((ref_a, ref_b, ref_c), "movable to exactly one "
                            "kind of swap position while not swap itself"),
    "strongly_miserable": ref_any_of((ref_a, ref_c), "neither swap nor movable "
                                     "to both a (0,1)- and a (1,0)-position"),
    "t_miserable": ref_any_of((ref_a0, ref_c, ref_e),
                              "fails all three t-miserability properties"),
    "weakly_miserable": ref_any_of((ref_a, ref_b, ref_c, ref_c0, ref_c1),
                                   "fails all five weak-miserability properties"),
    "forced": ref_forced,
    "returnable": ref_returnable,
}

REF_PET_CONDITIONS = {
    "i_strongly_miserable": ref_any_of((ref_a, ref_c), ""),
    "ii_pet": ref_label_rule(lambda lg, x, g, gm: ref_a(lg, x) or g == gm >= 2,
                             ""),
    "iii_no_00": ref_label_rule(lambda lg, x, g, gm: (g, gm) != (0, 0),
                                "(0,0)-position"),
    "iv_no_00_no_11": ref_label_rule(
        lambda lg, x, g, gm: (g, gm) not in ((0, 0), (1, 1)),
        "(0,0)- or (1,1)-position"),
    "v_ferguson_normal": ref_label_rule(
        lambda lg, x, g, gm: g != 0 or not lg.graph.succ[x] or any(
            lg.labels[y].g == 1 for y in lg.graph.succ[x]), ""),
    "vi_ferguson_misere": ref_label_rule(
        lambda lg, x, g, gm: gm != 0 or any(
            lg.labels[y].g_minus == 1 for y in lg.graph.succ[x]), ""),
}


def ref_witness(lg, violates):
    found = [(sort_key(lg, x), x) for x in lg.graph.nodes
             if violates(lg, x) is not None]
    if not found:
        return None
    _, x = min(found, key=lambda kx: kx[0])
    return (x, lg.labels[x], violates(lg, x))


def ref_witnesses(lg, tests):
    return {name: ref_witness(lg, test) for name, test in tests.items()}


def assert_matches_reference(lg):
    ref = ref_witnesses(lg, REF_PREDICATES)
    ref_report = ClassReport({p: w is None for p, w in ref.items()},
                             {p: w for p, w in ref.items() if w is not None},
                             lg.graph.describe_bound())
    report = classify(lg)
    assert report.to_dict() == ref_report.to_dict()
    assert list(report.witnesses.items()) == list(ref_report.witnesses.items())
    for pred in PREDICATES:
        assert find_witness(lg, pred) == ref[pred], pred
    sm = check_sm_equivalences(lg)
    ref_sm = ref_witnesses(lg, REF_PET_CONDITIONS)
    assert sm.conditions == {n: w is None for n, w in ref_sm.items()}
    assert list(sm.witnesses.items()) == [(n, w) for n, w in ref_sm.items()
                                          if w is not None]


random_dags = st.builds(lambda seed, p: random_dag(random.Random(seed), 20, p),
                        st.integers(0, 2**32 - 1), st.floats(0.2, 0.5))


@settings(max_examples=300, deadline=None)
@given(random_dags)
# the returnable witness 7 has an option into V10 before its stuck option 5
@example(graph_from_adjacency({0: [], 1: [0], 2: [0, 1], 3: [2], 4: [2, 3],
                               5: [2, 3, 4], 6: [1, 3, 4, 5], 7: [1, 5, 6],
                               8: [2, 4, 5]}))
def test_classification_matches_reference_on_random_dags(graph):
    assert_matches_reference(sg_labels(graph))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_classification_matches_reference_on_fixtures(name):
    assert_matches_reference(labeled_fixture(name))


@settings(max_examples=300, deadline=None)
@given(random_dags)
def test_solver_sets_verify_exactly_when_in_class(graph):
    # the candidate-set theorems, instantiated with the solver's own sets:
    # the conditions hold exactly when the game is in the target class
    lg = sg_labels(graph)
    cand = CandidateSets(lg.vset(0, 1), lg.vset(1, 0),
                         lg.vset(0, 0), lg.vset(1, 1))
    verdicts = classify(lg).verdicts
    for target in ("pet", "miserable", "tame", "domestic"):
        report = verify_candidate_sets(graph, cand, target)
        assert report.conditions_ok == verdicts[target], target
