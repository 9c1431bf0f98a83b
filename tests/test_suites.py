"""The equalities suite against a one-graph-at-a-time reference."""

import random
from array import array

import pytest

from grundylab import enumerate_subgame, suites
from grundylab.classify import check_sm_equivalences, classify
from grundylab.core import BoxGraph
from grundylab.grundy import LabeledGraph, sg_labels, verify_sg_consistency
from grundylab.random_games import random_dag
from grundylab.zoo import make_family


def per_graph_equalities(seed, samples, max_nodes=12):
    """``suite_equalities``' checks and details, each graph labelled and
    classified on its own."""
    rng = random.Random(seed)
    bad_impl, bad_eq, bad_sm, bad_cons, bad_misere = [], [], [], [], []
    for i in range(samples):
        graph = random_dag(rng, max_nodes)
        lg = sg_labels(graph)
        verdicts = classify(lg).verdicts
        bad_impl += [(i, a, b) for a, b in suites.HIERARCHY
                     if verdicts[a] and not verdicts[b]]
        bad_eq += [(i, a, b) for a, b in suites.EQUALITIES
                   if verdicts[a] != verdicts[b]]
        if not check_sm_equivalences(lg).agree:
            bad_sm.append(i)
        if not verify_sg_consistency(lg).ok:
            bad_cons.append(i)
        if suites.misere_mismatches(graph, lg):
            bad_misere.append(i)
    res = suites.SuiteResult("equalities", seed)
    res.add("hierarchy_implications", not bad_impl,
            f"violations {bad_impl[:3]}")
    res.add("class_equalities", not bad_eq, f"violations {bad_eq[:3]}")
    res.add("six_pet_conditions_agree", not bad_sm, f"graphs {bad_sm[:3]}")
    res.add("value_consistency", not bad_cons, f"graphs {bad_cons[:3]}")
    res.add("adjoined_terminal_equivalence", not bad_misere,
            f"graphs {bad_misere[:3]}")
    res.add("sample_count", True, f"{samples} random graphs, seed {seed}")
    return res


def test_planted_violations_are_reported_by_graph_index(monkeypatch):
    # neither claim is a theorem: returnable games need not be forced, and
    # tame games need not be pet
    monkeypatch.setattr(suites, "HIERARCHY", [("returnable", "forced")])
    monkeypatch.setattr(suites, "EQUALITIES", [("tame", "pet")])
    got = suites.suite_equalities(0).to_dict()
    want = per_graph_equalities(0, 1000).to_dict()
    assert got == want
    failed = {c["name"]: c["detail"] for c in got["checks"] if not c["ok"]}
    assert set(failed) == {"hierarchy_implications", "class_equalities"}
    assert failed["hierarchy_implications"].startswith(
        "violations [(1, 'returnable', 'forced'), ")


@pytest.mark.parametrize("seed", [0, 3])
def test_samples_across_a_batch_boundary_equal_the_per_graph_reference(seed):
    # two batch boundaries at the batch size of 1,000
    got = suites.run_suite("equalities", seed, 2500)
    assert got.to_dict() == per_graph_equalities(seed, 2500).to_dict()


@pytest.mark.parametrize("samples, target", [(1000, 0), (1000, 617),
                                             (1000, 999), (2500, 1000),
                                             (2500, 2499)])
def test_a_corrupted_component_is_reported_at_its_index(monkeypatch, samples,
                                                        target):
    batch, k = divmod(target, suites.UNION_BATCH)
    batches = []

    def labels_with_one_wrong_misere_value(graph):
        lg = sg_labels(graph)
        if len(batches) == batch:
            x = next(x for x, (c, _) in enumerate(graph.positions) if c == k)
            g_minus = array("i", lg.g_minus)
            g_minus[x] += 1
            # the words of the true labels: the suite classifies these
            lg = LabeledGraph(graph, lg.g, g_minus, lg.packed_masks)
        batches.append(graph)
        return lg

    monkeypatch.setattr(suites, "sg_labels", labels_with_one_wrong_misere_value)
    details = {name: detail for name, _, detail
               in suites.suite_equalities(0, samples).checks}
    assert len(batches) == -(-samples // suites.UNION_BATCH)
    assert details["value_consistency"] == f"graphs [{target}]"
    assert details["adjoined_terminal_equivalence"] == f"graphs [{target}]"


# full boxes that verify checks, each against its enumeration under the
# family's symmetry hook: Wythoff's box 25, each cycle root of the verdict
# rows, and the cycles of the zero-set checks at box 3
SYMMETRIC_CASES = [("wythoff", {}, (25, 25))] + [
    ("ho_nim", params, root) for params, root, _ in suites.HO_NIM_VERDICTS
    if params["shape"] == "cycle"] + [
    ("ho_nim", {"shape": "cycle", "n": n}, (3,) * n) for n in (4, 5)]


@pytest.mark.parametrize(
    "family, params, root", SYMMETRIC_CASES,
    ids=[f"{family}{params.get('n', '')}-{root[0]}"
         for family, params, root in SYMMETRIC_CASES])
def test_symmetric_labels_equal_the_full_box(family, params, root):
    game = make_family(family, params, use_symmetry=True)
    sym = sg_labels(enumerate_subgame(game, [root]))
    full = sg_labels(enumerate_subgame(make_family(family, params), [root]))
    assert isinstance(full.graph, BoxGraph)
    assert not isinstance(sym.graph, BoxGraph)
    # the symmetric graph holds exactly the box's canonical positions
    assert set(sym.graph.positions) == set(map(game.canon,
                                               full.graph.positions))
    assert [full.label(p) for p in sym.graph.positions] == [
        sym.label(p) for p in sym.graph.positions]
