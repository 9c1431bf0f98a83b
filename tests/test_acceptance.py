"""Acceptance gate: seven exact-reproduction criteria with runtime budgets.

Every comparison is exact integer equality (tolerance 0).  Each criterion
prints a single pass/fail line; run with ``pytest -s`` to see them inline.
"""

import functools
import random
import time

from grundylab import (
    CandidateSets,
    GameDef,
    check_closure,
    check_sm_equivalences,
    classify,
    enumerate_subgame,
    load_fixture,
    sg_labels,
    sum_graph,
    tame_sum_label,
    verify_candidate_sets,
)
from grundylab.fixtures import FIXTURE_NAMES, fixture_roots
from grundylab.grundy import misere_via_adjoined_terminal
from grundylab.random_games import random_dag
from grundylab.zoo import (
    BeattyPair,
    box_roots,
    ferguson_check,
    make_family,
    wyt_a_sequence,
    wyt_ab_sequence,
    wythoff_p,
)


def _report(num, desc, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {status} "
          f"[{elapsed:.2f}s, limit {limit}s]")
    assert ok, f"criterion {num} ({desc}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


# --- shared instance builders (cached so criterion 7 can revisit them) -------

@functools.lru_cache(maxsize=None)
def fixture_graph(name):
    return enumerate_subgame(load_fixture(name), fixture_roots(name))


@functools.lru_cache(maxsize=None)
def sodo_sum_graph():
    return sum_graph([load_fixture("sodo_g1"), load_fixture("sodo_g2")],
                     [("E", "Y")])


def _tame_pair_instances():
    out = []
    for name in ("tame_not_pet", "tame_not_miserable", "pet", "abc_chain",
                 "sodo_g2"):
        out.append((f"fixture:{name}", load_fixture(name),
                    tuple(fixture_roots(name))))
    out.append(("nim:2,3", make_family("nim"), ((2, 3),)))
    out.append(("nim:1,4", make_family("nim"), ((1, 4),)))
    out.append(("euclid_grossman:2,5", make_family("euclid_grossman"),
                ((2, 5),)))
    out.append(("euclid_cd:6,4", make_family("euclid_cd"), ((6, 4),)))
    return out


@functools.lru_cache(maxsize=None)
def tame_pair_graphs():
    instances = _tame_pair_instances()
    out = []
    for i, (na, ga, ra) in enumerate(instances):
        for nb, gb, rb in instances[i:]:
            roots = [(x, y) for x in ra for y in rb]
            out.append((f"{na}+{nb}", (ga, gb), tuple(roots),
                        sum_graph([ga, gb], roots)))
    return out


SPOT_CHECKS = [
    ("mark", {}, (8,), (0, 2)),
    ("wythoff", {}, (3, 5), (0, 0)),
    ("exact_nim", {"n": 5, "k": 2}, (1, 2, 3, 3, 3), (0, 2)),
    ("slow_nim", {"n": 4, "k": 2}, (1, 1, 2, 3), (4, 0)),
    ("ho_nim", {"shape": "cycle", "n": 5}, (2, 0, 1, 1, 1), (5, 1)),
    ("ho_nim", {"shape": "cycle", "n": 6}, (1, 1, 1, 1, 1, 1), (0, 2)),
    ("ho_nim", {"shape": "path", "n": 4}, (1, 1, 1, 2), (5, 1)),
    ("ho_nim", {"shape": "path", "n": 5}, (1, 1, 1, 2, 0), (5, 1)),
    ("ho_nim", {"shape": "path", "n": 6}, (1, 0, 1, 1, 1, 2), (4, 0)),
    ("ho_nim", {"shape": "conj2"}, (1, 2, 2, 2), (7, 1)),
    ("ho_nim", {"shape": "conj1"}, (1, 1, 1, 1, 1), (1, 5)),
]


@functools.lru_cache(maxsize=None)
def spot_check_graphs():
    out = []
    for family, params, pos, expected in SPOT_CHECKS:
        game = make_family(family, params)
        graph = enumerate_subgame(game, [pos])
        out.append((family, params, pos, expected, graph))
    return out


ORACLE_PAIRS = ((2, 1), (3, 1), (1, 2), (2, 2), (2, 3))


@functools.lru_cache(maxsize=None)
def oracle_graphs():
    out = {}
    for a, b in ORACLE_PAIRS:
        game = make_family("wyt_ab", {"a": a, "b": b})
        out[(a, b)] = enumerate_subgame(game, box_roots(2, 60))
    out["wythoff"] = enumerate_subgame(make_family("wythoff"),
                                       box_roots(2, 60))
    return out


VERDICT_CASES = [
    # family, params, roots builder, symmetry, expected verdict subset
    ("nim", {}, lambda: box_roots(3, 3), True,
     {"miserable": True, "forced": True}),
    ("euclid_cd", {}, lambda: box_roots(2, 25), True,
     {"miserable": True, "forced": True}),
    ("euclid_grossman", {}, lambda: box_roots(2, 25, floor=1), True,
     {"miserable": True, "forced": True}),
    ("wythoff", {}, lambda: box_roots(2, 25), True,
     {"miserable": True, "returnable": True, "forced": False, "pet": False}),
    ("wyt_a", {"a": 2}, lambda: box_roots(2, 25), True, {"pet": True}),
    ("wyt_a", {"a": 3}, lambda: box_roots(2, 25), True, {"pet": True}),
    ("wyt_ab", {"a": 1, "b": 1}, lambda: box_roots(2, 25), True,
     {"pet": False, "miserable": True, "returnable": True}),
    ("wyt_ab", {"a": 2, "b": 1}, lambda: box_roots(2, 25), True,
     {"pet": True}),
    ("wyt_ab", {"a": 3, "b": 1}, lambda: box_roots(2, 25), True,
     {"pet": True}),
    ("wyt_ab", {"a": 1, "b": 2}, lambda: box_roots(2, 25), True,
     {"pet": False, "miserable": True, "returnable": True}),
    ("wyt_ab", {"a": 2, "b": 2}, lambda: box_roots(2, 25), True,
     {"pet": True}),
    ("wyt_ab", {"a": 2, "b": 3}, lambda: box_roots(2, 25), True,
     {"pet": True}),
    ("mark", {}, lambda: [(20,)], False, {"domestic": False}),
    ("moore_nim", {"n": 3, "k": 2}, lambda: box_roots(3, 3), True,
     {"miserable": True}),
    ("moore_nim", {"n": 4, "k": 2}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("moore_nim", {"n": 4, "k": 3}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("extended_nim", {"n": 3, "k": 2}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("extended_nim", {"n": 4, "k": 2}, lambda: box_roots(5, 3), True,
     {"miserable": True}),
    ("exact_nim", {"n": 4, "k": 2}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("exact_nim", {"n": 6, "k": 3}, lambda: box_roots(6, 3), True,
     {"miserable": True}),
    ("exact_nim", {"n": 3, "k": 2}, lambda: box_roots(3, 3), True,
     {"pet": True}),
    ("exact_nim", {"n": 5, "k": 3}, lambda: box_roots(5, 3), True,
     {"pet": True}),
    ("exact_nim", {"n": 5, "k": 2}, lambda: box_roots(5, 3), True,
     {"domestic": False}),
    ("slow_nim", {"n": 3, "k": 2}, lambda: box_roots(3, 3), True,
     {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 3}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 4}, lambda: box_roots(4, 3), True,
     {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 2}, lambda: box_roots(4, 3), True,
     {"domestic": False}),
    ("ho_nim", {"shape": "cycle", "n": 4}, lambda: box_roots(4, 3), True,
     {"miserable": True, "forced": True}),
    ("ho_nim", {"shape": "cycle", "n": 5}, lambda: box_roots(5, 3), True,
     {"domestic": True, "tame": False}),
    ("ho_nim", {"shape": "cycle", "n": 6}, lambda: box_roots(6, 3), True,
     {"domestic": False}),
    ("ho_nim", {"shape": "path", "n": 3}, lambda: box_roots(3, 3), True,
     {"miserable": True}),
    ("ho_nim", {"shape": "path", "n": 4}, lambda: box_roots(4, 3), True,
     {"domestic": True, "tame": False}),
    ("ho_nim", {"shape": "path", "n": 5}, lambda: box_roots(5, 3), True,
     {"domestic": True, "tame": False}),
    ("ho_nim", {"shape": "path", "n": 6}, lambda: box_roots(6, 3), True,
     {"domestic": False}),
]


def _subtraction_sets(seed=0, count=25, max_element=12):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        xs = frozenset(rng.sample(range(1, max_element + 1),
                                  rng.randint(1, 5)))
        if xs not in sets:
            sets.append(xs)
    return sets


@functools.lru_cache(maxsize=None)
def verdict_graphs():
    out = []
    for family, params, roots, sym, expected in VERDICT_CASES:
        game = make_family(family, params, use_symmetry=sym)
        out.append((family, params, expected,
                    enumerate_subgame(game, roots())))
    for xs in _subtraction_sets():
        game = make_family("subtraction", {"x": tuple(sorted(xs))})
        out.append(("subtraction", {"x": tuple(sorted(xs))}, {"pet": True},
                    enumerate_subgame(game, [(200,)])))
    return out


# --- criteria ----------------------------------------------------------------

def test_criterion_1_fixture_suite():
    start = time.perf_counter()
    expected = {
        "not_domestic": {"domestic": False},
        "domestic_not_tame": {"domestic": True, "tame": False},
        "tame_not_pet": {"tame": True, "pet": False,
                         "miserable": True, "strongly_miserable": False},
        "pet": {"pet": True},
        "not_returnable": {"returnable": False},
        "returnable_not_forced": {"returnable": True, "forced": False},
        "tame_not_miserable": {"tame": True, "miserable": False},
        "abc_chain": {"tame": True},
        "sodo_g1": {"domestic": True},
        "sodo_g2": {"domestic": True},
    }
    ok = True
    for name in FIXTURE_NAMES:
        verdicts = classify(sg_labels(fixture_graph(name))).verdicts
        ok &= all(verdicts[p] == v for p, v in expected[name].items())

    # candidate-set counterexample: structural conditions pass, sets differ
    graph = fixture_graph("abc_chain")
    cand = CandidateSets({"A"}, {"B"}, set(), set())
    partial = verify_candidate_sets(graph, cand, "tame", structural_only=True)
    ok &= partial.conditions_ok and not partial.sets_match
    ok &= not verify_candidate_sets(graph, cand, "tame").conditions_ok

    # domestic summands, non-domestic sum
    lg = sg_labels(sodo_sum_graph())
    ok &= tuple(lg.labels[("E", "Y")]) == (0, 3)
    ok &= not classify(lg).verdicts["domestic"]
    _report(1, "fixture suite", ok, time.perf_counter() - start, 1)


def test_criterion_2_hierarchy_theorems():
    start = time.perf_counter()
    implications = [
        ("pet", "tame"), ("tame", "domestic"),
        ("strongly_miserable", "miserable"),
        ("miserable", "t_miserable"),
        ("t_miserable", "weakly_miserable"),
        ("miserable", "tame"),
        ("strongly_miserable", "returnable"),
    ]
    equalities = [
        ("domestic", "weakly_miserable"),
        ("tame", "t_miserable"),
        ("pet", "strongly_miserable"),
    ]
    rng = random.Random(0)
    ok = True
    for _ in range(1000):
        lg = sg_labels(random_dag(rng, max_nodes=12))
        verdicts = classify(lg).verdicts
        for a, b in implications:
            ok &= (not verdicts[a]) or verdicts[b]
        for a, b in equalities:
            ok &= verdicts[a] == verdicts[b]
        ok &= check_sm_equivalences(lg).agree
    _report(2, "hierarchy and equality theorems, 1000 random games",
            ok, time.perf_counter() - start, 30)


def test_criterion_3_sum_laws():
    start = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for _ in range(200):
        games, nodesets = [], []
        for _ in range(2):
            dag = random_dag(rng, max_nodes=8)
            frozen = dict(dag.succ)
            games.append(GameDef("r", {}, lambda p, fr=frozen: list(fr[p])))
            nodesets.append(list(frozen))
        comp = [sg_labels(enumerate_subgame(g, ns))
                for g, ns in zip(games, nodesets)]
        roots = [(x, y) for x in nodesets[0] for y in nodesets[1]]
        lg = sg_labels(sum_graph(games, roots))
        for (p0, p1), lab in lg.labels.items():
            ok &= lab.g == comp[0].labels[p0].g ^ comp[1].labels[p1].g

    # tame summand pairs: sum tame, every label matches the parity law
    for name, (ga, gb), roots, graph in tame_pair_graphs():
        lg = sg_labels(graph)
        comp_a = sg_labels(enumerate_subgame(ga, {r[0] for r in roots}))
        comp_b = sg_labels(enumerate_subgame(gb, {r[1] for r in roots}))
        ok &= classify(lg).verdicts["tame"]
        for (pa, pb), lab in lg.labels.items():
            predicted = tame_sum_label([comp_a.labels[pa], comp_b.labels[pb]])
            ok &= tuple(predicted) == tuple(lab)
        both_miserable = all(
            classify(c).verdicts["miserable"] for c in (comp_a, comp_b))
        if both_miserable:
            ok &= classify(lg).verdicts["miserable"]

    nim = make_family("nim")
    forced = check_closure("forced", [nim, nim], [((2, 3), (1, 4))])
    ok &= forced.holds

    lg = sg_labels(sodo_sum_graph())
    ok &= tuple(lg.labels[("E", "Y")]) == (0, 3)
    _report(3, "sum laws", ok, time.perf_counter() - start, 60)


def test_criterion_4_zoo_spot_checks():
    start = time.perf_counter()
    ok = True
    for family, params, pos, expected, graph in spot_check_graphs():
        lab = tuple(sg_labels(graph).labels[pos])
        ok &= lab == expected
    _report(4, "named position labels", ok, time.perf_counter() - start, 60)


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    ok = True

    # Beatty formula vs the mex recursion, exact integers throughout
    used = set()
    x = 0
    for n in range(100_001):
        pair = BeattyPair(n)
        ok &= (pair.x, pair.y) == (x, x + n)
        used.add(x)
        used.add(x + n)
        while x in used:
            x += 1

    graphs = oracle_graphs()
    bound = 60
    for a, b in ORACLE_PAIRS:
        lg = sg_labels(graphs[(a, b)])
        for conv, attr in (("normal", "g"), ("misere", "g_minus")):
            if b == 1:
                seq = (wyt_a_sequence(a, 2 * bound, conv) if a >= 2
                       else [wythoff_p(i, conv) for i in range(2 * bound)])
            else:
                seq = wyt_ab_sequence(a, b, 2 * bound, conv)
            predicted = set()
            for px, py in seq:
                if max(px, py) <= bound:
                    predicted.update({(px, py), (py, px)})
            solver = {p for p, lab in lg.labels.items()
                      if getattr(lab, attr) == 0}
            ok &= predicted == solver
            # the wyt_ab recursion covers its b=1 special cases as well
            if b == 1:
                seq2 = wyt_ab_sequence(a, b, 2 * bound, conv)
                pred2 = {q for px, py in seq2 if max(px, py) <= bound
                         for q in ((px, py), (py, px))}
                ok &= pred2 == solver

    lg = sg_labels(graphs["wythoff"])
    normal = {p for p, lab in lg.labels.items() if lab.g == 0}
    misere = {p for p, lab in lg.labels.items() if lab.g_minus == 0}
    ok &= normal ^ misere == {(0, 0), (1, 2), (2, 1),
                              (0, 1), (1, 0), (2, 2)}
    _report(5, "closed-form oracles", ok, time.perf_counter() - start, 120)


def test_criterion_6_family_verdicts():
    start = time.perf_counter()
    ok = True
    for family, params, expected, graph in verdict_graphs():
        verdicts = classify(sg_labels(graph)).verdicts
        for pred, want in expected.items():
            ok &= verdicts[pred] == want
    for xs in _subtraction_sets():
        ok &= ferguson_check(xs, 200).ok
    _report(6, "family class verdicts", ok, time.perf_counter() - start, 300)


def test_criterion_7_misere_transform_equivalence():
    start = time.perf_counter()
    graphs = [fixture_graph(name) for name in FIXTURE_NAMES]
    graphs.append(sodo_sum_graph())
    graphs.extend(g for _, _, _, g in tame_pair_graphs())
    graphs.extend(g for _, _, _, _, g in spot_check_graphs())
    graphs.extend(oracle_graphs().values())
    graphs.extend(g for _, _, _, g in verdict_graphs())
    ok = True
    for graph in graphs:
        lg = sg_labels(graph)
        mis = misere_via_adjoined_terminal(graph)
        ok &= all(mis[x] == lg.labels[x].g_minus for x in graph.nodes)
    _report(7, f"adjoined-terminal equivalence on {len(graphs)} instances",
            ok, time.perf_counter() - start, 300)
