"""Acceptance gate: seven exact-reproduction criteria with runtime budgets.

Every comparison is exact integer equality (tolerance 0).  Each criterion
prints a single pass/fail line; run with ``pytest -s`` to see them inline.

The criteria run the batteries of ``grundylab.suites`` (the code behind
``verify``), at larger sizes or over the extra instances defined here.
"""

import functools
import random
import time

from grundylab import enumerate_subgame, sg_labels, sum_graph
from grundylab import suites
from grundylab.fixtures import FIXTURE_NAMES, fixture_graph
from grundylab.zoo import box_roots, make_family


def _report(num, desc, res, start, limit):
    elapsed = time.perf_counter() - start
    status = "PASS" if res.ok else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {status} "
          f"[{elapsed:.2f}s, limit {limit}s]")
    failed = [(name, detail) for name, ok, detail in res.checks if not ok]
    assert not failed, f"criterion {num} ({desc}) failed: {failed}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def tame_summands():
    """Criterion 3's nine tame summands, as (name, graph)."""
    return [suites.fixture_summand(name) for name in (
        "tame_not_pet", "tame_not_miserable", "pet", "abc_chain", "sodo_g2")
    ] + [suites.family_summand(family, root) for family, root in (
        ("nim", (2, 3)), ("nim", (1, 4)), ("euclid_grossman", (2, 5)),
        ("euclid_cd", (6, 4)))]


# the gate's own oracle instances: every position of the box 60
@functools.lru_cache(maxsize=None)
def oracle_graphs():
    out = {(a, b): enumerate_subgame(make_family("wyt_ab", {"a": a, "b": b}),
                                     box_roots(2, 60))
           for a, b in suites.WYT_AB_PAIRS}
    out["wythoff"] = enumerate_subgame(make_family("wythoff"),
                                       box_roots(2, 60))
    return out


# family, params, roots, expected verdicts; the ho_nim rows are the cycle and
# path rows of suites.HO_NIM_VERDICTS, from every position of the box 3
VERDICT_CASES = [
    ("nim", {}, box_roots(3, 3), {"miserable": True, "forced": True}),
    ("euclid_cd", {}, box_roots(2, 25), {"miserable": True, "forced": True}),
    ("euclid_grossman", {}, box_roots(2, 25, floor=1),
     {"miserable": True, "forced": True}),
    ("wythoff", {}, box_roots(2, 25),
     {"miserable": True, "returnable": True, "forced": False, "pet": False}),
    ("wyt_a", {"a": 2}, box_roots(2, 25), {"pet": True}),
    ("wyt_a", {"a": 3}, box_roots(2, 25), {"pet": True}),
    ("wyt_ab", {"a": 1, "b": 1}, box_roots(2, 25),
     {"pet": False, "miserable": True, "returnable": True}),
    ("wyt_ab", {"a": 2, "b": 1}, box_roots(2, 25), {"pet": True}),
    ("wyt_ab", {"a": 3, "b": 1}, box_roots(2, 25), {"pet": True}),
    ("wyt_ab", {"a": 1, "b": 2}, box_roots(2, 25),
     {"pet": False, "miserable": True, "returnable": True}),
    ("wyt_ab", {"a": 2, "b": 2}, box_roots(2, 25), {"pet": True}),
    ("wyt_ab", {"a": 2, "b": 3}, box_roots(2, 25), {"pet": True}),
    ("mark", {}, [(20,)], {"domestic": False}),
    ("moore_nim", {"n": 3, "k": 2}, box_roots(3, 3), {"miserable": True}),
    ("moore_nim", {"n": 4, "k": 2}, box_roots(4, 3), {"miserable": True}),
    ("moore_nim", {"n": 4, "k": 3}, box_roots(4, 3), {"miserable": True}),
    ("extended_nim", {"n": 3, "k": 2}, box_roots(4, 3), {"miserable": True}),
    ("extended_nim", {"n": 4, "k": 2}, box_roots(5, 3), {"miserable": True}),
    ("exact_nim", {"n": 4, "k": 2}, box_roots(4, 3), {"miserable": True}),
    ("exact_nim", {"n": 6, "k": 3}, box_roots(6, 3), {"miserable": True}),
    ("exact_nim", {"n": 3, "k": 2}, box_roots(3, 3), {"pet": True}),
    ("exact_nim", {"n": 5, "k": 3}, box_roots(5, 3), {"pet": True}),
    ("exact_nim", {"n": 5, "k": 2}, box_roots(5, 3), {"domestic": False}),
    ("slow_nim", {"n": 3, "k": 2}, box_roots(3, 3), {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 3}, box_roots(4, 3), {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 4}, box_roots(4, 3), {"miserable": True}),
    ("slow_nim", {"n": 4, "k": 2}, box_roots(4, 3), {"domestic": False}),
] + [("ho_nim", params, box_roots(len(root), 3), expected)
     for params, root, expected in suites.HO_NIM_VERDICTS if "n" in params]


def subtraction_sets():
    return suites.subtraction_sets(random.Random(0), 25)


@functools.lru_cache(maxsize=None)
def verdict_graphs():
    """(name, graph, expected verdicts) per verdict row and subtraction set."""
    rows = VERDICT_CASES + [("subtraction", {"x": tuple(sorted(xs))}, [(200,)],
                             {"pet": True}) for xs in subtraction_sets()]
    return [(f"{family}{params}",
             enumerate_subgame(make_family(family, params, use_symmetry=True),
                               roots), expected)
            for family, params, roots, expected in rows]


# --- criteria ----------------------------------------------------------------

def test_criterion_1_fixture_suite():
    start = time.perf_counter()
    _report(1, "fixture suite", suites.suite_fixtures(), start, 1)


def test_criterion_2_hierarchy_theorems():
    start = time.perf_counter()
    res = suites.suite_equalities(0, 1000, 12)
    _report(2, "hierarchy and equality theorems, 1000 random games",
            res, start, 30)


def test_criterion_3_sum_laws():
    start = time.perf_counter()
    res = suites.suite_sums(0, 200)
    suites.check_tame_closure(res, tame_summands())
    _report(3, "sum laws", res, start, 60)


def test_criterion_4_zoo_spot_checks():
    start = time.perf_counter()
    res = suites.SuiteResult("label_spots", 0)
    suites.check_label_spots(res, suites.LABEL_SPOTS)
    _report(4, "named position labels", res, start, 60)


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    res = suites.SuiteResult("oracles", 0)
    suites.check_beatty(res, 100_000)
    graphs = oracle_graphs()
    for a, b in suites.WYT_AB_PAIRS:
        lg = sg_labels(graphs[(a, b)])
        suites.check_wyt_ab(res, lg, a, b, 60)
        if b == 1:  # the wyt_a family's sequence covers the b = 1 games too
            suites.check_p_sets(res, f"wyt_a{a}_{{}}", lg, "wyt_a",
                                {"a": a}, 60)
    suites.check_wythoff(res, sg_labels(graphs["wythoff"]), 60)
    _report(5, "closed-form oracles", res, start, 120)


def test_criterion_6_family_verdicts():
    start = time.perf_counter()
    res = suites.SuiteResult("verdicts", 0)
    for name, graph, expected in verdict_graphs():
        suites.check_verdicts(res, name, graph, expected)
    suites.check_ferguson(res, subtraction_sets())
    _report(6, "family class verdicts", res, start, 300)


def test_criterion_7_misere_transform_equivalence():
    start = time.perf_counter()
    instances = [(f"fixture:{name}", fixture_graph(name))
                 for name in FIXTURE_NAMES]
    instances.append(("sodo_sum", sum_graph(suites.sodo_summands())))
    instances.extend((f"tame_sum:{name}", sum_graph(graphs))
                     for name, graphs in suites.summand_pairs(tame_summands()))
    instances.extend((f"spot:{family}{params}{pos}",
                      suites.spot_graph(family, params, pos))
                     for family, params, pos, _ in suites.LABEL_SPOTS)
    instances.extend((f"oracle:{key}", graph)
                     for key, graph in oracle_graphs().items())
    instances.extend((name, graph) for name, graph, _ in verdict_graphs())
    res = suites.SuiteResult("adjoined_terminal", 0)
    for name, graph in instances:
        res.add(name, not suites.misere_mismatches(graph, sg_labels(graph)))
    _report(7, f"adjoined-terminal equivalence on {len(instances)} instances",
            res, start, 300)
