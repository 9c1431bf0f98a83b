"""Named verification batteries behind the ``verify`` command.

Each suite returns a SuiteResult with one entry per check; a check is a
(name, ok, detail) triple.  Suites are deterministic given the seed.

The case tables and ``check_*`` functions below are the only definition of
each battery.  The acceptance gate (``tests/test_acceptance.py``) runs the
same functions, at its own larger sizes or over its own extra instances.
"""

from __future__ import annotations

import random
from itertools import compress
from operator import ne, not_

from .core import InvalidParams, UnsupportedParams, enumerate_subgame
from .fixtures import FIXTURE_NAMES, fixture_graph, load_fixture
from .grundy import (misere_via_adjoined_terminal, sg_labels,
                     verify_sg_consistency)
from .classify import (PET_CONDITIONS, CandidateSets, classify,
                       verify_candidate_sets, violated_rows)
from .random_games import random_dag_union
from .sums import check_closure, pair_sum_union, sum_graph
from . import zoo

class SuiteResult:
    def __init__(self, suite: str, seed: int, checks: list | None = None):
        self.suite = suite
        self.seed = seed
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in self.checks],
        }


def check_sizes(samples: int, max_nodes: int):
    """Raise InvalidParams unless both sizes are at least 1."""
    if samples < 1 or max_nodes < 1:
        raise InvalidParams(f"samples ({samples}) and max_nodes "
                            f"({max_nodes}) must be at least 1")


def run_suite(name: str, seed: int = 0, samples: int = 1000,
              max_nodes: int = 12) -> SuiteResult:
    """Run the named suite; raise InvalidParams for an unknown name or a
    size below 1."""
    check_sizes(samples, max_nodes)
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise InvalidParams(f"unknown suite {name!r}; known: "
                            f"{', '.join(SUITES)}") from None
    return runner(seed, samples, max_nodes)


def _tag(family, params):
    """A case name: the shape and size for ho_nim, else the family."""
    if family == "ho_nim":
        return params["shape"] + str(params.get("n", ""))
    return family


def check_verdicts(res, name, graph, expected):
    """Classify ``graph`` and compare the verdicts named in ``expected``."""
    verdicts = classify(sg_labels(graph)).verdicts
    bad = {p: verdicts[p] for p in expected if verdicts[p] != expected[p]}
    res.add(name, not bad, f"unexpected {bad}" if bad else "")


# the caption facts each bundled example exists to demonstrate
FIXTURE_EXPECTATIONS = {
    "not_domestic": {"domestic": False, "forced": True, "returnable": True},
    "domestic_not_tame": {"domestic": True, "tame": False},
    "tame_not_pet": {"tame": True, "pet": False,
                     "miserable": True, "strongly_miserable": False},
    "pet": {"pet": True, "strongly_miserable": True},
    "not_returnable": {"returnable": False},
    "returnable_not_forced": {"returnable": True, "forced": False},
    "tame_not_miserable": {"tame": True, "miserable": False},
    "abc_chain": {"pet": True, "tame": True},
    "sodo_g1": {"domestic": True, "tame": False},
    "sodo_g2": {"domestic": True, "pet": True},
}


def suite_fixtures(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("fixtures", seed)
    for name in FIXTURE_NAMES:
        lg = sg_labels(fixture_graph(name))
        report = classify(lg)
        expected = FIXTURE_EXPECTATIONS[name]
        bad = {p: report.verdicts[p] for p in expected
               if report.verdicts[p] != expected[p]}
        res.add(f"fixture:{name}", not bad,
                f"unexpected verdicts {bad}" if bad else "verdicts match")

    # three-node chain: structural conditions alone admit wrong swap sets
    graph = enumerate_subgame(load_fixture("abc_chain"), ["C"])
    cand = CandidateSets({"A"}, {"B"}, set(), set())
    partial = verify_candidate_sets(graph, cand, "tame", structural_only=True)
    full = verify_candidate_sets(graph, cand, "tame")
    res.add("abc_chain:structural_pass_but_sets_differ",
            partial.conditions_ok and not partial.sets_match,
            f"failures={partial.failures} mismatches={partial.set_mismatches}")
    res.add("abc_chain:covering_condition_rejects",
            not full.conditions_ok, f"failures={full.failures[:2]}")

    # two domestic summands whose sum is not domestic
    lg = sg_labels(sum_graph(sodo_summands()))
    lab = tuple(lg.labels[("E", "Y")])
    res.add("sodo_sum:root_label", lab == (0, 3), f"label {lab}")
    res.add("sodo_sum:not_domestic",
            not classify(lg).verdicts["domestic"], "")
    return res


# (a, b): every game in class a is in class b
HIERARCHY = [
    ("pet", "tame"),
    ("tame", "domestic"),
    ("strongly_miserable", "miserable"),
    ("miserable", "t_miserable"),
    ("t_miserable", "weakly_miserable"),
    ("miserable", "tame"),
    ("strongly_miserable", "returnable"),
    ("forced", "returnable"),
]

# (a, b): a game is in class a exactly when it is in class b
EQUALITIES = [
    ("domestic", "weakly_miserable"),
    ("tame", "t_miserable"),
    ("pet", "strongly_miserable"),
]


def misere_mismatches(graph, lg) -> list:
    """The ascending node numbers of ``graph`` whose value in normal play on
    ``graph``, with one terminal adjoined below its terminals, differs from
    their misère value in ``lg``."""
    return list(compress(range(len(graph)),
                         map(ne, misere_via_adjoined_terminal(graph),
                             lg.g_minus)))


# random graphs checked per disjoint union, so that memory stays bounded at
# any sample count
UNION_BATCH = 1000


def suite_equalities(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    """The class hierarchy, the class equalities, the six pet conditions,
    SG consistency and the adjoined-terminal misere values on ``samples``
    random graphs.  The graphs are checked a batch at a time, as the
    components of one disjoint union, and every violation is reported by
    its graph's index in the sample."""
    res = SuiteResult("equalities", seed)
    rng = random.Random(seed)
    bad_impl, bad_eq, bad_sm, bad_cons, bad_misere = [], [], [], [], []
    for first in range(0, samples, UNION_BATCH):
        graph, starts = random_dag_union(
            rng, min(UNION_BATCH, samples - first), max_nodes)
        lg = sg_labels(graph)
        for i, bad in enumerate(violated_rows(lg, starts), first):
            for a, b in HIERARCHY:
                if b in bad and a not in bad:
                    bad_impl.append((i, a, b))
            for a, b in EQUALITIES:
                if (a in bad) != (b in bad):
                    bad_eq.append((i, a, b))
            if not (bad.isdisjoint(PET_CONDITIONS)
                    or bad.issuperset(PET_CONDITIONS)):
                bad_sm.append(i)
        # a union's positions are (component, position) pairs
        bad_cons += sorted({first + k for (k, _), _, _
                            in verify_sg_consistency(lg).violations})
        bad_misere += sorted({first + graph.positions[x][0]
                              for x in misere_mismatches(graph, lg)})
        # freed before the next batch is built, so that only one is held
        del graph, lg
    res.add("hierarchy_implications", not bad_impl, f"violations {bad_impl[:3]}")
    res.add("class_equalities", not bad_eq, f"violations {bad_eq[:3]}")
    res.add("six_pet_conditions_agree", not bad_sm, f"graphs {bad_sm[:3]}")
    res.add("value_consistency", not bad_cons, f"graphs {bad_cons[:3]}")
    res.add("adjoined_terminal_equivalence", not bad_misere,
            f"graphs {bad_misere[:3]}")
    res.add("sample_count", True, f"{samples} random graphs, seed {seed}")
    return res


def check_xor_pairs(res, rng, pairs):
    """The XOR rule on every position of ``pairs`` sums of two random DAGs
    of at most 8 nodes.  The summands are drawn into one union and the
    sums written into another (``pair_sum_union``), so each is labelled
    once."""
    graph, starts = random_dag_union(rng, 2 * pairs, 8)
    g = sg_labels(graph).g
    sums, _ = pair_sum_union(graph, starts)
    # pair k's node (i, j) is its base + i·N₂ + j, in pair order
    want = [a ^ b for k in range(0, 2 * pairs, 2)
            for a in g[starts[k]:starts[k + 1]]
            for b in g[starts[k + 1]:starts[k + 2]]]
    positions = sums.positions
    bad = [positions[x] for x in compress(range(len(sums)),
                                          map(ne, sg_labels(sums).g, want))]
    res.add("xor_rule_random_pairs", not bad,
            f"{pairs} pairs; violations {bad[:3]}")


def fixture_summand(name):
    """A fixture as a (name, graph) summand, rooted at its source nodes."""
    return f"fixture:{name}", fixture_graph(name)


def family_summand(family, root):
    """A family's subgame below ``root`` as a (name, graph) summand."""
    return f"{family}:{','.join(map(str, root))}", spot_graph(family, {}, root)


def sodo_summands():
    """The two domestic fixtures whose sum is not domestic, rooted at E
    and Y."""
    return [enumerate_subgame(load_fixture(name), [root])
            for name, root in (("sodo_g1", "E"), ("sodo_g2", "Y"))]


def summand_pairs(summands):
    """(name, graphs) for each pair of (name, graph) summands, a summand
    paired with itself included."""
    for i, (na, ga) in enumerate(summands):
        for nb, gb in summands[i:]:
            yield f"{na}+{nb}", [ga, gb]


def check_tame_closure(res, summands):
    """For each pair of ``summands``: both are tame, their sum is tame, every
    sum label is ``tame_sum_label``'s, and the sum is miserable when both
    summands are."""
    for name, graphs in summand_pairs(summands):
        report = check_closure("tame", graphs)
        parts = [r.verdicts for r in report.summand_reports]
        ok = (all(v["tame"] for v in parts) and report.holds
              and report.fast_path_ok
              and (report.sum_report.verdicts["miserable"]
                   or not all(v["miserable"] for v in parts)))
        res.add(f"tame_closure:{name}", ok,
                f"label mismatches {report.label_mismatches[:3]}")


def suite_sums(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("sums", seed)
    check_xor_pairs(res, random.Random(seed), max(1, min(200, samples)))
    check_tame_closure(res, [
        fixture_summand("tame_not_pet"),
        fixture_summand("tame_not_miserable"),
        family_summand("nim", (3, 4)),
        family_summand("euclid_grossman", (2, 5)),
    ])

    forced = check_closure("forced", [spot_graph("nim", {}, (2, 3)),
                                      spot_graph("nim", {}, (1, 4))])
    res.add("nim_sum_forced", forced.holds and
            forced.sum_report.verdicts["miserable"], "")

    report = check_closure("domestic", sodo_summands())
    res.add("domestic_not_closed", not report.holds,
            "domestic summands, non-domestic sum")

    pile = spot_graph("nim", {}, (2,))
    pair = check_closure("pet", [pile, pile])
    res.add("pet_not_closed", not pair.holds,
            "single-pile summands are pet, their sum has a (0,0)-position")
    return res


def subtraction_sets(rng, count, sets=()):
    """``sets``, then random sets of 1 to 5 elements of 1..12 not yet
    drawn, until there are ``count``."""
    sets = [frozenset(xs) for xs in sets]
    while len(sets) < count:
        xs = frozenset(rng.sample(range(1, 13), rng.randint(1, 5)))
        if xs not in sets:
            sets.append(xs)
    return sets


def check_ferguson(res, sets):
    """Ferguson's shift and escape laws for each subtraction set, to 200."""
    bad = []
    for xs in sets:
        report = zoo.ferguson_check(xs, 200)
        if not report.ok:
            bad.append((sorted(xs), report.failures[:2]))
    res.add("shift_and_escape_laws", not bad, f"{len(sets)} sets; failures {bad}")


def suite_ferguson(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("ferguson", seed)
    sets = subtraction_sets(random.Random(seed), 25,
                            [{1}, {1, 2}, {2, 3}, {1, 4}, {3, 5, 7}])
    check_ferguson(res, sets)

    pet_bad = []
    for xs in sets[:8]:
        game = zoo.make_family("subtraction", {"x": tuple(xs)})
        lg = sg_labels(enumerate_subgame(game, [(200,)]))
        if not classify(lg).verdicts["pet"]:
            pet_bad.append(sorted(xs))
    res.add("subtraction_games_pet", not pet_bad, f"failures {pet_bad}")
    return res


def check_beatty(res, n_max):
    """``BeattyPair(n)`` for n <= n_max against the mex recursion: x_n is the
    least number not in an earlier pair and y_n = x_n + n."""
    used, x, bad = set(), 0, []
    for n in range(n_max + 1):
        pair = zoo.BeattyPair(n)
        if (x, x + n) != (pair.x, pair.y):
            bad.append(n)
        used.update((x, x + n))
        while x in used:
            x += 1
    res.add("beatty_formula_vs_recursion", not bad,
            f"n <= {n_max}; mismatches {bad[:3]}")


def _zeros(lg, value):
    """The positions of ``lg`` whose ``value`` ("g" or "g_minus") is 0."""
    return set(compress(lg.graph.positions, map(not_, getattr(lg, value))))


def _box_pairs(pairs, bound):
    """The positions ``(x, y)`` and ``(y, x)`` for ``(x, y)`` in ``pairs``
    with both coordinates at most ``bound``."""
    return {(x, y) for p in pairs for x, y in (p, p[::-1])
            if max(x, y) <= bound}


def check_p_sets(res, name, lg, family, params, bound):
    """Per convention, the P-positions of the two-pile game ``lg``, the box
    of side ``bound``, are the box's pairs among those of index at most
    ``2 * bound`` of ``zoo.TABLE[family].p_sequence``, which ``table
    --p-sequence`` prints.  ``name`` is formatted with the convention."""
    sequence = zoo.TABLE[family].p_sequence
    for conv, value in (("normal", "g"), ("misere", "g_minus")):
        want = _box_pairs(sequence(params, 2 * bound, conv), bound)
        got = _zeros(lg, value)
        res.add(name.format(conv), want == got,
                f"diff {sorted(want ^ got)[:4]}")


def check_wythoff(res, lg, bound):
    """Wythoff's P-positions in ``lg`` (the box of side ``bound``) are its
    P-sequence's, and the conventions differ only at (0,0), (1,2), (0,1)
    and (2,2), in either order."""
    check_p_sets(res, "{}_p_set", lg, "wythoff", {}, bound)
    diff = _zeros(lg, "g") ^ _zeros(lg, "g_minus")
    pairs = sorted({min(p, p[::-1]) for p in diff})
    res.add("six_position_difference",
            diff == _box_pairs([(0, 0), (1, 2), (0, 1), (2, 2)], bound),
            f"sorted-pair difference {pairs}")


def suite_wythoff(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("wythoff", seed)
    check_beatty(res, max(100, min(samples, 2000)))
    # full boxes, each folded along its rays
    game = zoo.make_family("wythoff")
    check_wythoff(res, sg_labels(enumerate_subgame(game, [(25, 25)])), 25)

    report = classify(sg_labels(enumerate_subgame(game, [(20, 20)])))
    ok = (report.verdicts["miserable"] and report.verdicts["returnable"]
          and not report.verdicts["forced"] and not report.verdicts["pet"])
    res.add("miserable_returnable_not_forced", ok, str(report.verdicts))
    return res


# (a, b) of the two-parameter Wythoff games checked against the mex_b recursion
WYT_AB_PAIRS = ((2, 1), (3, 1), (1, 2), (2, 2), (2, 3))


def check_wyt_ab(res, lg, a, b, bound):
    """The P-positions of the (a, b) game ``lg`` against its P-sequence."""
    check_p_sets(res, f"a{a}_b{b}_{{}}", lg, "wyt_ab", {"a": a, "b": b},
                 bound)


def suite_wyt_ab(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("wyt_ab", seed)
    bound = 25
    # full boxes, each folded along its rays from starts
    for a, b in WYT_AB_PAIRS:
        game = zoo.make_family("wyt_ab", {"a": a, "b": b})
        lg = sg_labels(enumerate_subgame(game, [(bound, bound)]))
        check_wyt_ab(res, lg, a, b, bound)

    for a in (2, 3):
        game = zoo.make_family("wyt_a", {"a": a})
        report = classify(sg_labels(enumerate_subgame(game, [(20, 20)])))
        res.add(f"wyt_a{a}_pet", report.verdicts["pet"], str(report.verdicts))

    try:
        zoo.wyt_ab_sequence(0, 2, 5, "misere")
        res.add("a0_misere_rejected", False, "no error raised")
    except UnsupportedParams:
        res.add("a0_misere_rejected", True, "")
    return res


def suite_moore(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("moore", seed)
    for n, k, bound in [(3, 2, 3), (4, 2, 2), (4, 3, 2), (5, 2, 2)]:
        game = zoo.make_family("moore_nim", {"n": n, "k": k},
                               use_symmetry=True)
        graph = enumerate_subgame(game, [(bound,) * n])
        lg = sg_labels(graph)
        mismatch = []
        for x, lab in lg.labels.items():
            want = zoo.moore_swap_oracle(n, k, x)
            got = tuple(lab) if lab.is_swap else None
            if want != got:
                mismatch.append((x, want, got))
        res.add(f"n{n}_k{k}_oracle", not mismatch, f"mismatches {mismatch[:3]}")

        v01 = {x for x in graph.nodes
               if zoo.moore_swap_oracle(n, k, x) == (0, 1)}
        v10 = {x for x in graph.nodes
               if zoo.moore_swap_oracle(n, k, x) == (1, 0)}
        report = verify_candidate_sets(graph, CandidateSets(v01, v10),
                                       "miserable")
        res.add(f"n{n}_k{k}_candidate_sets", report.ok,
                f"failures {report.failures[:2]}")
        res.add(f"n{n}_k{k}_miserable",
                classify(lg).verdicts["miserable"], "")
    return res


# (params, root, expected verdicts) of hypergraph Nim; the acceptance gate
# checks the cycle and path rows from every position of the box 3
HO_NIM_VERDICTS = [
    ({"shape": "cycle", "n": 4}, (2,) * 4,
     {"miserable": True, "forced": True}),
    ({"shape": "cycle", "n": 5}, (2,) * 5,
     {"domestic": True, "tame": False}),
    ({"shape": "cycle", "n": 6}, (2,) * 6, {"domestic": False}),
    ({"shape": "path", "n": 3}, (3,) * 3, {"miserable": True}),
    ({"shape": "path", "n": 4}, (2,) * 4,
     {"domestic": True, "tame": False}),
    ({"shape": "path", "n": 5}, (2,) * 5,
     {"domestic": True, "tame": False}),
    ({"shape": "path", "n": 6}, (2,) * 6, {"domestic": False}),
    ({"shape": "conj1"}, (2,) * 5, {"domestic": True}),
    ({"shape": "conj2"}, (2,) * 4, {"domestic": True}),
]

# (family, params, position, its (g, g_minus) label); the ho_nim suite
# checks the ho_nim rows, the acceptance gate every row
LABEL_SPOTS = [
    ("mark", {}, (8,), (0, 2)),
    ("wythoff", {}, (3, 5), (0, 0)),
    ("exact_nim", {"n": 5, "k": 2}, (1, 2, 3, 3, 3), (0, 2)),
    ("slow_nim", {"n": 4, "k": 2}, (1, 1, 2, 3), (4, 0)),
    ("ho_nim", {"shape": "cycle", "n": 5}, (2, 0, 1, 1, 1), (5, 1)),
    ("ho_nim", {"shape": "cycle", "n": 6}, (1,) * 6, (0, 2)),
    ("ho_nim", {"shape": "path", "n": 4}, (1, 1, 1, 2), (5, 1)),
    ("ho_nim", {"shape": "path", "n": 5}, (1, 1, 1, 2, 0), (5, 1)),
    ("ho_nim", {"shape": "path", "n": 6}, (1, 0, 1, 1, 1, 2), (4, 0)),
    ("ho_nim", {"shape": "conj2"}, (1, 2, 2, 2), (7, 1)),
    ("ho_nim", {"shape": "conj1"}, (1, 1, 1, 1, 1), (1, 5)),
]


def spot_graph(family, params, pos):
    """The subgame of ``family`` below one position."""
    return enumerate_subgame(zoo.make_family(family, params), [pos])


def check_label_spots(res, spots):
    for family, params, pos, expected in spots:
        lab = tuple(sg_labels(spot_graph(family, params, pos)).labels[pos])
        res.add(f"{_tag(family, params)}_label_{'-'.join(map(str, pos))}",
                lab == expected, f"got {lab}, want {expected}")


def suite_ho_nim(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("ho_nim", seed)
    # full boxes, each folded along its regions, one per hyperedge
    for params, root, expected in HO_NIM_VERDICTS:
        game = zoo.make_family("ho_nim", params)
        check_verdicts(res, f"{_tag('ho_nim', params)}_verdicts",
                       enumerate_subgame(game, [root]), expected)

    # cycle zero-position patterns, with every rotation of each
    g4 = zoo.make_family("ho_nim", {"shape": "cycle", "n": 4})
    lg4 = sg_labels(enumerate_subgame(g4, [(3,) * 4]))
    # (b, a, b, a), the one other rotation of (a, b, a, b), is in the set
    want = {(a, b, a, b) for a in range(4) for b in range(4) if a + b >= 2}
    res.add("c4_zero_set", want == lg4.vset(0, 0),
            f"diff {sorted(want ^ lg4.vset(0, 0))[:4]}")

    g5 = zoo.make_family("ho_nim", {"shape": "cycle", "n": 5})
    lg5 = sg_labels(enumerate_subgame(g5, [(3,) * 5]))
    orbit = set()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                pat = (a, c + a, b + a, a, c + b + a)
                if max(pat) <= 3:
                    orbit.update(pat[i:] + pat[:i] for i in range(5))
    want = orbit - lg5.vset(0, 1) - lg5.vset(1, 0)
    res.add("c5_zero_set", want == lg5.vset(0, 0),
            f"diff {sorted(want ^ lg5.vset(0, 0))[:4]}")

    check_label_spots(res, [s for s in LABEL_SPOTS if s[0] == "ho_nim"])
    return res


_RUNNERS = {
    "fixtures": suite_fixtures,
    "equalities": suite_equalities,
    "sums": suite_sums,
    "ferguson": suite_ferguson,
    "wythoff": suite_wythoff,
    "wyt_ab": suite_wyt_ab,
    "moore": suite_moore,
    "ho_nim": suite_ho_nim,
}

SUITES = tuple(_RUNNERS)
