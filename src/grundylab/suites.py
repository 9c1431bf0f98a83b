"""Named verification batteries behind the ``verify`` command.

Each suite returns a SuiteResult with one entry per check; a check is a
(name, ok, detail) triple.  Suites are deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import GameDef, InvalidParams, UnsupportedParams, enumerate_subgame
from .fixtures import FIXTURE_NAMES, fixture_roots, load_fixture
from .grundy import (
    misere_via_adjoined_terminal,
    sg_labels,
    verify_sg_consistency,
)
from .classify import CandidateSets, check_sm_equivalences, classify, verify_candidate_sets
from .random_games import random_dag
from .sums import check_closure, sum_graph, tame_sum_label
from . import zoo

SUITES = (
    "fixtures",
    "equalities",
    "sums",
    "ferguson",
    "wythoff",
    "wyt_ab",
    "moore",
    "ho_nim",
)


@dataclass
class SuiteResult:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

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


def run_suite(name: str, seed: int = 0, samples: int = 1000,
              max_nodes: int = 12) -> list[SuiteResult]:
    """Run one named suite, or every suite for ``all``."""
    if name == "all":
        return [_RUNNERS[s](seed, samples, max_nodes) for s in SUITES]
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise InvalidParams(
            f"unknown suite {name!r}; known: {', '.join(SUITES)} or all"
        ) from None
    return [runner(seed, samples, max_nodes)]


def _labeled_fixture(name):
    game = load_fixture(name)
    return sg_labels(enumerate_subgame(game, fixture_roots(name)))


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
    "abc_chain": {"pet": True},
    "sodo_g1": {"domestic": True, "tame": False},
    "sodo_g2": {"domestic": True, "pet": True},
}


def suite_fixtures(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("fixtures", seed)
    for name in FIXTURE_NAMES:
        lg = _labeled_fixture(name)
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
    g1, g2 = load_fixture("sodo_g1"), load_fixture("sodo_g2")
    lg = sg_labels(sum_graph([g1, g2], [("E", "Y")]))
    lab = tuple(lg.labels[("E", "Y")])
    res.add("sodo_sum:root_label", lab == (0, 3), f"label {lab}")
    res.add("sodo_sum:not_domestic",
            not classify(lg).verdicts["domestic"], "")
    return res


_HIERARCHY = [
    ("pet", "tame"),
    ("tame", "domestic"),
    ("strongly_miserable", "miserable"),
    ("miserable", "t_miserable"),
    ("t_miserable", "weakly_miserable"),
    ("miserable", "tame"),
    ("strongly_miserable", "returnable"),
    ("forced", "returnable"),
]

_EQUALITIES = [
    ("domestic", "weakly_miserable"),
    ("tame", "t_miserable"),
    ("pet", "strongly_miserable"),
]


def suite_equalities(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("equalities", seed)
    rng = random.Random(seed)
    bad_impl, bad_eq, bad_sm, bad_cons, bad_misere = [], [], [], [], []
    for i in range(samples):
        graph = random_dag(rng, max_nodes)
        lg = sg_labels(graph)
        verdicts = classify(lg).verdicts
        for a, b in _HIERARCHY:
            if verdicts[a] and not verdicts[b]:
                bad_impl.append((i, a, b))
        for a, b in _EQUALITIES:
            if verdicts[a] != verdicts[b]:
                bad_eq.append((i, a, b))
        if not check_sm_equivalences(lg).agree:
            bad_sm.append(i)
        if not verify_sg_consistency(lg).ok:
            bad_cons.append(i)
        mis = misere_via_adjoined_terminal(graph)
        if any(mis[x] != lg.labels[x].g_minus for x in graph.nodes):
            bad_misere.append(i)
    res.add("hierarchy_implications", not bad_impl, f"violations {bad_impl[:3]}")
    res.add("class_equalities", not bad_eq, f"violations {bad_eq[:3]}")
    res.add("six_pet_conditions_agree", not bad_sm, f"graphs {bad_sm[:3]}")
    res.add("value_consistency", not bad_cons, f"graphs {bad_cons[:3]}")
    res.add("adjoined_terminal_equivalence", not bad_misere,
            f"graphs {bad_misere[:3]}")
    res.add("sample_count", True, f"{samples} random graphs, seed {seed}")
    return res


def _random_explicit_game(rng, max_nodes):
    graph = random_dag(rng, max_nodes)
    frozen = dict(graph.succ)
    game = GameDef("random", {"nodes": len(frozen)},
                   lambda p, fr=frozen: list(fr[p]))
    return game, list(frozen)


def suite_sums(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("sums", seed)
    rng = random.Random(seed)
    pairs = max(1, min(200, samples))
    bad_xor = []
    for i in range(pairs):
        games, nodesets = zip(*(_random_explicit_game(rng, 8) for _ in range(2)))
        comp = [sg_labels(enumerate_subgame(g, ns))
                for g, ns in zip(games, nodesets)]
        roots = [(a, b) for a in nodesets[0] for b in nodesets[1]]
        lg = sg_labels(sum_graph(list(games), roots))
        for (p0, p1), lab in lg.labels.items():
            if lab.g != comp[0].labels[p0].g ^ comp[1].labels[p1].g:
                bad_xor.append((i, (p0, p1)))
    res.add("xor_rule_random_pairs", not bad_xor,
            f"{pairs} pairs; violations {bad_xor[:3]}")

    tame_summands = [
        ("fixture:tame_not_pet", load_fixture("tame_not_pet"),
         fixture_roots("tame_not_pet")),
        ("fixture:tame_not_miserable", load_fixture("tame_not_miserable"),
         fixture_roots("tame_not_miserable")),
        ("nim:3,4", zoo.make_family("nim"), [(3, 4)]),
        ("euclid_grossman:2,5", zoo.make_family("euclid_grossman"), [(2, 5)]),
    ]
    for i, (na, ga, ra) in enumerate(tame_summands):
        for nb, gb, rb in tame_summands[i:]:
            roots = [(x, y) for x in ra for y in rb]
            report = check_closure("tame", [ga, gb], roots)
            res.add(f"tame_closure:{na}+{nb}",
                    report.holds and report.fast_path_ok,
                    f"label mismatches {report.label_mismatches[:3]}")

    nim = zoo.make_family("nim")
    forced = check_closure("forced", [nim, nim], [((2, 3), (1, 4))])
    res.add("nim_sum_forced", forced.holds and
            forced.sum_report.verdicts["miserable"], "")

    g1, g2 = load_fixture("sodo_g1"), load_fixture("sodo_g2")
    report = check_closure("domestic", [g1, g2], [("E", "Y")])
    res.add("domestic_not_closed", not report.holds,
            "domestic summands, non-domestic sum")

    pair = check_closure("pet", [nim, nim], [((2,), (2,))])
    res.add("pet_not_closed", not pair.holds,
            "single-pile summands are pet, their sum has a (0,0)-position")
    return res


def suite_ferguson(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("ferguson", seed)
    rng = random.Random(seed)
    sets = [{1}, {1, 2}, {2, 3}, {1, 4}, {3, 5, 7}]
    while len(sets) < 25:
        size = rng.randint(1, 5)
        xs = set(rng.sample(range(1, 13), size))
        if xs not in sets:
            sets.append(xs)
    bad = []
    for xs in sets:
        report = zoo.ferguson_check(xs, 200)
        if not report.ok:
            bad.append((sorted(xs), report.failures[:2]))
    res.add("shift_and_escape_laws", not bad, f"{len(sets)} sets; failures {bad}")

    pet_bad = []
    for xs in sets[:8]:
        game = zoo.make_family("subtraction", {"x": tuple(xs)})
        lg = sg_labels(enumerate_subgame(game, [(200,)]))
        if not classify(lg).verdicts["pet"]:
            pet_bad.append(sorted(xs))
    res.add("subtraction_games_pet", not pet_bad, f"failures {pet_bad}")
    return res


def suite_wythoff(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("wythoff", seed)
    n_max = max(100, min(samples, 2000))
    used = set()
    bad = []
    # recompute the P-sequence by the mex recursion, compare with the formula
    x, n = 0, 0
    while n <= n_max:
        pair = zoo.BeattyPair(n)
        if (x, x + n) != (pair.x, pair.y):
            bad.append(n)
        used.add(x)
        used.add(x + n)
        n += 1
        while x in used:
            x += 1
    res.add("beatty_formula_vs_recursion", not bad,
            f"n <= {n_max}; mismatches {bad[:3]}")

    game = zoo.make_family("wythoff", use_symmetry=True)
    lg = sg_labels(enumerate_subgame(game, [(25, 25)]))
    normal = {p for p, lab in lg.labels.items() if lab.g == 0}
    misere = {p for p, lab in lg.labels.items() if lab.g_minus == 0}
    pred_n, pred_m = set(), set()
    n = 0
    while True:
        pn = zoo.wythoff_p(n)
        if pn[0] > 25:
            break
        if pn[1] <= 25:
            pred_n.add(pn)
        pm = zoo.wythoff_p(n, "misere")
        if max(pm) <= 25:
            pred_m.add(pm)
        n += 1
    res.add("normal_p_set", pred_n == normal,
            f"diff {sorted(pred_n ^ normal)[:4]}")
    res.add("misere_p_set", pred_m == misere,
            f"diff {sorted(pred_m ^ misere)[:4]}")
    res.add("six_position_difference",
            normal ^ misere == {(0, 0), (1, 2), (0, 1), (2, 2)},
            f"sorted-pair difference {sorted(normal ^ misere)}")

    report = classify(sg_labels(enumerate_subgame(game, [(20, 20)])))
    ok = (report.verdicts["miserable"] and report.verdicts["returnable"]
          and not report.verdicts["forced"] and not report.verdicts["pet"])
    res.add("miserable_returnable_not_forced", ok, str(report.verdicts))
    return res


def suite_wyt_ab(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("wyt_ab", seed)
    bound = 25
    for a, b in [(2, 1), (3, 1), (1, 2), (2, 2), (2, 3)]:
        game = zoo.make_family("wyt_ab", {"a": a, "b": b}, use_symmetry=True)
        lg = sg_labels(enumerate_subgame(game, [(bound, bound)]))
        for conv, value in (("normal", "g"), ("misere", "g_minus")):
            solver = {p for p, lab in lg.labels.items()
                      if getattr(lab, value) == 0}
            predicted = set()
            for x, y in zoo.wyt_ab_sequence(a, b, 2 * bound, conv):
                if x <= y <= bound:
                    predicted.add((x, y))
                if max(x, y) > bound:
                    break
            res.add(f"a{a}_b{b}_{conv}", predicted == solver,
                    f"diff {sorted(predicted ^ solver)[:4]}")

    for a in (2, 3):
        game = zoo.make_family("wyt_a", {"a": a}, use_symmetry=True)
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


_HO_EXPECT = [
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


def suite_ho_nim(seed=0, samples=1000, max_nodes=12) -> SuiteResult:
    res = SuiteResult("ho_nim", seed)
    for params, root, expected in _HO_EXPECT:
        game = zoo.make_family("ho_nim", params, use_symmetry=True)
        lg = sg_labels(enumerate_subgame(game, [root]))
        verdicts = classify(lg).verdicts
        bad = {p: verdicts[p] for p in expected if verdicts[p] != expected[p]}
        tag = params["shape"] + str(params.get("n", ""))
        res.add(f"{tag}_verdicts", not bad, f"unexpected {bad}" if bad else "")

    # cycle zero-position patterns
    g4 = zoo.make_family("ho_nim", {"shape": "cycle", "n": 4},
                         use_symmetry=True)
    lg4 = sg_labels(enumerate_subgame(g4, [(3,) * 4]))
    want = {g4.canon((a, b, a, b)) for a in range(4) for b in range(4)
            if a + b >= 2}
    res.add("c4_zero_set", want == lg4.vset(0, 0),
            f"diff {sorted(want ^ lg4.vset(0, 0))[:4]}")

    g5 = zoo.make_family("ho_nim", {"shape": "cycle", "n": 5},
                         use_symmetry=True)
    lg5 = sg_labels(enumerate_subgame(g5, [(3,) * 5]))
    orbit = set()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                pat = (a, c + a, b + a, a, c + b + a)
                if max(pat) <= 3:
                    orbit.add(g5.canon(pat))
    want = orbit - lg5.vset(0, 1) - lg5.vset(1, 0)
    res.add("c5_zero_set", want == lg5.vset(0, 0),
            f"diff {sorted(want ^ lg5.vset(0, 0))[:4]}")

    spot = [
        (({"shape": "cycle", "n": 5}), (2, 0, 1, 1, 1), (5, 1)),
        (({"shape": "cycle", "n": 6}), (1,) * 6, (0, 2)),
        (({"shape": "path", "n": 4}), (1, 1, 1, 2), (5, 1)),
        (({"shape": "path", "n": 5}), (1, 1, 1, 2, 0), (5, 1)),
        (({"shape": "path", "n": 6}), (1, 0, 1, 1, 1, 2), (4, 0)),
        (({"shape": "conj2"}), (1, 2, 2, 2), (7, 1)),
        (({"shape": "conj1"}), (1, 1, 1, 1, 1), (1, 5)),
    ]
    for params, pos, expected in spot:
        game = zoo.make_family("ho_nim", params)
        lg = sg_labels(enumerate_subgame(game, [pos]))
        lab = tuple(lg.labels[pos])
        tag = params["shape"] + str(params.get("n", ""))
        res.add(f"{tag}_label_{'-'.join(map(str, pos))}", lab == expected,
                f"got {lab}, want {expected}")
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
