import io
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import grundylab.grundy

from grundylab import (
    FIXTURE_NAMES,
    Label,
    enumerate_subgame,
    load_fixture,
    mex,
    sg_labels,
    verify_sg_consistency,
)
from grundylab.core import graph_from_adjacency
from grundylab.fixtures import fixture_roots
from grundylab.grundy import (
    LabeledGraph,
    misere_via_adjoined_terminal,
    position_key,
    table_rows,
    to_csv,
    to_json,
    write_csv,
)
from grundylab.random_games import random_dag
from grundylab.sums import sum_graph
from grundylab.suites import misere_mismatches
from grundylab.zoo import box_roots, make_family

from random_dags import random_dag_stream


@given(st.sets(st.integers(min_value=0, max_value=50)))
def test_mex_properties(values):
    m = mex(values)
    assert m not in values
    assert all(k in values for k in range(m))


def test_mex_examples():
    assert mex(set()) == 0
    assert mex({0, 1, 2}) == 3
    assert mex({1, 2}) == 0


def test_label_swap_detection():
    assert Label(0, 1).is_swap
    assert Label(1, 0).is_swap
    assert not Label(0, 0).is_swap
    assert not Label(2, 2).is_swap


def test_single_pile_values():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(5,)]))
    for n in range(6):
        assert lg.labels[(n,)].g == n
    assert lg.labels[(0,)].g_minus == 1
    assert lg.labels[(1,)].g_minus == 0
    assert lg.labels[(2,)].g_minus == 2


def test_two_pile_nim_is_xor():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(7, 7)]))
    for (x, y), lab in lg.labels.items():
        assert lab.g == x ^ y


def test_consistency_passes_on_solver_output():
    for graph in random_dag_stream(3, 50):
        assert verify_sg_consistency(sg_labels(graph)).ok


def test_consistency_catches_injected_fault():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(4,)]))
    corrupted = array("i", lg.g)
    corrupted[lg.graph.index[(2,)]] += 1
    report = verify_sg_consistency(LabeledGraph(lg.graph, corrupted,
                                                lg.g_minus))
    assert not report.ok
    assert any(node == (2,) or node == (3,)
               for node, _, _ in report.violations)


@pytest.mark.parametrize("adjacency", [{"a": ["b"], "b": []}, {"b": []}],
                         ids=["under_a_move", "alone"])
@pytest.mark.parametrize("value", [0, 2, 7])
def test_consistency_requires_misere_terminal_value_1(adjacency, value):
    lg = sg_labels(graph_from_adjacency(adjacency))
    assert verify_sg_consistency(lg).ok
    g_minus = array("i", lg.g_minus)
    g_minus[lg.graph.index["b"]] = value
    report = verify_sg_consistency(LabeledGraph(lg.graph, lg.g, g_minus))
    # a's value may now repeat b's: b's own violation is one of the list
    violation = ("b", "misere", f"terminal value {value}, not 1")
    assert violation in report.violations


@pytest.mark.parametrize("which", ["normal", "misere"])
def test_consistency_reports_a_value_above_the_mex(which):
    # Nim from 3: the root's options realize 0, 1 and 2 in both conventions,
    # and no move enters the root, so raising its value to 5 breaks only the
    # root's own "every smaller value is realized" condition
    lg = sg_labels(enumerate_subgame(make_family("nim"), [(3,)]))
    root = lg.graph.index[(3,)]
    assert (lg.g[root], lg.g_minus[root]) == (3, 3)
    values = {"normal": array("i", lg.g), "misere": array("i", lg.g_minus)}
    values[which][root] = 5
    report = verify_sg_consistency(
        LabeledGraph(lg.graph, values["normal"], values["misere"]))
    assert report.violations == [((3,), which, "values [3, 4] below 5 "
                                  "unrealized")]



# the chain a -> b -> c: (g, g_minus) is (0, 1) at a, (1, 0) at b and
# (0, 1) at the terminal c; one value is planted negative
@pytest.mark.parametrize("node,which,value,want", [
    ("a", "normal", -1, [("a", "normal", "negative value -1")]),
    ("a", "misere", -3, [("a", "misere", "negative value -3")]),
    ("c", "normal", -1, [("b", "normal", "negative option values [-1]"),
                         ("b", "normal", "values [0] below 1 unrealized"),
                         ("c", "normal", "negative value -1")]),
    ("c", "misere", -1, [("b", "misere", "negative option values [-1]"),
                         ("c", "misere", "terminal value -1, not 1")]),
], ids=["inner_normal", "inner_misere", "terminal_normal",
        "terminal_misere"])
def test_consistency_reports_a_negative_value(node, which, value, want):
    lg = sg_labels(graph_from_adjacency({"a": ["b"], "b": ["c"], "c": []}))
    assert [tuple(lg.label(x)) for x in "abc"] == [(0, 1), (1, 0), (0, 1)]
    values = {"normal": array("i", lg.g), "misere": array("i", lg.g_minus)}
    values[which][lg.graph.index[node]] = value
    report = verify_sg_consistency(
        LabeledGraph(lg.graph, values["normal"], values["misere"]))
    assert report.violations == want


def _literal_violations(lg):
    """verify_sg_consistency's report from the definition, node by node."""
    out = []
    for x in lg.graph.order:
        p, opts = lg.graph.positions[x], lg.graph.row(x)
        for which, values in (("normal", lg.g), ("misere", lg.g_minus)):
            own, seen = values[x], [values[o] for o in opts]
            if not opts and which == "misere":
                if own != 1:
                    out.append((p, which, f"terminal value {own}, not 1"))
                continue
            if own < 0:
                out.append((p, which, f"negative value {own}"))
            negative = sorted(set(v for v in seen if v < 0))
            if negative:
                out.append((p, which, f"negative option values {negative}"))
            if own in seen:
                out.append((p, which, f"option repeats value {own}"))
            missing = [k for k in range(own) if k not in seen]
            if missing:
                out.append((p, which,
                            f"values {missing} below {own} unrealized"))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), low=st.integers(-2, 0))
def test_consistency_equals_the_definition_on_random_values(seed, low):
    # the solver's labels with each value replaced, with probability 1/4,
    # by a draw from low..4
    rng = random.Random(seed)
    lg = sg_labels(random_dag(rng, 12, 0.4))
    g, g_minus = (array("i", [v if rng.random() < 0.75
                              else rng.randint(low, 4) for v in values])
                  for values in (lg.g, lg.g_minus))
    planted = LabeledGraph(lg.graph, g, g_minus)
    assert verify_sg_consistency(planted).violations == \
        _literal_violations(planted)

def test_consistency_lists_every_violation():
    # all zeros: every move repeats value 0 in both conventions, and the
    # misere terminal's value is not 1
    graph = enumerate_subgame(make_family("mark"), [(200,)])
    zeros = array("i", [0] * len(graph))
    report = verify_sg_consistency(LabeledGraph(graph, zeros, zeros))
    want = []
    for x in graph.order:
        p = graph.positions[x]
        if graph.succ[p]:
            want += [(p, which, "option repeats value 0")
                     for which in ("normal", "misere")]
        else:
            want.append((p, "misere", "terminal value 0, not 1"))
    # Mark from 200 reaches 0..200, and only 0 is terminal
    assert len(graph) == 201 and len(want) == 2 * 200 + 1
    assert report.violations == want


def test_consistency_on_fixture():
    game = load_fixture("pet")
    lg = sg_labels(enumerate_subgame(game, fixture_roots("pet")))
    assert verify_sg_consistency(lg).ok


def test_nim_unit_pile_swap_sets():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(1, 1, 1)]))
    v01, v10, v00, v11 = (lg.vset(0, 1), lg.vset(1, 0), lg.vset(0, 0),
                          lg.vset(1, 1))
    assert v01 == {p for p in lg.labels if sum(p) % 2 == 0}
    assert v10 == {p for p in lg.labels if sum(p) % 2 == 1}
    assert v00 == set() and v11 == set()


def test_wythoff_swap_sets_bound_10():
    game = make_family("wythoff")
    lg = sg_labels(enumerate_subgame(game, box_roots(2, 10)))
    v01, v10 = lg.vset(0, 1), lg.vset(1, 0)
    assert v01 == {(0, 0), (1, 2), (2, 1)}
    assert v10 == {(0, 1), (1, 0), (2, 2)}


def test_adjoined_terminal_equals_misere():
    for graph in random_dag_stream(7, 100):
        lg = sg_labels(graph)
        mis = misere_via_adjoined_terminal(graph)
        assert all(mis[graph.index[x]] == lg.labels[x].g_minus
                   for x in graph.nodes)


def test_adjoined_terminal_check_reports_any_wrong_misere_value():
    for graph in random_dag_stream(7, 30):
        lg = sg_labels(graph)
        assert not misere_mismatches(graph, lg)
        for x in range(len(graph)):
            wrong = array("i", lg.g_minus)
            wrong[x] += 1
            bad = LabeledGraph(graph, lg.g, wrong)
            assert misere_mismatches(graph, bad), x


def test_edge_values_differ():
    for graph in random_dag_stream(11, 50):
        lg = sg_labels(graph)
        for x, opts in graph.succ.items():
            for y in opts:
                assert lg.labels[x].g != lg.labels[y].g
                assert lg.labels[x].g_minus != lg.labels[y].g_minus


def test_position_key():
    assert position_key((3, 5)) == "3-5"
    assert position_key("A") == "A"


def test_csv_format():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(1, 1)]))
    text = to_csv(lg)
    lines = text.strip().splitlines()
    assert lines[0] == "position,g,g_minus"
    assert "1-1,0,1" in lines
    assert len(lines) == 1 + len(lg.labels)


def test_csv_header_comment():
    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(1,)]))
    assert to_csv(lg, header_comment="hello").startswith("# hello\n")


def test_json_mirrors_rows():
    import json

    game = make_family("nim")
    lg = sg_labels(enumerate_subgame(game, [(2,)]))
    rows = json.loads(to_json(lg))
    assert rows == [{"position": p, "g": g, "g_minus": gm}
                    for p, g, gm in table_rows(lg)]


def joined_csv(lg, header_comment=None):
    """The table as one joined text, the way it was built before rows were
    written in chunks."""
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append("position,g,g_minus")
    lines.extend(f"{p},{g},{gm}" for p, g, gm in table_rows(lg))
    return "\n".join(lines) + "\n"


def summand(name):
    if name == "pet":
        return enumerate_subgame(load_fixture("pet"), fixture_roots("pet"))
    if name == "nim":
        return enumerate_subgame(make_family("nim"), [(2, 3)])
    return enumerate_subgame(make_family("subtraction", {"x": [1, 2]}),
                             [(4,)])


CSV_GRAPHS = {
    "wythoff": lambda: enumerate_subgame(make_family("wythoff"),
                                         box_roots(2, 12)),
    "fixture": lambda: summand("pet"),
    "sum3": lambda: sum_graph([summand("nim"), summand("pet"),
                               summand("subtraction")]),
}


@pytest.mark.parametrize("chunk", [1, 7, grundylab.grundy.CSV_CHUNK_ROWS])
@pytest.mark.parametrize("header", [None, "family=x v1"])
@pytest.mark.parametrize("name", CSV_GRAPHS)
def test_write_csv_equals_to_csv(name, header, chunk, monkeypatch, tmp_path):
    monkeypatch.setattr(grundylab.grundy, "CSV_CHUNK_ROWS", chunk)
    lg = sg_labels(CSV_GRAPHS[name]())
    want = to_csv(lg, header_comment=header)
    assert want == joined_csv(lg, header)
    buf = io.StringIO()
    write_csv(lg, buf, header_comment=header)
    assert buf.getvalue() == want
    path = tmp_path / "table.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_csv(lg, fh, header)
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("names", [("nim", "subtraction"), ("pet", "nim"),
                                   ("nim", "pet", "subtraction"),
                                   ("pet", "pet", "nim")])
def test_product_keys_equal_position_key(names):
    # the heads and tails of the summand key order, joined, list every
    # product key in sorted order, each with its node number
    graph = sum_graph([summand(n) for n in names])
    heads, tails = graph.positions.key_order()
    joined = [(head + key, i * len(tails) + j) for head, i in heads
              for key, j in tails]
    want = sorted((position_key(x), i) for i, x in enumerate(graph.positions))
    assert joined == want


class Sink:
    """A text stream that keeps only the length of what it is given."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def csv_summand(kind, seed):
    """A small summand of the given kind, drawn from ``seed``."""
    rng = random.Random(seed)
    if kind == "fixture":
        name = rng.choice(FIXTURE_NAMES)
        return enumerate_subgame(load_fixture(name), fixture_roots(name))
    if kind == "nim":
        roots = [tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))]
        return enumerate_subgame(make_family("nim"), roots)
    if kind == "subtraction":
        subset = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
        return enumerate_subgame(make_family("subtraction", {"x": subset}),
                                 [(rng.randint(0, 14),)])
    if kind == "wythoff":
        return enumerate_subgame(make_family("wythoff"),
                                 [(rng.randint(0, 3), rng.randint(0, 3))])
    # integer node ids: 1 is a prefix of 10 and 11 in a graph of 12 nodes
    return random_dag(rng, 12, 0.4)


csv_summands = st.builds(csv_summand,
                         st.sampled_from(["fixture", "nim", "subtraction",
                                          "wythoff", "dag"]),
                         st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(csv_summands, min_size=2, max_size=3),
       st.sampled_from([1, 7, grundylab.grundy.CSV_CHUNK_ROWS]))
def test_product_csv_equals_the_sorted_rows(summands, chunk):
    lg = sg_labels(sum_graph(summands))
    keys = [sorted(map(str, g.positions)) for g in summands]
    prefix_free = not any(b.startswith(a) for k in keys
                          for a, b in zip(k, k[1:]))
    assert (lg.graph.positions.key_order() is not None) == prefix_free
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grundylab.grundy, "CSV_CHUNK_ROWS", chunk)
        write_csv(lg, buf)
    assert buf.getvalue() == joined_csv(lg)


def test_product_csv_with_a_prefix_key_takes_the_sort():
    # "A" is a prefix of "A!", and "!" sorts below "-": the product key
    # "A!-..." sorts before "A-...", against the summand's own order
    odd = graph_from_adjacency({"A!": ["A"], "A": []})
    lg = sg_labels(sum_graph([odd, summand("nim")]))
    assert lg.graph.positions.key_order() is None
    text = to_csv(lg)
    assert text == joined_csv(lg)
    rows = text.splitlines()[1:]
    assert rows[0].startswith("A!-") and rows[-1].startswith("A-")


def test_product_csv_holds_no_row_per_node(monkeypatch):
    # sum_table's product: Nim (6,6,6) + subtraction {1,2} from 30.  A list
    # of one (key, g, g_minus) tuple per node takes at least 64 bytes a node
    monkeypatch.setattr(grundylab.grundy, "CSV_CHUNK_ROWS", 512)
    summands = [enumerate_subgame(make_family("nim"), [(6, 6, 6)]),
                enumerate_subgame(make_family("subtraction", {"x": [1, 2]}),
                                  [(30,)])]
    lg = sg_labels(sum_graph(summands))
    sink = Sink()
    tracemalloc.start()
    try:
        write_csv(lg, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(joined_csv(lg))
    assert peak < 24 * len(lg.graph)
