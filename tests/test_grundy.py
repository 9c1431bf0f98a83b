import io
from array import array

import pytest
from hypothesis import given, strategies as st

import grundylab.grundy

from grundylab import (
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
    position_keys,
    table_rows,
    to_csv,
    to_json,
    write_csv,
)
from grundylab.sums import sum_graph
from grundylab.suites import adjoined_terminal_agrees
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
        assert adjoined_terminal_agrees(graph, lg)
        for x in range(len(graph)):
            wrong = array("i", lg.g_minus)
            wrong[x] += 1
            bad = LabeledGraph(graph, lg.g, wrong)
            assert not adjoined_terminal_agrees(graph, bad), x


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
    positions = sum_graph([summand(n) for n in names]).positions
    want = [position_key(x) for x in positions]
    assert list(positions.position_keys()) == want
    assert list(position_keys(positions)) == want
