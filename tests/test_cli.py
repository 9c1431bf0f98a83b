import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grundylab.cli
import grundylab.sums
from grundylab import (enumerate_subgame, load_fixture, sg_labels,
                       sum_game)
from grundylab.cli import main
from grundylab.fixtures import FIXTURE_NAMES, fixture_roots
from grundylab.grundy import to_csv
from grundylab.suites import SUITES
from grundylab.zoo import FAMILIES, TABLE, make_family


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env or {})


def test_analyze_wythoff():
    result = run("analyze", "--family", "wythoff", "--roots", "20,20",
                 "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["verdicts"]["miserable"] is True
    assert data["verdicts"]["forced"] is False


def test_analyze_fixture_pet():
    result = run("analyze", "--fixture", "pet", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["verdicts"]["pet"] is True


def test_analyze_mark_witness_8():
    result = run("analyze", "--family", "mark", "--roots", "20",
                 "--format", "json")
    data = json.loads(result.output)
    assert data["verdicts"]["domestic"] is False
    assert data["witnesses"]["domestic"]["position"] == [8]
    assert data["witnesses"]["domestic"]["label"] == [0, 2]


def test_analyze_requires_one_source():
    assert run("analyze", "--roots", "1").exit_code == 2
    assert run("analyze", "--family", "nim", "--fixture", "pet",
               "--roots", "1").exit_code == 2


def test_analyze_requires_positions():
    assert run("analyze", "--family", "nim").exit_code == 2


def test_analyze_bad_params_exit_2():
    result = run("analyze", "--family", "moore_nim", "--n", "3", "--k", "9",
                 "--roots", "1,1,1")
    assert result.exit_code == 2
    assert "error" in result.output


def _assert_error_line(result, text):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert lines == [lines[0]] and lines[0].startswith("error: ")
    assert text in lines[0]


def test_analyze_root_wrong_arity():
    _assert_error_line(run("analyze", "--family", "wythoff", "--roots", "3"),
                       "2 coordinates")


def test_analyze_fixture_root_not_a_node():
    _assert_error_line(run("analyze", "--fixture", "pet", "--roots", "1"),
                       "no node '1'")


def test_analyze_root_not_integers():
    _assert_error_line(run("analyze", "--family", "nim", "--roots", "3,x"),
                       "comma-separated integers")


def test_analyze_params_not_an_object():
    _assert_error_line(run("analyze", "--family", "nim", "--params", "[1]",
                           "--roots", "3"), "JSON object")


def test_table_root_wrong_arity():
    _assert_error_line(run("table", "--sg", "--family", "wythoff",
                           "--roots", "3"), "2 coordinates")


def test_table_p_sequence():
    result = run("table", "--family", "wythoff", "--p-sequence", "--n", "10")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,x,y,convention"
    assert lines[1] == "0,0,0,normal"
    assert lines[2] == "1,1,2,normal"
    assert lines[3] == "2,3,5,normal"
    assert len(lines) == 12


def test_table_p_sequence_misere():
    result = run("table", "--family", "wyt_ab", "--a", "2", "--b", "3",
                 "--p-sequence", "--upto", "5", "--convention", "misere")
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "0,0,1,misere"


def test_table_sg_nim_xor():
    result = run("table", "--family", "nim", "--piles", "3,5", "--sg")
    assert result.exit_code == 0
    for line in result.output.strip().splitlines():
        if line.startswith(("#", "position")):
            continue
        pos, g, _ = line.split(",")
        x, y = (int(v) for v in pos.split("-"))
        assert int(g) == x ^ y


def test_table_fixture_sg():
    result = run("table", "--fixture", "not_domestic", "--sg")
    lines = result.output.strip().splitlines()
    assert "F,2,0" in lines
    assert "G,3,2" in lines


# SHA-256 of stdout, recorded while enumeration, ordering and labelling
# still used per-row hash sets: node numbers, labels and formatting must
# not move
_PINNED_OUTPUTS = [
    (("table", "--family", "wythoff", "--box", "60", "--sg"),
     "91dee541537016fc4125f7bfd9f88da9a0363d9c43e823781bfa8667e550c621"),
    (("table", "--family", "nim", "--roots", "300", "--sg"),
     "dc8f6ca220d3244c0c43ee40bb2884bad2e97ee9063088af18c8ddd2c9b79b75"),
    (("analyze", "--family", "subtraction", "--set", "3,4,8,9,10,12",
      "--roots", "5000", "--format", "json"),
     "05274d049edf99dd5b1568bfd329f5130ee93e889ec4723f7eb5751f87419b34"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_OUTPUTS,
                         ids=["wythoff_table", "nim_table", "subtraction"])
def test_output_bytes_pinned(argv, digest):
    result = run(*argv, env={"GRUNDY_CACHE_DIR": None})
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_table_needs_exactly_one_mode():
    assert run("table", "--family", "nim", "--piles", "2").exit_code == 2
    assert run("table", "--family", "nim", "--piles", "2", "--sg",
               "--p-sequence").exit_code == 2


def test_table_cache_round_trip(tmp_path):
    env = {"GRUNDY_CACHE_DIR": str(tmp_path)}
    args = ("table", "--family", "wythoff", "--piles", "6,6", "--sg")
    cold = run(*args, env=env)
    assert cold.exit_code == 0
    assert list(tmp_path.iterdir())
    warm = run(*args, env=env)
    assert warm.exit_code == 0
    assert warm.output == cold.output


def test_table_cache_corruption_recovered(tmp_path):
    env = {"GRUNDY_CACHE_DIR": str(tmp_path)}
    args = ("table", "--family", "nim", "--piles", "2,2", "--sg")
    cold = run(*args, env=env)
    for entry in tmp_path.iterdir():
        entry.unlink()
    rebuilt = run(*args, env=env)
    assert rebuilt.output == cold.output


def test_table_cache_garbage_entry_rewritten(tmp_path):
    env = {"GRUNDY_CACHE_DIR": str(tmp_path)}
    args = ("table", "--family", "nim", "--piles", "2,2", "--sg")
    cold = run(*args, env=env)
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(b"garbage")
    warm = run(*args, env=env)
    assert warm.exit_code == 0
    assert warm.output == cold.output
    # the failed entry was rewritten and now serves a cache hit
    assert entry.read_bytes() != b"garbage"
    assert run(*args, env=env).output == cold.output


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_table_unusable_cache_dir_is_ignored(tmp_path, below):
    # a regular file where the cache directory should be, or on its path
    blocker = tmp_path / "F"
    blocker.write_text("not a directory")
    cache = blocker / "sub" if below else blocker
    args = ("table", "--family", "nim", "--roots", "2,2", "--sg")
    plain = run(*args)
    cached = run(*args, "--cache-dir", str(cache))
    assert cached.exit_code == 0, cached.output
    assert cached.output == plain.output
    assert blocker.read_text() == "not a directory"


def test_cli_import_leaves_hashlib_unloaded():
    # only the table cache needs hashlib; its OpenSSL backend costs memory
    src = os.path.dirname(os.path.dirname(grundylab.cli.__file__))
    code = ("import sys, grundylab.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "[]\n"


def test_cli_import_defers_tempfile_and_resources():
    # each has one call site (a cache store, a fixture read); without
    # site-packages' .pth files, importing them costs about 20 ms of CPU
    code = ("import sys, click; before = set(sys.modules); "
            "import grundylab.cli; print(sorted({'tempfile', "
            "'importlib.resources'} & (set(sys.modules) - before)))")
    # -S: no site-packages .pth file may import them first
    assert _python("-S", "-c", code).stdout == b"[]\n"


def _python(*args):
    """A fresh interpreter that imports this checkout's grundylab and the
    click that the tests use, also under -S."""
    path = [os.path.dirname(os.path.dirname(module.__file__))
            for module in (grundylab, click)]
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(path)))


@pytest.mark.parametrize("argv,code", [
    (("verify", "fixtures", "--format", "json"), 0),
    (("analyze", "--family", "nim"), 2),
], ids=["success", "usage_error"])
def test_module_entry_point_matches_the_click_group(argv, code):
    # python -m grundylab.cli goes through run(), as the console script does
    proc = _python("-m", "grundylab.cli", *argv)
    result = CliRunner().invoke(main, list(argv))
    assert proc.returncode == result.exit_code == code
    assert proc.stdout == result.stdout_bytes


def test_cli_import_freezes_nothing():
    # only the process entry point freezes the heap, never an importer
    code = "import gc, grundylab.cli; print(gc.get_freeze_count())"
    assert _python("-c", code).stdout == b"0\n"


def test_run_freezes_the_import_heap_before_the_command():
    code = ("import gc, grundylab.cli as cli; "
            "cli.main = lambda: print(gc.get_freeze_count() > 0); cli.run()")
    assert _python("-c", code).stdout == b"True\n"


def test_verify_fixtures_passes():
    result = run("verify", "fixtures")
    assert result.exit_code == 0
    assert "pass" in result.output


def test_verify_json_echoes_seed():
    result = run("verify", "wythoff", "--seed", "7", "--format", "json")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["seed"] == 7
    assert data["ok"] is True


def test_verify_small_sample_all():
    result = run("verify", "all", "--samples", "25")
    assert result.exit_code == 0


def test_verify_unknown_suite():
    assert run("verify", "chess").exit_code == 2


def test_sum_command(tmp_path):
    spec1 = tmp_path / "g1.json"
    spec2 = tmp_path / "g2.json"
    spec1.write_text(json.dumps({"family": "nim", "roots": [[2, 3]]}))
    spec2.write_text(json.dumps({"family": "nim", "roots": [[1, 4]]}))
    out_csv = tmp_path / "product.csv"
    result = run("sum", "--game", str(spec1), "--game", str(spec2),
                 "--target", "forced", "--table", str(out_csv))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["closure"]["sum_in_class"] is True
    assert data["report"]["verdicts"]["miserable"] is True
    assert out_csv.read_text().startswith("position,g,g_minus")


def test_sum_table_of_three_summands_equals_literal_product(tmp_path):
    specs = [{"family": "nim", "roots": [[2, 1]]},
             {"fixture": "pet"},
             {"family": "subtraction", "params": {"x": [1, 2]},
              "roots": [[4], [2]]}]
    args = ["sum"]
    for i, spec in enumerate(specs):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(spec))
        args += ["--game", str(path)]
    out_csv = tmp_path / "product.csv"
    assert run(*args, "--table", str(out_csv)).exit_code == 0
    games = [make_family("nim"), load_fixture("pet"),
             make_family("subtraction", {"x": [1, 2]})]
    roots = itertools.product([(2, 1)], fixture_roots("pet"), [(4,), (2,)])
    product = enumerate_subgame(sum_game(games), list(roots))
    assert out_csv.read_bytes() == to_csv(sg_labels(product)).encode()


def test_sum_fixture_specs(tmp_path):
    spec1 = tmp_path / "g1.json"
    spec2 = tmp_path / "g2.json"
    spec1.write_text(json.dumps({"fixture": "sodo_g1"}))
    spec2.write_text(json.dumps({"fixture": "sodo_g2"}))
    result = run("sum", "--game", str(spec1), "--game", str(spec2),
                 "--target", "domestic")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["closure"]["summands_in_class"] == [True, True]
    assert data["closure"]["sum_in_class"] is False


def test_sum_needs_two_games(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    assert run("sum", "--game", str(spec)).exit_code == 2


def test_sum_bad_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    other = tmp_path / "ok.json"
    other.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    assert run("sum", "--game", str(spec), "--game", str(other)).exit_code == 2


def test_sum_spec_that_cannot_be_read(tmp_path, monkeypatch):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "nim", "roots": [[1]]}))

    def denying_open(path, *args, **kwargs):
        if path == str(spec):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(grundylab.cli, "open", denying_open, raising=False)
    result = run("sum", "--game", str(spec), "--game", str(spec))
    _assert_one_error_line(result)
    assert os.strerror(errno.EACCES) in result.output


def test_sum_spec_not_utf8(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_bytes(b"\xff\xfe{}")
    _assert_one_error_line(run("sum", "--game", str(spec),
                               "--game", str(spec)))


def test_sum_table_path_that_cannot_be_written(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    table = tmp_path / "missing" / "t.csv"
    result = run("sum", "--game", str(spec), "--game", str(spec),
                 "--table", str(table))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output == (f"error: cannot write --table {table}: "
                             f"{os.strerror(errno.ENOENT)}\n")


def _sum_with_spec(tmp_path, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    other = tmp_path / "ok.json"
    other.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    return run("sum", "--game", str(bad), "--game", str(other))


def _assert_one_error_line(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bad game spec")


def test_sum_spec_not_an_object(tmp_path):
    _assert_one_error_line(_sum_with_spec(tmp_path, [1]))


def test_sum_spec_roots_not_a_list(tmp_path):
    _assert_one_error_line(_sum_with_spec(tmp_path,
                                          {"family": "nim", "roots": 5}))


def test_sum_spec_root_wrong_arity(tmp_path):
    result = _sum_with_spec(tmp_path, {"family": "wythoff", "roots": [[3]]})
    _assert_one_error_line(result)
    assert "2 coordinates" in result.output


def test_sum_spec_boolean_root(tmp_path):
    result = _sum_with_spec(tmp_path, {"family": "wythoff",
                                       "roots": [[True, 2]]})
    _assert_one_error_line(result)
    assert "must hold integers" in result.output


def test_sum_family_spec_with_no_roots(tmp_path):
    result = _sum_with_spec(tmp_path, {"family": "nim", "roots": []})
    _assert_one_error_line(result)
    assert "at least one root" in result.output


def test_sum_fixture_spec_with_no_roots_takes_the_source_nodes(tmp_path):
    spec = {"fixture": "sodo_g1"}
    base = json.loads(_sum_with_spec(tmp_path, spec).output)
    result = _sum_with_spec(tmp_path, dict(spec, roots=[]))
    assert result.exit_code == 0
    assert json.loads(result.output) == base


def test_sum_fixture_spec_root_names_no_node(tmp_path):
    result = _sum_with_spec(tmp_path, {"fixture": "pet", "roots": ["nope"]})
    _assert_one_error_line(result)
    assert result.output.endswith(": fixture pet has no node 'nope'\n")
    # the same words as for analyze
    _assert_error_line(run("analyze", "--fixture", "pet", "--roots", "nope"),
                       "fixture pet has no node 'nope'")


def test_sum_builds_product_once(tmp_path, monkeypatch):
    calls = {"sg_labels": 0, "classify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (grundylab.cli, grundylab.sums):
        for name in calls:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    spec1 = tmp_path / "g1.json"
    spec2 = tmp_path / "g2.json"
    spec1.write_text(json.dumps({"family": "nim", "roots": [[2, 3]]}))
    spec2.write_text(json.dumps({"family": "subtraction",
                                 "params": {"x": [1, 2]}, "roots": [[5]]}))
    result = run("sum", "--game", str(spec1), "--game", str(spec2),
                 "--target", "tame", "--table", str(tmp_path / "sum.csv"))
    assert result.exit_code == 0
    assert json.loads(result.output)["closure"]["sum_in_class"] is True
    # two summands plus one product
    assert calls == {"sg_labels": 3, "classify": 3}


def test_fixtures_listing():
    result = run("fixtures")
    assert result.exit_code == 0
    assert "not_domestic" in result.output
    result = run("fixtures", "--format", "json")
    data = json.loads(result.output)
    assert len(data) == 10
    assert all("verdicts" in row for row in data)


def test_analyze_ho_nim_root_wrong_arity():
    _assert_error_line(run("analyze", "--family", "ho_nim", "--shape", "cycle",
                           "--n", "5", "--roots", "1,1"), "5 coordinates")


def test_analyze_moore_nim_root_wrong_arity():
    _assert_error_line(run("analyze", "--family", "moore_nim", "--n", "3",
                           "--k", "2", "--roots", "1,1"), "3 coordinates")


def test_sum_spec_ho_nim_root_wrong_arity(tmp_path):
    result = _sum_with_spec(tmp_path, {
        "family": "ho_nim", "params": {"shape": "cycle", "n": 5},
        "roots": [[1, 1]]})
    _assert_one_error_line(result)
    assert "5 coordinates" in result.output


def test_analyze_mark_negative_root():
    _assert_error_line(run("analyze", "--family", "mark", "--roots", "-3"),
                       "negative coordinate")


def test_analyze_nim_negative_root():
    _assert_error_line(run("analyze", "--family", "nim", "--roots", "-3"),
                       "negative coordinate")


def test_verify_max_nodes_below_one():
    _assert_error_line(run("verify", "equalities", "--max-nodes", "0"),
                       "must be at least 1")


def test_verify_samples_below_one():
    _assert_error_line(run("verify", "equalities", "--samples", "-5"),
                       "must be at least 1")


_BAD_PARAMS = [
    pytest.param(["analyze", "--family", "moore_nim", "--params",
                  '{"n": "3", "k": 2}', "--roots", "1,1,1"], None,
                 "moore_nim parameter n", id="moore_nim-string"),
    pytest.param(["analyze", "--family", "ho_nim", "--params",
                  '{"shape": "cycle", "n": "5"}', "--roots", "1,1,1,1,1"],
                 None, "ho_nim parameter n", id="ho_nim-string"),
    pytest.param(["analyze", "--family", "subtraction", "--params",
                  '{"x": ["1", 2]}', "--roots", "5"], None,
                 "subtraction parameter x", id="subtraction-string"),
    pytest.param(["analyze", "--family", "subtraction", "--params",
                  '{"x": [1.5]}', "--roots", "5"], None,
                 "subtraction parameter x", id="subtraction-float"),
    pytest.param(["analyze", "--family", "wyt_a", "--params", '{"a": "2"}',
                  "--roots", "3,3"], None, "wyt_a parameter a",
                 id="wyt_a-string"),
    pytest.param(["analyze", "--family", "wyt_a", "--params", '{"a": 2.0}',
                  "--roots", "3,3"], None, "wyt_a parameter a",
                 id="wyt_a-float"),
    pytest.param(["analyze", "--family", "wyt_ab", "--params",
                  '{"a": 2, "b": "1"}', "--roots", "3,3"], None,
                 "wyt_ab parameter b", id="wyt_ab-string"),
    pytest.param(["analyze", "--family", "wyt_a", "--params", '{"a": true}',
                  "--roots", "3,3"], None, "wyt_a parameter a",
                 id="wyt_a-bool"),
    pytest.param(["sum"], {"family": "moore_nim", "params": {"n": "3", "k": 2},
                           "roots": [[1, 1, 1]]}, "moore_nim parameter n",
                 id="sum-moore_nim-string"),
    pytest.param(["sum"], {"family": "wyt_ab", "params": {"a": 1.5, "b": 1},
                           "roots": [[1, 1]]}, "wyt_ab parameter a",
                 id="sum-wyt_ab-float"),
    pytest.param(["sum"], {"family": "subtraction", "params": {"x": [True]},
                           "roots": [[3]]}, "subtraction parameter x",
                 id="sum-subtraction-bool"),
    pytest.param(["table", "--p-sequence", "--family", "wyt_a", "--a", "0"],
                 None, "wyt_a parameter a", id="p-sequence-wyt_a-a0"),
    pytest.param(["table", "--family", "wythoff", "--p-sequence", "--n",
                  "-3"], None, "sequence length -3",
                 id="p-sequence-negative-n"),
    pytest.param(["table", "--family", "wythoff", "--p-sequence", "--upto",
                  "-3"], None, "sequence length -3",
                 id="p-sequence-negative-upto"),
]


def _invoke_with_spec(argv, spec, directory):
    """Run ``argv``; a ``sum`` spec is summed with a one-pile nim."""
    if spec is not None:
        paths = [os.path.join(directory, "a.json"),
                 os.path.join(directory, "b.json")]
        for path, content in zip(paths, [spec, {"family": "nim",
                                                "roots": [[1]]}]):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        argv = argv + ["--game", paths[0], "--game", paths[1]]
    return CliRunner().invoke(main, argv)


@pytest.mark.parametrize("argv,spec,text", _BAD_PARAMS)
def test_bad_parameter_exits_2(argv, spec, text, tmp_path):
    _assert_error_line(_invoke_with_spec(argv, spec, str(tmp_path)), text)


_FUZZ_JUNK = st.sampled_from(["x", "", "1,,2", "2.5", "A", "E"])
# parameter values of the wrong type for every schema
_FUZZ_WRONG_TYPES = st.sampled_from(["3", 2.0, 1.5, True, False, [1], None,
                                     {"n": 1}])


def _fuzz_params(family):
    """A value for each of the family's schema keys: in range, out of range
    or of the wrong type."""
    values = {}
    for name, spec in TABLE[family].schema.items():
        if isinstance(spec, tuple):
            valid = st.sampled_from(spec + ("star",))
        elif isinstance(spec, list):
            valid = st.lists(st.integers(spec[0] - 1, 5), max_size=3)
        else:
            valid = st.integers(spec - 2, spec + 4)
        values[name] = st.one_of(valid, _FUZZ_WRONG_TYPES)
    return st.fixed_dictionaries(values)


@st.composite
def _fuzz_command(draw):
    """argv for one CLI call, and the game spec a ``sum`` call reads."""
    command = draw(st.sampled_from(["analyze", "table", "verify", "fixtures",
                                    "sum"]))
    small = st.integers(-2, 3)
    if command == "fixtures":
        return ["fixtures"], None
    if command == "verify":
        return ["verify", draw(st.sampled_from(SUITES + ("all",))),
                "--samples", str(draw(small)),
                "--max-nodes", str(draw(small))], None
    coordinates = st.lists(st.integers(-3, 6), min_size=1, max_size=3)
    family = draw(st.sampled_from(FAMILIES))
    params = draw(st.fixed_dictionaries({}, optional={
        "n": st.integers(-1, 4), "k": st.integers(-1, 4), "a": small,
        "b": small, "shape": st.sampled_from(["cycle", "path", "conj1",
                                              "conj2", "star"])}))
    schema_params = draw(_fuzz_params(family))
    if command == "sum":
        coordinate = st.one_of(st.integers(-3, 6), st.booleans())
        roots = draw(st.lists(st.lists(coordinate, min_size=1, max_size=3),
                              max_size=2))
        return ["sum"], {"family": family, "params": {**params,
                                                      **schema_params},
                         "roots": roots}
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(["--sg", "--p-sequence"])))
        if draw(st.booleans()):
            argv += ["--upto", str(draw(st.integers(-2, 3)))]
    if draw(st.booleans()):
        argv += ["--fixture", draw(st.sampled_from(FIXTURE_NAMES))]
    else:
        argv += ["--family", family]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        if schema_params:
            argv += ["--params", json.dumps(schema_params)]
        if family == "subtraction" and draw(st.booleans()):
            argv += ["--set", draw(st.sampled_from(["1,2", "0", "2,x"]))]
    for root in draw(st.lists(st.one_of(
            coordinates.map(lambda cs: ",".join(map(str, cs))), _FUZZ_JUNK),
            max_size=2)):
        argv += ["--roots", root]
    if draw(st.booleans()):
        argv += ["--box", str(draw(st.integers(-2, 3)))]
    return argv, None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_command())
@example((["sum"], {"family": "wythoff", "params": {}, "roots": [[True, 2]]}))
def test_cli_argv_fuzz(command):
    """Every argv of the grammar exits 0, 1 (verify only) or 2, without a
    traceback."""
    argv, spec = command
    with tempfile.TemporaryDirectory() as tmp:
        result = _invoke_with_spec(argv, spec, tmp)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), (argv, spec)
    assert result.exit_code in (0, 1, 2), (argv, spec)
    assert result.exit_code != 1 or argv[0] == "verify", (argv, spec)
    if spec is not None and any(isinstance(c, bool)
                                for root in spec["roots"] for c in root):
        assert result.exit_code == 2, (argv, spec)
