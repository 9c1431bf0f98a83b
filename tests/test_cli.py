import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grundylab.cli
import grundylab.fixtures
import grundylab.sums
from grundylab import enumerate_subgame, load_fixture, sg_labels
from grundylab.cli import main
from grundylab.core import BoxGraph, ReachableGraph
from grundylab.fixtures import FIXTURE_NAMES, fixture_roots
from grundylab.grundy import to_csv
from grundylab.suites import SUITES
from grundylab.zoo import FAMILIES, TABLE, make_family

from literal_games import sum_game


class Result:
    """One in-process CLI call: exit code, what it wrote, and the exception
    that ended it (``SystemExit`` for every exit, or an uncaught error)."""

    def __init__(self, exit_code, stdout, stderr, exception):
        self.exit_code, self.exception = exit_code, exception
        self.stdout, self.stderr = stdout, stderr
        self.output = stdout + stderr
        self.stdout_bytes = stdout.encode()


def run(*args, env=None):
    """``main`` on ``args`` with its output captured; ``env`` entries set
    (or, when None, unset) environment variables for the call."""
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        for key, value in (env or {}).items():
            os.environ.pop(key, None)
            if value is not None:
                os.environ[key] = value
        try:
            main.main(args=list(args), prog_name="grundylab")
        except SystemExit as exc:
            exit_code, exception = exc.code or 0, exc
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)


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
    _assert_error_line(run("analyze", "--roots", "1"),
                       "exactly one of --family / --fixture")
    _assert_error_line(run("analyze", "--family", "nim", "--fixture", "pet",
                           "--roots", "1"),
                       "exactly one of --family / --fixture")


def test_analyze_requires_positions():
    _assert_error_line(run("analyze", "--family", "nim"),
                       "no positions given")


def test_analyze_bad_params_exit_2():
    result = run("analyze", "--family", "moore_nim", "--n", "3", "--k", "9",
                 "--roots", "1,1,1")
    assert result.exit_code == 2
    assert "error" in result.output


def _assert_error_line(result, text):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
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
    # recorded while every box was enumerated breadth-first
    (("analyze", "--family", "nim", "--n", "3", "--box", "12", "--format",
      "json"),
     "edd3fdb6df968f2872ff7aa9500a2bddaed22d88819489db63f442e655d392ab"),
    (("table", "--family", "nim", "--n", "3", "--box", "8", "--sg"),
     "e3cea6014b6f6aa2edbf5189beccd02808f7e9aeecc195590bf358addb9decaf"),
    # recorded while every box stored its rows; the witnesses' reasons name
    # options the box path takes from its moves
    (("analyze", "--family", "wythoff", "--box", "60", "--format", "json"),
     "5c4110512153ac4eed67ea04183b16c2d1f7643552e9369fcfd0e60bd446f65f"),
    # recorded while a single root was enumerated breadth-first; each is
    # now the corner of its box
    (("analyze", "--family", "nim", "--roots", "20,20,20", "--format",
      "json"),
     "cf174eba0f760145cd74acce51a81ce526327dd307301dbb46d02a641965b488"),
    (("analyze", "--family", "wythoff", "--roots", "60,41", "--format",
      "text"),
     "c2c94a3b591e2d78791fa9b2a630064572aa98a128ab6eb0a7230657e60c6ed1"),
    (("table", "--sg", "--family", "subtraction", "--set", "1,3,4",
      "--roots", "5000"),
     "499bb53cbc33c8b6e5a67d760a394d0a55b595ddd6cf08bce38343a902e5e051"),
    # recorded while every box was labelled one option at a time
    (("analyze", "--family", "wythoff", "--box", "120", "--format", "json"),
     "907a471c1c40f78e0194f5e8ff3011a8503a22563dc67f7a4e01276219fda7d8"),
    (("analyze", "--family", "nim", "--roots", "8,8,8,8", "--format",
      "json"),
     "e7d14634879d5819a339bae0255930f7ac7c8032c61ec1efa928eb225f72ff39"),
    (("analyze", "--family", "wythoff", "--roots", "200,200", "--format",
      "json"),
     "f38dbe87a4183c8e99d54ade78b9fae3217a6c1ab8e55af4174bec4dab67b4f6"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_OUTPUTS,
                         ids=["wythoff_table", "nim_table", "subtraction",
                              "nim_box_analyze", "nim_box_table",
                              "wythoff_box_analyze", "nim_corner_analyze",
                              "wythoff_corner_analyze",
                              "subtraction_corner_table",
                              "wythoff_box_120_analyze",
                              "nim_4_piles_analyze",
                              "wythoff_corner_200_analyze"])
def test_output_bytes_pinned(argv, digest):
    result = run(*argv, env={"GRUNDY_CACHE_DIR": None})
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_table_needs_exactly_one_mode():
    _assert_error_line(run("table", "--family", "nim", "--piles", "2"),
                       "exactly one of --sg / --p-sequence")
    _assert_error_line(run("table", "--family", "nim", "--piles", "2", "--sg",
                           "--p-sequence"),
                       "exactly one of --sg / --p-sequence")


@pytest.mark.parametrize("argv,text", [
    (("analyze", "--family", "nim", "--roots", "3", "--colour", "red"),
     "unrecognized arguments: --colour red"),
    # no prefix of an option name is accepted
    (("analyze", "--fam", "nim", "--roots", "3"),
     "unrecognized arguments: --fam"),
    (("table", "--family", "wythoff", "--box", "x", "--sg"),
     "argument --box: invalid int value: 'x'"),
    (("analyze", "--family", "chess", "--roots", "3"),
     "argument --family: invalid choice: 'chess'"),
    (("play", "--family", "nim"), "invalid choice: 'play'"),
    ((), "required: COMMAND"),
    (("analyze", "--roots", "3", "--family"),
     "argument --family: expected one argument"),
    (("verify",), "required: suite"),
    (("verify", "all", "--seed"), "argument --seed: expected one argument"),
    (("sum", "--target", "tame"), "required: --game"),
    # argparse reads a coordinate list that starts with '-' as an option
    # ("expected one argument") or, in newer versions, as a value
    # ("negative coordinate"): one error line either way
    (("analyze", "--family", "nim", "--roots", "-1,2"), ""),
], ids=["unknown_option", "option_prefix", "box_not_int", "unknown_family",
        "unknown_command", "no_command", "option_without_value",
        "verify_without_suite", "seed_without_value", "sum_without_game",
        "negative_coordinate_list"])
def test_usage_error_is_one_line(argv, text):
    _assert_error_line(run(*argv), text)


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
    code = ("import sys; before = set(sys.modules); "
            "import grundylab.cli; print(sorted({'tempfile', "
            "'importlib.resources'} & (set(sys.modules) - before)))")
    # -S: no site-packages .pth file may import them first
    assert _python("-S", "-c", code).stdout == b"[]\n"


def test_cli_import_loads_only_the_standard_library():
    # -S: no site-packages at all; the CLI needs nothing outside the stdlib
    code = ("import sys; before = set(sys.modules); import grundylab.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] not in sys.stdlib_module_names "
            "and m.split('.')[0] != 'grundylab'))")
    proc = _python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


_IMPORT_GUARD = """\
import os, sys
before = set(sys.modules)
import grundylab.cli as cli
code = 0
if len(sys.argv) > 1:
    os.chdir(sys.argv[1])
    try:
        cli.main.main(args=sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
sys.stdout.flush()
print(code, *sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv,ok_on_312", [
    ((), []),
    (("analyze", "--family", "subtraction", "--set", "1,2", "--roots", "300",
      "--format", "json"), []),
    (("analyze", "--family", "wythoff", "--box", "10", "--format", "json"),
     []),
    (("sum", "--game", "nim.json", "--game", "sub.json", "--target", "tame",
      "--table", "sum.csv"), []),
    (("verify", "all", "--samples", "20", "--format", "json"), ["inspect"]),
    (("analyze", "--fixture", "pet"), ["inspect"]),
    (("fixtures",), ["inspect"]),
], ids=["import", "subtraction_chain", "wythoff_dense", "sum_table",
        "verify_all", "analyze_fixture", "fixtures"])
def test_cli_imports_neither_dataclasses_nor_inspect(tmp_path, argv,
                                                     ok_on_312):
    # dataclasses imports inspect, ast, dis, tokenize and more: several ms
    # of every process.  On 3.12 and later importlib.resources, which a
    # fixture read imports, brings inspect itself.  -S: no site-packages
    # .pth file may import either first
    (tmp_path / "nim.json").write_text('{"family": "nim", "roots": [[2, 3]]}')
    (tmp_path / "sub.json").write_text(
        '{"family": "subtraction", "params": {"x": [1, 2]}, "roots": [[9]]}')
    proc = _python("-S", "-c", _IMPORT_GUARD,
                   *((str(tmp_path), *argv) if argv else ()))
    code, *imported = proc.stderr.decode().split()
    assert code == "0", proc.stderr
    allowed = set(ok_on_312) if sys.version_info >= (3, 12) else set()
    assert set(imported) <= allowed, proc.stderr


def _python(*args, **kwargs):
    """A fresh interpreter that imports this checkout's grundylab, also
    under -S; ``kwargs`` go to ``subprocess.run``."""
    src = os.path.dirname(os.path.dirname(grundylab.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


@pytest.mark.parametrize("argv,code", [
    (("verify", "fixtures", "--format", "json"), 0),
    (("analyze", "--family", "nim"), 2),
], ids=["success", "usage_error"])
def test_module_entry_point_matches_in_process_main(argv, code):
    # python -m grundylab.cli goes through run(), as the console script does
    proc = _python("-m", "grundylab.cli", *argv)
    result = run(*argv)
    assert proc.returncode == result.exit_code == code
    assert proc.stdout == result.stdout_bytes
    assert proc.stderr == result.stderr.encode()


def _stdout_env(unbuffered):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(grundylab.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def _assert_broken_pipe_line(returncode, stderr):
    stderr = stderr.decode()
    assert returncode == 2
    assert stderr.splitlines() == [
        f"error: cannot write to stdout: {os.strerror(errno.EPIPE)}"]
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


# about 30 kB: the write itself meets the closed pipe
_LARGE_WRITE = ("table", "--family", "subtraction", "--set", "1,2",
                "--roots", "3000", "--sg")
# a few hundred bytes, held in the buffer until stdout is flushed
_FINAL_FLUSH = ("verify", "fixtures")


# each case also runs with PYTHONUNBUFFERED=1, as python -u does
@pytest.mark.parametrize("argv,unbuffered", [
    (_LARGE_WRITE, None), (_FINAL_FLUSH, None),
    (_LARGE_WRITE, "1"), (_FINAL_FLUSH, "1"),
], ids=["large_write", "final_flush", "large_write_unbuffered",
        "final_flush_unbuffered"])
def test_closed_stdout_exits_2_with_one_line(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = subprocess.run([sys.executable, "-m", "grundylab.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              env=_stdout_env(unbuffered), timeout=120)
    finally:
        os.close(write)
    _assert_broken_pipe_line(proc.returncode, proc.stderr)


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
def test_reader_leaving_mid_write_exits_2_with_one_line(unbuffered):
    # about 1 MB in one text write, more than a pipe holds: the reader
    # leaves after one byte, while the write is part done, so an
    # unbuffered raw write returns short instead of failing
    argv = ("table", "--family", "mark", "--roots", "100000", "--sg")
    with subprocess.Popen([sys.executable, "-m", "grundylab.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_stdout_env(unbuffered)) as proc:
        assert proc.stdout.read(1)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    _assert_broken_pipe_line(proc.returncode, stderr)


_GAME_OPTIONS = ("--family", "--fixture", "--params", "--a", "--b", "--n",
                 "--k", "--shape", "--set", "--roots", "--piles", "--box",
                 "--symmetry", "--no-symmetry")


@pytest.mark.parametrize("argv,names", [
    ((), ("analyze", "table", "verify", "sum", "fixtures")),
    (("analyze",), _GAME_OPTIONS + ("--format",)),
    (("table",), _GAME_OPTIONS + ("--sg", "--p-sequence", "--upto",
                                  "--n-max", "--convention", "--format",
                                  "--cache-dir")),
    (("verify",), ("--seed", "--samples", "--max-nodes", "--format",
                   *SUITES, "all")),
    (("sum",), ("--game", "--target", "--table")),
    (("fixtures",), ("--format",)),
], ids=["group", "analyze", "table", "verify", "sum", "fixtures"])
def test_help_names_every_option(argv, names):
    result = run(*argv, "--help")
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout.startswith(f"usage: grundylab {' '.join(argv)}")
    words = set(result.stdout.replace(",", " ").replace("[", " ")
                .replace("]", " ").replace("{", " ").replace("}", " ")
                .split())
    assert set(names) <= words, set(names) - words


def _full_parser(argv):
    """``argv`` parsed by the parser of every command, which exits on each
    of them: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        grundylab.cli._parser("grundylab").parse_args(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


_COMMAND_NAMES = ("analyze", "table", "verify", "sum", "fixtures")


@pytest.mark.parametrize("argv", [
    ("--help",), *((name, "--help") for name in _COMMAND_NAMES),
    ("play", "--family", "nim"),
    *((name, "--fam", "nim") for name in _COMMAND_NAMES),
    ("verify",), ("verify", "all", "--seed", "x"),
    ("analyze", "--fixture", "pet", "--a", "x"),
    ("table", "--family", "nim", "--box", "x", "--sg"),
], ids=["help", *(f"{name}_help" for name in _COMMAND_NAMES),
        "unknown_command",
        *(f"{name}_option_prefix" for name in _COMMAND_NAMES),
        "missing_suite", "verify_bad_int", "analyze_bad_int",
        "table_bad_int"])
def test_one_command_parser_prints_what_the_full_parser_prints(argv):
    result = run(*argv)
    assert (result.exit_code, result.stdout, result.stderr) == \
        _full_parser(argv)


@pytest.mark.parametrize("argv,built", [
    (("analyze", "--fixture", "pet"), ["analyze"]),
    (("verify", "fixtures"), ["verify"]),
    (("fixtures", "--format", "json"), ["fixtures"]),
    (("--help",), list(_COMMAND_NAMES)),
    (("ana", "--fixture", "pet"), list(_COMMAND_NAMES)),
    ((), list(_COMMAND_NAMES)),
], ids=["analyze", "verify", "fixtures", "help", "command_prefix",
        "no_command"])
def test_main_builds_the_named_commands_parser_only(argv, built,
                                                    monkeypatch):
    calls, parser = [], grundylab.cli._parser

    def counted(prog, names):
        calls.append(list(names))
        return parser(prog, names)

    monkeypatch.setattr(grundylab.cli, "_parser", counted)
    run(*argv)
    assert calls == [built]


def test_only_verify_imports_the_suites():
    code = ("import sys, grundylab.cli as cli\n"
            "def loaded():\n"
            "    return sorted({'grundylab.suites',\n"
            "                   'grundylab.random_games'}\n"
            "                  & set(sys.modules))\n"
            "print('import', loaded(), file=sys.stderr)\n"
            "for argv in (['analyze', '--fixture', 'pet'],\n"
            "             ['table', '--fixture', 'pet', '--sg'],\n"
            "             ['fixtures'], ['verify', 'fixtures']):\n"
            "    try:\n"
            "        cli.main.main(args=argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    print(argv[0], loaded(), file=sys.stderr)\n")
    assert _python("-c", code).stderr.decode().splitlines() == [
        "import []", "analyze []", "table []", "fixtures []",
        "verify ['grundylab.random_games', 'grundylab.suites']"]

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
    _assert_error_line(run("verify", "chess"),
                       "argument suite: invalid choice: 'chess'")


def _verify_all(seed, fmt):
    return ("verify", "all", "--seed", str(seed), "--format", fmt)


@pytest.mark.parametrize("seed", range(4))
def test_forked_verify_all_matches_in_process(seed):
    # python -m runs cli.run, which forks a child per further CPU
    for fmt in ("json", "text"):
        proc = _python("-m", "grundylab.cli", *_verify_all(seed, fmt),
                       timeout=120)
        result = run(*_verify_all(seed, fmt))
        assert proc.returncode == result.exit_code == 0
        assert proc.stdout == result.stdout_bytes
        assert proc.stderr == result.stderr.encode() == b""


# cli.run() with os.fork counted; PRELUDE runs first, and the log file gets
# the fork count and whether a child was left unreaped
_FORKING_RUN = """
import errno, os, sys
import grundylab.cli as cli
from grundylab import suites
log, prelude = sys.argv[1:3]
sys.argv = ["grundylab", *sys.argv[3:]]
forks, fork = [], os.fork

def counted_fork():
    forks.append(None)
    return fork()

os.fork = counted_fork
exec(prelude)
try:
    cli.run()
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child left"
    except ChildProcessError:
        left = "no child left"
    with open(log, "w") as fh:
        fh.write(f"{len(forks)} forks, {left}")
"""


def _forking_run(tmp_path, argv, prelude="", **kwargs):
    """``cli.run()`` on ``argv`` in a fresh interpreter: the process and
    its log, the fork count and whether any child was left."""
    log = tmp_path / "forks.log"
    proc = _python("-c", _FORKING_RUN, str(log), prelude, *argv,
                   timeout=120, **kwargs)
    return proc, log.read_text()


def _cpus():
    return len(os.sched_getaffinity(0))


def _forks():
    """The children ``verify all`` forks: one per CPU but its own."""
    return min(_cpus(), len(SUITES)) - 1


def test_forked_verify_all_forks_one_child_per_further_cpu(tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    argv = _verify_all(2, "json")
    proc, log = _forking_run(tmp_path, argv)
    assert log == f"{_forks()} forks, no child left"
    assert (proc.returncode, proc.stdout) == (0, run(*argv).stdout_bytes)


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_all_on_one_cpu_runs_serially(tmp_path, fmt):
    argv = _verify_all(1, fmt)
    proc, log = _forking_run(tmp_path, argv, preexec_fn=_pin_to_one_cpu)
    assert log == "0 forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")


def test_verify_all_runs_the_rest_in_process_when_fork_fails(tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # the first fork fails, so no further one is tried
    prelude = ("def fork():\n"
               "    forks.append(None)\n"
               "    raise OSError(errno.EAGAIN, 'no more processes')\n"
               "os.fork = fork\n")
    argv = _verify_all(3, "text")
    proc, log = _forking_run(tmp_path, argv, prelude)
    assert log == "1 forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")


def test_verify_all_bad_sizes_start_no_child(tmp_path):
    proc, log = _forking_run(tmp_path, ("verify", "all", "--samples", "0"))
    assert log == "0 forks, no child left"
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "error: samples (0) and max_nodes (12) must be at least 1"]


# the source of a replacement for the moore suite's runner, run in a child
# interpreter and in-process
_BROKEN_MOORE = {
    "failed_check":
        "    return suites.SuiteResult(\n"
        "        'moore', seed, [('on_purpose', False, 'this check fails')])\n",
    "invalid_params": "    raise suites.InvalidParams('moore cannot run')\n",
    "runtime_error": "    raise RuntimeError('moore broke')\n",
}


@pytest.mark.parametrize("case", list(_BROKEN_MOORE))
def test_forked_suite_failures_exit_as_in_process(tmp_path, case):
    source = ("def broken_moore(seed, samples, max_nodes):\n"
              + _BROKEN_MOORE[case])
    argv = ("verify", "all", "--samples", "20")
    proc, log = _forking_run(
        tmp_path, argv, source + "suites._RUNNERS['moore'] = broken_moore\n")
    namespace = {"suites": grundylab.suites}
    exec(source, namespace)
    with mock.patch.dict(grundylab.suites._RUNNERS,
                         moore=namespace["broken_moore"]):
        result = run(*argv)
    assert log.endswith(" forks, no child left")
    assert proc.returncode == result.exit_code
    assert proc.stdout == result.stdout_bytes
    stderr = proc.stderr.decode()
    if case == "failed_check":
        assert result.exit_code == 1 and stderr == ""
        assert "  FAIL on_purpose: this check fails" in result.stdout
    elif case == "invalid_params":
        assert result.exit_code == 2 and result.stdout == ""
        assert stderr.splitlines() == ["error: moore cannot run"]
        assert stderr == result.stderr
    elif _cpus() > 1:
        assert result.exit_code == 1 and result.stdout == ""
        # the suite ran again here, after the children, and raised
        assert stderr.count("Traceback (most recent call last)") == 1
        assert "broken_moore" in stderr
        assert stderr.rstrip().endswith("RuntimeError: moore broke")


# python -m grundylab.cli on sys.argv[2:] after the source sys.argv[1],
# with an exit handler that writes "shutdown" to stderr: it runs only when
# the interpreter shuts down as usual
_ENTRY_POINT = """
import atexit, os, runpy, sys
from grundylab import suites
atexit.register(os.write, 2, b"shutdown\\n")
exec(sys.argv[1])
sys.argv = ["grundylab", *sys.argv[2:]]
runpy.run_module("grundylab.cli", run_name="__main__", alter_sys=True)
"""
_SHUTDOWN = b"shutdown\n"


def _entry_point(argv, prelude="", flags=(), stdout=subprocess.PIPE):
    src = os.path.dirname(os.path.dirname(grundylab.__file__))
    return subprocess.run(
        [sys.executable, *flags, "-c", _ENTRY_POINT, prelude, *argv],
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))


# name -> (argv, the _BROKEN_MOORE case its moore suite runs, or None)
_EXITS = {"success": (("verify", "fixtures", "--format", "json"), None),
          "usage_error": (("analyze", "--family", "nim"), None),
          **{case: (("verify", "all", "--samples", "20"), case)
             for case in _BROKEN_MOORE}}


def _exit_case(name, flags=()):
    """``_EXITS[name]`` through the entry point, run with ``flags``, and
    in-process."""
    argv, case = _EXITS[name]
    if case is None:
        return _entry_point(argv, flags=flags), run(*argv)
    source = ("def broken_moore(seed, samples, max_nodes):\n"
              + _BROKEN_MOORE[case])
    proc = _entry_point(
        argv, source + "suites._RUNNERS['moore'] = broken_moore\n", flags)
    namespace = {"suites": grundylab.suites}
    exec(source, namespace)
    with mock.patch.dict(grundylab.suites._RUNNERS,
                         moore=namespace["broken_moore"]):
        return proc, run(*argv)


@pytest.mark.parametrize("name", list(_EXITS))
def test_entry_point_ends_without_teardown_as_main_exits(name):
    proc, result = _exit_case(name)
    if name == "runtime_error":
        # not a SystemExit: its traceback, exit 1 and the usual shutdown
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.count(b"Traceback (most recent call last)") == 1
        assert proc.stderr.endswith(b"RuntimeError: moore broke\n"
                                    + _SHUTDOWN)
        return
    assert result.exit_code == {"success": 0, "failed_check": 1}.get(name, 2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        result.exit_code, result.stdout_bytes, result.stderr.encode())


@pytest.mark.parametrize("name", ["success", "usage_error", "failed_check"])
def test_entry_point_under_dev_mode_shuts_down_as_usual(name):
    proc, result = _exit_case(name, ("-X", "dev"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        result.exit_code, result.stdout_bytes,
        result.stderr.encode() + _SHUTDOWN)


def test_large_table_written_to_a_file_is_flushed_before_the_exit(tmp_path):
    # about 1 MB, with CI's pin: the last buffer is written before os._exit
    path = tmp_path / "mark.csv"
    with open(path, "wb") as fh:
        proc = _entry_point(("table", "--family", "mark", "--roots",
                             "100000", "--sg"), stdout=fh)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a439fa15dfa796244fcd85a29cc9c80596a1672cae788d85e95dff9ffdad5b56")


def test_closed_stdout_exits_2_with_one_line_without_teardown():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _entry_point(_LARGE_WRITE, stdout=write)
    finally:
        os.close(write)
    _assert_broken_pipe_line(proc.returncode, proc.stderr)


# a prelude for _FORKING_RUN: every suite runner appends "parent <suite>"
# or "child <suite>" to the log's .calls file, then calls before(in_parent),
# which a test may redefine, then runs the suite
_COUNTED_RUNNERS = """
import time
parent = os.getpid()
open(log + ".calls", "w").close()

def child_calls():
    with open(log + ".calls") as fh:
        return fh.read().count("child ")

def wait_for_child_calls(n):
    deadline = time.monotonic() + 30
    while child_calls() < n and time.monotonic() < deadline:
        time.sleep(0.01)

def before(in_parent):
    pass

def counted(name, runner):
    def call(*sizes):
        in_parent = os.getpid() == parent
        with open(log + ".calls", "a") as fh:
            fh.write(f"{'parent' if in_parent else 'child'} {name}\\n")
        before(in_parent)
        return runner(*sizes)
    return call

for name, runner in list(suites._RUNNERS.items()):
    suites._RUNNERS[name] = counted(name, runner)
"""


def _runner_calls(tmp_path):
    """The suites each process ran: ``{"parent": [...], "child": [...]}``,
    each list sorted."""
    calls = {"parent": [], "child": []}
    for line in (tmp_path / "forks.log.calls").read_text().splitlines():
        where, suite = line.split()
        calls[where].append(suite)
    return {where: sorted(suites) for where, suites in calls.items()}


def test_forked_suites_that_pass_run_once_each(tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # the parent's first suite waits until the children have taken the rest
    prelude = _COUNTED_RUNNERS + (
        "def before(in_parent):\n"
        "    if in_parent:\n"
        f"        wait_for_child_calls({len(SUITES) - 1})\n")
    argv = ("verify", "all", "--samples", "20")
    proc, log = _forking_run(tmp_path, argv, prelude)
    assert log == f"{_forks()} forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")
    calls = _runner_calls(tmp_path)
    assert len(calls["parent"]) == 1
    assert sorted(calls["parent"] + calls["child"]) == sorted(SUITES)


def test_forked_suites_on_more_workers_than_cpus_run_once_each(tmp_path):
    # sixteen CPUs claimed: seven children and the parent share one queue
    prelude = _COUNTED_RUNNERS + (
        "os.sched_getaffinity = lambda pid: set(range(16))\n")
    argv = ("verify", "all", "--samples", "20")
    proc, log = _forking_run(tmp_path, argv, prelude)
    assert log == f"{len(SUITES) - 1} forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")
    calls = _runner_calls(tmp_path)
    assert sorted(calls["parent"] + calls["child"]) == sorted(SUITES)


def test_forked_suites_are_handed_out_longest_first(tmp_path):
    # two CPUs claimed: one child; the parent's first suite waits until the
    # child has taken the other seven, one after another from the queue
    assert sorted(grundylab.cli._LONGEST_FIRST) == sorted(SUITES)
    prelude = _COUNTED_RUNNERS + (
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def before(in_parent):\n"
        "    if in_parent:\n"
        f"        wait_for_child_calls({len(SUITES) - 1})\n")
    argv = ("verify", "all", "--samples", "20")
    proc, log = _forking_run(tmp_path, argv, prelude)
    assert log == "1 forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")
    calls = [line.split() for line in
             (tmp_path / "forks.log.calls").read_text().splitlines()]
    [parent] = [suite for where, suite in calls if where == "parent"]
    # the parent or the child took the longest suite first, the other the
    # second longest
    assert parent in grundylab.cli._LONGEST_FIRST[:2]
    assert [suite for where, suite in calls if where == "child"] == [
        suite for suite in grundylab.cli._LONGEST_FIRST if suite != parent]


def test_forked_suite_whose_child_sent_nothing_runs_in_the_parent(tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # a child exits at its first suite; the parent waits until one has
    prelude = _COUNTED_RUNNERS + (
        "def before(in_parent):\n"
        "    if not in_parent:\n"
        "        os._exit(3)\n"
        "    wait_for_child_calls(1)\n")
    argv = _verify_all(0, "json")
    proc, log = _forking_run(tmp_path, argv, prelude)
    assert log == f"{_forks()} forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, run(*argv).stdout_bytes, b"")
    calls = _runner_calls(tmp_path)
    assert 1 <= len(calls["child"]) <= _forks()
    assert calls["parent"] == sorted(SUITES)


# a prelude for _FORKING_RUN, also run in-process: every suite gains one
# failing check whose detail is non-ASCII text of the type {detail}, str or
# NoteText, a str subclass that marshal refuses (it takes exact types only)
_NOTED_RUNNERS = """
class NoteText(str):
    pass

def noted(runner):
    def call(*sizes):
        res = runner(*sizes)
        res.add("note", False, {detail}("g\\u207b \\u2260 g \\u2014 \\u2713"))
        return res
    return call

for name, runner in list(suites._RUNNERS.items()):
    suites._RUNNERS[name] = noted(runner)
"""


def _noted_run(tmp_path, argv, detail, before):
    """``argv`` forked with ``_NOTED_RUNNERS`` and ``_COUNTED_RUNNERS``,
    whose ``before`` is the source ``before``, then in-process with
    ``_NOTED_RUNNERS``: the process, its log and the in-process result."""
    noted = _NOTED_RUNNERS.format(detail=detail)
    proc, log = _forking_run(tmp_path, argv,
                             _COUNTED_RUNNERS + noted + before)
    with mock.patch.dict(grundylab.suites._RUNNERS):
        exec(noted, {"suites": grundylab.suites})
        return proc, log, run(*argv)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_forked_suites_with_non_ascii_details_match_in_process(tmp_path,
                                                                fmt):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # the child takes every suite but the parent's first, and sends them
    argv = ("verify", "all", "--samples", "20", "--format", fmt)
    proc, log, result = _noted_run(
        tmp_path, argv, "str",
        "def before(in_parent):\n"
        "    if in_parent:\n"
        f"        wait_for_child_calls({len(SUITES) - 1})\n")
    assert log == f"{_forks()} forks, no child left"
    assert result.exit_code == 1
    assert ("\u2260" if fmt == "text" else "\\u2260") in result.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, result.stdout_bytes, b"")
    assert len(_runner_calls(tmp_path)["child"]) == len(SUITES) - 1


def test_forked_suite_whose_results_do_not_marshal_runs_in_the_parent(
        tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # a child's results do not marshal, so it sends nothing, and the parent
    # runs every suite itself once a child has taken one
    argv = _verify_all(0, "json")
    proc, log, result = _noted_run(
        tmp_path, argv, "NoteText",
        "def before(in_parent):\n"
        "    if in_parent:\n"
        "        wait_for_child_calls(1)\n")
    assert log == f"{_forks()} forks, no child left"
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, result.stdout_bytes, b"")
    calls = _runner_calls(tmp_path)
    assert 1 <= len(calls["child"]) <= len(SUITES) - 1
    assert calls["parent"] == sorted(SUITES)


def test_forked_suite_that_raises_in_the_parent_stops_the_children(tmp_path):
    if _cpus() < 2:
        pytest.skip("one CPU: verify all runs serially")
    # every suite raises in the parent, once a child has taken one; a
    # child's suites take 0.5 s each, so an emptied queue stops the child
    # at its first
    prelude = _COUNTED_RUNNERS + (
        "def before(in_parent):\n"
        "    if not in_parent:\n"
        "        time.sleep(0.5)\n"
        "        return\n"
        "    wait_for_child_calls(1)\n"
        "    raise RuntimeError('the parent broke')\n")
    proc, log = _forking_run(tmp_path, ("verify", "all", "--samples", "20"),
                             prelude)
    assert log == f"{_forks()} forks, no child left"
    assert proc.returncode == 1 and proc.stdout == b""
    stderr = proc.stderr.decode()
    assert stderr.count("Traceback (most recent call last)") == 1
    assert stderr.rstrip().endswith("RuntimeError: the parent broke")
    calls = _runner_calls(tmp_path)
    # its own suite, then the first suite in name order with no result
    assert len(calls["parent"]) == 2
    assert 1 <= len(calls["child"]) <= _forks()


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


def _pinned_sum(tmp_path, monkeypatch, second):
    """Digests of the stdout and the table of ``sum --target tame`` of the
    full 5x5 Wythoff box and the spec ``second``, and the types of the
    summand graphs."""
    graphs = []

    def kept(*args, **kwargs):
        graphs.append(enumerate_subgame(*args, **kwargs))
        return graphs[-1]

    monkeypatch.setattr("grundylab.cli.enumerate_subgame", kept)
    box = tmp_path / "W"
    box.write_text(json.dumps({"family": "wythoff", "roots": [
        list(p) for p in itertools.product(range(5), repeat=2)]}))
    other = tmp_path / "S"
    other.write_text(json.dumps(second))
    table = tmp_path / "T"
    result = run("sum", "--game", str(box), "--game", str(other),
                 "--target", "tame", "--table", str(table))
    assert result.exit_code == 0
    return ([type(g) for g in graphs],
            hashlib.sha256(result.stdout_bytes).hexdigest(),
            hashlib.sha256(table.read_bytes()).hexdigest())


def test_sum_with_a_box_summand_pinned(tmp_path, monkeypatch):
    # the full 5x5 Wythoff box and Nim from its corner (2, 3) take the box
    # path, and the product reads their rows; both digests were recorded
    # while every box stored its rows and (2, 3) was enumerated breadth-first
    assert _pinned_sum(tmp_path, monkeypatch,
                       {"family": "nim", "roots": [[2, 3]]}) == (
        [BoxGraph, BoxGraph],
        "540a52d74fb58c88a0bca2f9cb3e6c34ccd9513cf928af1fe3066c4234cedb6d",
        "d9c371af04d3cd8ed97049834a9b5a436c8b32a131b298b27f4b667a39c9e056")


def test_sum_of_a_box_and_a_breadth_first_summand_pinned(tmp_path,
                                                         monkeypatch):
    # subtraction {2, 3} has no move of 1, so no box moves: the product
    # mixes a box's rows built on demand with stored rows; both digests were
    # recorded while every single root was enumerated breadth-first
    assert _pinned_sum(tmp_path, monkeypatch, {
        "family": "subtraction", "params": {"x": [2, 3]},
        "roots": [[7]]}) == (
        [BoxGraph, ReachableGraph],
        "36792e4bfdd0690adb0cabfa84f8243fe5f0489bd4368429e267826d450f2a84",
        "758d135a3dc76e2307f53283aa502747cd29d2a1836f182bcd83acb30836aeb2")


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
    _assert_error_line(run("sum", "--game", str(spec)),
                       "a sum needs at least two --game specs")


def test_sum_bad_spec(tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    other = tmp_path / "ok.json"
    other.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    _assert_error_line(run("sum", "--game", str(other), "--game", str(spec)),
                       f"bad game spec {spec}: not JSON: ")


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, errno.ENOENT),
    (lambda path: path.mkdir(), errno.EISDIR),
], ids=["missing", "directory"])
def test_sum_spec_that_is_no_file(tmp_path, make, reason):
    spec = tmp_path / "g.json"
    make(spec)
    other = tmp_path / "ok.json"
    other.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    result = run("sum", "--game", str(other), "--game", str(spec))
    _assert_error_line(result, f"bad game spec {spec}: ")
    assert result.stderr == (f"error: bad game spec {spec}: "
                             f"{os.strerror(reason)}\n")


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
    assert result.stderr == (f"error: bad game spec {spec}: "
                             f"{os.strerror(errno.EACCES)}\n")


def test_sum_spec_not_utf8(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_bytes(b"\xff\xfe{}")
    result = run("sum", "--game", str(spec), "--game", str(spec))
    _assert_one_error_line(result)
    assert result.stderr.startswith(f"error: bad game spec {spec}: "
                                    "not UTF-8: ")


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


def test_sum_table_path_that_is_a_directory_is_refused_first(tmp_path):
    # the specs do not exist: the --table check comes before they are read
    missing = str(tmp_path / "missing.json")
    result = run("sum", "--game", missing, "--game", missing,
                 "--table", str(tmp_path))
    _assert_error_line(result, f"cannot write --table {tmp_path}: "
                               f"{os.strerror(errno.EISDIR)}")


def _sum_with_spec(tmp_path, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    other = tmp_path / "ok.json"
    other.write_text(json.dumps({"family": "nim", "roots": [[1]]}))
    return run("sum", "--game", str(bad), "--game", str(other))


def _assert_one_error_line(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
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


def test_sum_builds_no_product_rows(tmp_path):
    # the benchmark's sum_table job; both digests were recorded while every
    # product stored its rows
    nim, sub, table = (tmp_path / name for name in ("N", "S", "T"))
    nim.write_text(json.dumps({"family": "nim", "roots": [[6, 6, 6]]}))
    sub.write_text(json.dumps({"family": "subtraction",
                               "params": {"x": [1, 2]}, "roots": [[30]]}))
    result = run("sum", "--game", str(nim), "--game", str(sub),
                 "--target", "tame", "--table", str(table))
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
        "00c004e647c5725f38557b9e3e6c7b56c4ed96744ec5ecd72facecc81a66dd2f")
    assert hashlib.sha256(table.read_bytes()).hexdigest() == (
        "c97bd62f2f33704efdba63b6b31b482a3bd8da88511b562a89380cefa70f59c2")


@pytest.mark.parametrize("argv,spec", [
    (["analyze", "--fixture", "pet"], None),
    (["table", "--fixture", "pet", "--sg"], None),
    (["table", "--fixture", "pet", "--sg", "--roots", "B"], None),
    (["sum"], {"fixture": "pet"}),
], ids=["analyze", "table", "table_roots", "sum_spec"])
def test_fixture_file_is_read_once(argv, spec, tmp_path, monkeypatch):
    calls = []
    read = grundylab.fixtures.fixture_adjacency

    def counted(name):
        calls.append(name)
        return read(name)

    for module in (grundylab.cli, grundylab.fixtures):
        monkeypatch.setattr(module, "fixture_adjacency", counted)
    result = _invoke_with_spec(argv, spec, str(tmp_path))
    assert result.exit_code == 0, result.output
    assert calls == ["pet"]


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
    pytest.param(["sum"], {"family": "subtraction", "params": {"x": [0]},
                           "roots": [[3]]}, "subtraction parameter x",
                 id="sum-subtraction-zero"),
    pytest.param(["sum"], {"family": "nope", "roots": [[1]]},
                 "unknown family 'nope'", id="sum-unknown-family"),
    pytest.param(["sum"], {"fixture": "nope"}, "unknown fixture 'nope'",
                 id="sum-unknown-fixture"),
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
    return run(*argv)


@pytest.mark.parametrize("argv,spec,text", _BAD_PARAMS)
def test_bad_parameter_exits_2(argv, spec, text, tmp_path):
    result = _invoke_with_spec(argv, spec, str(tmp_path))
    _assert_error_line(result, text)
    if spec is not None:  # the line names the spec's file
        assert result.stderr.startswith(
            f"error: bad game spec {tmp_path / 'a.json'}: ")


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
    traceback; an exit 2 writes one ``error:`` line and nothing else."""
    argv, spec = command
    with tempfile.TemporaryDirectory() as tmp:
        result = _invoke_with_spec(argv, spec, tmp)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), (argv, spec)
    assert result.exit_code in (0, 1, 2), (argv, spec)
    assert result.exit_code != 1 or argv[0] == "verify", (argv, spec)
    if result.exit_code == 2:
        assert result.stdout == "", (argv, spec)
        assert result.stderr.count("\n") == 1, (argv, spec, result.stderr)
        assert result.stderr.startswith("error: "), (argv, spec)
    if spec is not None and any(isinstance(c, bool)
                                for root in spec["roots"] for c in root):
        assert result.exit_code == 2, (argv, spec)
