"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, job=1)


def test_self_time_on_hand_built_tree():
    tree = [
        _span("cli", 0.0, 10.0, None),      # 0
        _span("core.a", 1.0, 4.0, 0),       # 1
        _span("zoo.c", 2.0, 3.0, 1),        # 2
        _span("grundy.b", 5.0, 9.0, 0),     # 3
        _span("zoo.d", 6.0, 8.0, 3),        # 4
        _span("zoo.e", 7.0, 8.5, 3),        # 5: overlaps d
    ]
    assert spans.self_times(tree) == pytest.approx(
        [3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_self_time_clips_children_to_the_parent_interval():
    tree = [_span("cli", 0.0, 4.0, None), _span("core.a", 3.0, 6.0, 0)]
    assert spans.self_times(tree, offset=0)[0] == pytest.approx(3.0)


def test_gauge_divides_by_the_references_around_each_step(monkeypatch):
    refs = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "reference", lambda: next(refs))
    gauge = run.Gauge()
    assert gauge.rescale(2.0) == pytest.approx(2.0 * run.REF_SECONDS / 0.2)
    assert gauge.rescale(1.0) == pytest.approx(1.0 * run.REF_SECONDS / 0.25)


def test_names_and_units_follow_the_grammar():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["unit"] == run.unit_of(metric["name"]), metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        run.WORKLOADS)


def _result(capsys, argv):
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(capsys, trace, group):
    code, result = _result(capsys, ["--workload", "verify_all", "--seed", "2",
                                    "--seconds", "0", "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert layers == pytest.approx(m["trace.job_s"], abs=1e-9)
        assert m["suites.self_s"] > 0 and m["grundy.consistency_s"] > 0


def test_a_wrong_digest_counts_as_a_failed_job(capsys, monkeypatch):
    bad = dataclasses.replace(run.WORKLOADS["verify_all"],
                              stdout_sha256="0" * 64)
    monkeypatch.setitem(run.WORKLOADS, "verify_all", bad)
    code, result = _result(capsys, ["--workload", "verify_all", "--seed", "0",
                                    "--seconds", "0", "--trace", "0"])
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:],
                           "--workload", "verify_all", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
