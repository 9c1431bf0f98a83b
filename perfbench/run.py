"""Benchmark grundylab's CLI end to end, or time its layers in a traced run.

Run one workload with one seed from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 3 --seconds 20 --trace 0

``--trace 0`` runs the workload's command as fresh CLI processes, one after
another (a closed loop with one client), while another job fits in
``--seconds``.  It reports wall time and interpreter set-up time, both
rescaled to nominal machine speed (see ``Gauge``), peak memory, and the
share of jobs whose output was correct.  ``--trace 1`` runs the same
command in-process through ``grundylab.cli.main``: one memory pass, then
untraced and traced jobs in turn.  It reports per-layer metrics.  The last
line of stdout is one JSON object; the exit code is 0 only if every output
was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 5
REF_SECONDS = 0.035

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS, check_labels, check_output, prepare  # noqa: E402


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_edge"):
        return "B/edge"
    if metric.endswith("_per_node"):
        return "B/node"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed package imports from its bytecode cache; so do the jobs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd: list, env: dict, out_path: Path):
    """Run ``cmd`` to completion; (wall seconds, exit code, peak RSS MB)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"),
                                           "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def import_seconds(env: dict, work: Path) -> float:
    """Wall time of a fresh interpreter importing grundylab.cli."""
    wall, code, _ = spawn([sys.executable, "-c", "import grundylab.cli"],
                          env, work / "setup.out")
    if code != 0:
        raise RuntimeError("importing grundylab.cli failed: "
                           + (work / "setup.err").read_text()[-500:])
    return wall


def reference() -> float:
    """Wall time of a fixed pure-Python job: Grundy values of a two-pile
    take-away game, by dicts, tuples, sets and mex, as grundylab computes."""
    start = time.perf_counter()
    g = {}
    for x in range(60):
        for y in range(60):
            seen = {g[o] for o in [(v, y) for v in range(x)]
                    + [(x, v) for v in range(y)]}
            m = 0
            while m in seen:
                m += 1
            g[x, y] = m
    return time.perf_counter() - start


class Gauge:
    """Rescales times taken on a machine whose speed drifts.

    Shared machines here drift by a third over minutes, which no run length
    averages out.  The reference job runs before and after every timed step;
    the step's time is divided by the mean of the two reference times and
    multiplied by REF_SECONDS, the reference's time at nominal speed.
    """

    def __init__(self):
        self.refs = [reference()]

    def rescale(self, seconds: float) -> float:
        self.refs.append(reference())
        return seconds * 2 * REF_SECONDS / (self.refs[-2] + self.refs[-1])


def room_for(start: float, seconds: float, durations: list) -> bool:
    """Whether one more step of median length ends by the deadline."""
    left = seconds - (time.perf_counter() - start)
    return statistics.median(durations) <= left


def timed_run(w, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    cmd = [sys.executable, "-m", "grundylab.cli", *w.argv(seed, str(work))]
    out_path = work / "job.out"
    import_seconds(env, work)  # writes the bytecode cache
    start = time.perf_counter()
    gauge = Gauge()
    # set-up samples: some first, then one after each job, so that they
    # see the same machine as the jobs
    imports, setups = [], []
    for _ in range(SETUP_SAMPLES):
        imports.append(import_seconds(env, work))
        setups.append(gauge.rescale(imports[-1]))
    walls, scaled, rss, steps, failed = [], [], [], [], 0
    while not steps or room_for(start, seconds, steps):
        began = time.perf_counter()
        wall, code, peak = spawn(cmd, env, out_path)
        scaled.append(gauge.rescale(wall))
        problems = check_output(w, seed, out_path.read_bytes(), str(work))
        if code != 0:
            problems.append(f"exit code {code}: "
                            + out_path.with_suffix(".err").read_text()[-500:])
        failed += bool(problems)
        for p in problems:
            print(f"job {len(walls)}: {p}", file=sys.stderr)
        walls.append(wall)
        rss.append(peak)
        imports.append(import_seconds(env, work))
        setups.append(gauge.rescale(imports[-1]))
        steps.append(time.perf_counter() - began)
    n = len(walls)
    metrics = {"wall_s": statistics.median(scaled),
               "peak_rss_mb": statistics.median(rss),
               "setup_s": statistics.median(setups),
               "pass_ratio": (n - failed) / n}
    print(f"{w.name} seed {seed}: {n} jobs, {failed} failed; reference "
          f"{statistics.median(gauge.refs):.4f} s (median of "
          f"{len(gauge.refs)}), nominal {REF_SECONDS} s")
    print(f"  wall_s       {metrics['wall_s']:.4f} s at nominal speed, "
          f"{statistics.median(walls):.4f} s measured (median of {n} jobs)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  setup_s      {metrics['setup_s']:.4f} s at nominal speed, "
          f"{statistics.median(imports):.4f} s measured (median of "
          f"{len(imports)} imports)")
    print(f"  fail_ratio   {failed / n:.4f} ({failed} of {n})")
    return _result(n, failed, metrics)


def call_cli(main, argv: list, rec=None):
    """Run the CLI in this process; (seconds, stdout bytes, exit code).
    With a recorder, the call is the job's root ``cli`` span."""
    buf = io.StringIO()
    gc.collect()  # each job starts without the previous job's garbage
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        span = rec.begin("cli") if rec else None
        try:
            main.main(args=argv, prog_name="grundylab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            if span:
                rec.finish(span)
        wall = time.perf_counter() - start
    return wall, buf.getvalue().encode(), code


def traced_run(w, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from grundylab.cli import main

    argv = w.argv(seed, str(work))
    rec = spans.Recorder()
    untraced, per_job, attempted, failed = [], [], 0, 0

    def judge(label, code, out, extra=()):
        nonlocal attempted, failed
        problems = check_output(w, seed, out, str(work)) + list(extra)
        if code != 0:
            problems.append(f"exit code {code}")
        attempted += 1
        failed += bool(problems)
        for p in problems:
            print(f"{label}: {p}", file=sys.stderr)

    start = time.perf_counter()
    totals = Counter()
    with spans.memory_context(totals):
        _, out, code = call_cli(main, argv)
    judge("memory pass", code, out)

    pairs = []  # at least two, so that the medians have a second sample
    while len(pairs) < 2 or room_for(start, seconds, pairs):
        began = time.perf_counter()
        wall, out, code = call_cli(main, argv)
        judge("untraced job", code, out)
        untraced.append(wall)

        rec.new_job()
        with spans.instrument(rec):
            _, out, code = call_cli(main, argv, rec)
        m = spans.job_metrics(rec)
        judge(f"traced job {rec.job}", code, out, check_labels(
            w, spans.job_results(rec, "grundy.label")))
        m["core.order_s"] = spans.order_seconds(
            spans.job_results(rec, "core.enumerate"))
        spans.release_results(rec)
        per_job.append(m)
        pairs.append(time.perf_counter() - began)
    rec.write(work / f"spans-seed{seed}.jsonl")

    metrics, unsteady = {}, []
    for name in per_job[0]:
        values = [m[name] for m in per_job]
        if unit_of(name) == "count":
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            metrics[name] = statistics.median(values)
    for name in unsteady:
        print(f"count {name} differs between traced jobs", file=sys.stderr)
    failed += bool(unsteady)
    metrics["core.graph_bytes_per_edge"] = (
        totals["graph_bytes"] / totals["graph_items"])
    metrics["grundy.label_bytes_per_node"] = (
        totals["label_bytes"] / totals["label_items"])
    metrics["trace.overhead_ratio"] = (metrics["trace.job_s"]
                                       / statistics.median(untraced))
    print(f"{w.name} seed {seed}: {len(per_job)} traced jobs, "
          f"{attempted} in-process jobs, {failed} failed")
    for name in sorted(metrics):
        print(f"  {name:30s} {metrics[name]:.6g} {unit_of(name)}")
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "grundylab" / "cli.py").is_file():
        print(f"error: no grundylab sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = WORK / w.name
    prepare(str(work))
    run = traced_run if args.trace else timed_run
    result = run(w, args.seed, args.seconds, work)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
