"""The benchmark's workloads: CLI arguments, recorded output digests and
independent oracles.

Digests are SHA-256 of the bytes the parent commit printed for the same
arguments.  ``verify all`` prints its seed, so its output is compared with
the seed written as ``SEED``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

NIM_SPEC = {"family": "nim", "roots": [[6, 6, 6]]}
SUBTRACTION_SPEC = {"family": "subtraction", "params": {"x": [1, 2]},
                    "roots": [[30]]}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple            # CLI arguments; "{seed}" and "{work}" are filled in
    stdout_sha256: str
    files: dict = field(default_factory=dict)  # name in work dir -> SHA-256

    def argv(self, seed: int, work: str) -> list[str]:
        return [a.format(seed=seed, work=work) for a in self.args]


WORKLOADS = {w.name: w for w in (
    Workload("wythoff_dense",
             ("analyze", "--family", "wythoff", "--box", "60",
              "--format", "json"),
             "5c4110512153ac4eed67ea04183b16c2"
             "d1f7643552e9369fcfd0e60bd446f65f"),
    Workload("subtraction_chain",
             ("analyze", "--family", "subtraction", "--set", "1,2",
              "--roots", "10000", "--format", "json"),
             "86de23086a1cf932f909ef7d4141f99e"
             "2882582080954f8ca650c6a3447a28e5"),
    Workload("verify_all",
             ("verify", "all", "--seed", "{seed}", "--format", "json"),
             "7f7ed0c85c8e889b34bf9c908a5e23a3"
             "81dfa58ff9e8414759a90b8c42717b55"),
    Workload("sum_table",
             ("sum", "--game", "{work}/nim.json",
              "--game", "{work}/subtraction.json",
              "--target", "tame", "--table", "{work}/sum_table.csv"),
             "00c004e647c5725f38557b9e3e6c7b56"
             "c4ed96744ec5ecd72facecc81a66dd2f",
             {"sum_table.csv": "c97bd62f2f33704efdba63b6b31b482a"
                               "3bd8da88511b562a89380cefa70f59c2"}),
)}


def prepare(work: str):
    """Write the input files the workloads read."""
    os.makedirs(work, exist_ok=True)
    for name, spec in (("nim.json", NIM_SPEC),
                       ("subtraction.json", SUBTRACTION_SPEC)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(w: Workload, seed: int, stdout: bytes, work: str) -> list:
    """Problems with one job's output; empty when it is correct."""
    problems = []
    digested = stdout
    if w.name == "verify_all":
        digested = (stdout.replace(b'"seed": %d,' % seed, b'"seed": SEED,')
                    .replace(b'seed %d"' % seed, b'seed SEED"'))
    if _sha256(digested) != w.stdout_sha256:
        problems.append("stdout digest differs from the parent commit's")
    for name, digest in w.files.items():
        try:
            with open(os.path.join(work, name), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if _sha256(data) != digest:
            problems.append(f"{name} digest differs from the parent commit's")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if w.name == "verify_all" and doc.get("ok") is not True:
        problems.append("verify all reports ok != true")
    if w.name == "sum_table":
        closure = doc.get("closure", {})
        if closure.get("sum_in_class") is not True:
            problems.append("tame sum not reported in class")
        if closure.get("label_mismatches") != []:
            problems.append("tame fast path disagrees with sum labels")
    return problems


def check_labels(w: Workload, labelings: list) -> list:
    """Oracle checks on the labelled graphs a traced job produced."""
    if w.name == "wythoff_dense":
        from grundylab.zoo import wythoff_p
        lg = labelings[0]
        problems = []
        for conv, attr in (("normal", "g"), ("misere", "g_minus")):
            want, n = set(), 0
            while wythoff_p(n, conv)[0] <= 60:
                x, y = wythoff_p(n, conv)
                if y <= 60:
                    want |= {(x, y), (y, x)}
                n += 1
            got = {p for p, lab in lg.labels.items()
                   if getattr(lab, attr) == 0}
            if got != want:
                problems.append(f"{conv} P-positions differ from wythoff_p: "
                                f"{sorted(got ^ want)[:4]}")
        return problems
    if w.name == "subtraction_chain":
        lg = labelings[0]
        bad = [p for p, lab in lg.labels.items()
               if tuple(lab) != (p[0] % 3, (1, 0, 2)[p[0] % 3])]
        if bad or len(lg.labels) != 10001:
            return [f"{len(lg.labels)} labels; off the period-3 pattern at "
                    f"{sorted(bad)[:4]}"]
    return []
