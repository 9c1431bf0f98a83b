"""Command-line front end: classify games, tabulate values, run the
verification suites, and analyze disjunctive sums."""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import marshal
import os
import sys

from .core import GameError, InvalidParams, UnknownPosition
from .core import enumerate_subgame, source_nodes
from .fixtures import (FIXTURE_NAMES, fixture_adjacency, fixture_graph,
                       game_from_adjacency)
from .grundy import sg_labels, to_csv, to_json, write_csv
from .classify import classify
from .suites import SUITES, SuiteResult, check_sizes, run_suite
from .sums import check_closure, sum_graph
from . import zoo

CACHE_FORMAT_VERSION = 1


def _fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _params(opts):
    """The family parameters: ``--params`` with the one-parameter options
    laid over it."""
    try:
        params = json.loads(opts.params) if opts.params else {}
    except ValueError as exc:
        raise InvalidParams(f"--params is not JSON: {exc}") from None
    if not isinstance(params, dict):
        raise InvalidParams("--params must be a JSON object")
    for key in ("a", "b", "n", "k", "shape"):
        if getattr(opts, key) is not None:
            params[key] = getattr(opts, key)
    if opts.set:
        try:
            params["x"] = tuple(int(v) for v in opts.set.split(","))
        except ValueError:
            raise InvalidParams(f"--set {opts.set!r} must be "
                                "comma-separated integers") from None
    return params


def _source(fixture, family, params, symmetry, roots, box=None):
    """The game and its roots: the fixture named when ``family`` is None,
    else the family with ``params``.

    A fixture's roots are node names, its source nodes when none are
    given.  A family's roots are positions, as tuples of integers or as
    comma-separated integers; when none are given, every position with
    coordinates <= ``box``.
    """
    if family is None:
        nodes = fixture_adjacency(fixture)
        game = game_from_adjacency(fixture, nodes)
        if not roots:
            return game, source_nodes(nodes)
        for r in roots:
            if not isinstance(r, str) or r not in nodes:
                raise UnknownPosition(f"fixture {fixture} has no node {r!r}")
        return game, list(roots)
    game = zoo.make_family(family, params, use_symmetry=symmetry)
    arity = zoo.TABLE[family].arity(game.params)
    if not roots:
        if box is None:
            raise InvalidParams("no positions given: use --roots/--piles "
                                "or --box")
        if arity is None:  # any pile count: take it from --n
            arity = game.params.get("n")
            if not isinstance(arity, int) or arity < 0:
                raise InvalidParams(f"--box needs a pile count --n >= 0 "
                                    f"for family {family}")
        if box < 0:
            raise InvalidParams(f"--box {box} is negative")
        return game, zoo.box_roots(arity, box)
    positions = []
    for root in roots:
        if isinstance(root, str):
            try:
                root = tuple(int(p) for p in root.split(","))
            except ValueError:
                raise InvalidParams(f"root {root!r} must be comma-separated "
                                    "integers") from None
        elif not all(isinstance(c, int) and not isinstance(c, bool)
                     for c in root):
            raise InvalidParams(f"root {list(root)} must hold integers")
        if arity is not None and len(root) != arity:
            raise InvalidParams(f"{family} positions have {arity} coordinates,"
                                f" root {list(root)} has {len(root)}")
        if any(c < 0 for c in root):
            raise InvalidParams(f"root {list(root)} has a negative coordinate")
        positions.append(root)
    return game, positions


def _game(opts, params):
    """The game and roots that the shared game options name."""
    if (opts.family is None) == (opts.fixture is None):
        _fail("give exactly one of --family / --fixture")
    return _source(opts.fixture, opts.family, params, opts.symmetry,
                   opts.roots, opts.box)


def analyze(opts):
    """Classify the game reachable from the given positions."""
    try:
        game, roots = _game(opts, _params(opts))
        lg = sg_labels(enumerate_subgame(game, roots))
        report = classify(lg)
    except GameError as exc:
        _fail(str(exc))
    if opts.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"game: {game.family}  ({report.enumerated_bound})")
        for pred, verdict in report.verdicts.items():
            line = f"  {pred:20s} {'yes' if verdict else 'no'}"
            if not verdict:
                pos, lab, reason = report.witnesses[pred]
                line += f"   witness {pos!r} {tuple(lab)}: {reason}"
            print(line)
    sys.exit(0)


def _cache_fetch(directory, key):
    """The cached text, or None when the entry is missing or fails its
    checksum header."""
    path = os.path.join(directory, key)
    try:
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
    except OSError:
        return None
    if header != _checksum_header(body):
        return None
    return body.decode("utf-8")


def _checksum_header(body: bytes) -> bytes:
    # imported here: only the cache needs it, and its OpenSSL backend adds
    # about 4 MB to every command that imports it
    import hashlib

    return b"sha256:" + hashlib.sha256(body).hexdigest().encode()


def _cache_store(directory, key, text):
    """Write the entry, or nothing: the cache is best-effort, so a
    directory that cannot be made or written to is ignored."""
    import tempfile  # only a cache store needs it

    body = text.encode("utf-8")
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_checksum_header(body) + b"\n" + body)
        os.replace(tmp, os.path.join(directory, key))
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _cache_key(payload: dict) -> str:
    import hashlib

    payload = dict(payload, version=CACHE_FORMAT_VERSION)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    return f"{digest}.cache"


def _p_sequence_text(pairs, convention, fmt):
    if fmt == "json":
        return json.dumps([{"n": i, "x": x, "y": y, "convention": convention}
                           for i, (x, y) in enumerate(pairs)], indent=2) + "\n"
    lines = ["n,x,y,convention"]
    lines.extend(f"{i},{x},{y},{convention}" for i, (x, y) in enumerate(pairs))
    return "\n".join(lines) + "\n"


def table(opts):
    """Emit an SG-value table or a P-position sequence."""
    if opts.sg == opts.p_sequence:
        _fail("give exactly one of --sg / --p-sequence")
    family, upto, convention, fmt = (opts.family, opts.upto,
                                     opts.convention, opts.format)
    try:
        params = _params(opts)
        directory = opts.cache_dir or os.environ.get("GRUNDY_CACHE_DIR")

        if opts.p_sequence:
            if family is None:
                _fail("--p-sequence needs --family")
            sequence = zoo.TABLE[family].p_sequence
            if sequence is None:
                raise InvalidParams(f"{family} has no P-position sequence")
            checked = zoo.check_params(family, params)
            # historical flag spelling: --n doubles as the sequence length
            # (no family with a P-sequence has a parameter n)
            if upto is None:
                upto = params.pop("n", None)
            if upto is None:
                _fail("--p-sequence needs --upto")
            if upto < 0:
                raise InvalidParams(f"sequence length {upto} is negative")
            payload = {"kind": "pseq", "family": family, "params": params,
                       "upto": upto, "convention": convention, "format": fmt}
            text = _cached_text(directory, payload, lambda: _p_sequence_text(
                sequence(checked, upto, convention), convention, fmt))
        else:
            game, roots = _game(opts, params)
            if family is None:
                params = {}
            payload = {"kind": "sg", "family": game.family, "params": params,
                       "roots": roots, "symmetry": opts.symmetry,
                       "format": fmt}

            def render():
                lg = sg_labels(enumerate_subgame(game, roots))
                if fmt == "json":
                    return to_json(lg)
                header = (f"family={game.family} params={params} "
                          f"roots={roots} v{CACHE_FORMAT_VERSION}")
                return to_csv(lg, header_comment=header)

            text = _cached_text(directory, payload, render)
    except GameError as exc:
        _fail(str(exc))
    sys.stdout.write(text)
    sys.exit(0)


def _cached_text(directory, payload, render):
    if directory is None:
        return render()
    key = _cache_key(payload)
    cached = _cache_fetch(directory, key)
    if cached is not None:
        return cached
    text = render()
    _cache_store(directory, key, text)
    return text


# the suites of verify all, longest first by their serial run time at the
# default sizes (in-process, min of 5, 2-core x86-64, Python 3.11.7, ms):
# equalities 33, sums 22, ho_nim 14, wyt_ab 10, ferguson 8, wythoff 3,
# moore 3, fixtures 2.  Handed out in this order, the long ones start first
# instead of ending a worker's run alone
_LONGEST_FIRST = ("equalities", "sums", "ho_nim", "wyt_ab", "ferguson",
                  "wythoff", "moore", "fixtures")


def _take_suites(todo, names, sizes, results):
    """Run into ``results`` the suite of each number read from the pipe
    ``todo``, until the pipe is empty or a suite raises."""
    while taken := os.read(todo, 1):
        results[taken[0]] = run_suite(names[taken[0]], *sizes)


def _run_suites(names, seed, samples, max_nodes):
    """The named suites' results, in order.

    The sizes are checked first.  When the CLI owns its process and
    ``os.sched_getaffinity`` gives more than one CPU, one child per further
    CPU, up to one per further name, is forked, until a fork fails.  This
    process and every child take the suites' numbers, one byte each, from
    one pipe, longest suite first (``_LONGEST_FIRST``), so whoever finishes
    first takes the next.  A child sends its results at the pipe's end, as
    ``marshal`` data of each suite's name, seed and checks, or nothing once
    one of its suites raised or its results would not marshal.
    The pipe is emptied, so that a suite raising here stops each child
    after its current suite, and every child is reaped.  Then each suite
    with no result runs here in name order: the suites share no state and
    are seeded, so each returns or raises as it would in a serial run.
    """
    check_sizes(samples, max_nodes)
    sizes = (seed, samples, max_nodes)
    results, children = {}, []
    forks = (min(len(os.sched_getaffinity(0)), len(names)) - 1
             if _owns_process and hasattr(os, "fork")
             and hasattr(os, "sched_getaffinity") else 0)
    if forks > 0:
        todo, queue = os.pipe()
        os.write(queue, bytes(sorted(range(len(names)), key=lambda n:
                                     _LONGEST_FIRST.index(names[n]))))
        os.close(queue)  # no child holds the write end: an empty pipe is EOF
        try:
            for _ in range(forks):
                fds = ()
                try:
                    read, write = fds = os.pipe()
                    pid = os.fork()
                except OSError:  # out of processes or pipes: go with these
                    for fd in fds:
                        os.close(fd)
                    break
                if not pid:  # results is empty: no suite is taken yet
                    try:
                        _take_suites(todo, names, sizes, results)
                        # marshal is built in, so nothing is imported
                        # before the fork for the results' sake
                        with open(write, "wb") as pipe:
                            pipe.write(marshal.dumps(
                                {n: (res.suite, res.seed, res.checks)
                                 for n, res in results.items()}))
                    finally:
                        os._exit(0)  # never run the parent's exit handlers
                os.close(write)
                children.append((pid, read))
            try:
                _take_suites(todo, names, sizes, results)
            except Exception:
                pass  # it runs again below, after the children, and raises
        finally:
            os.read(todo, len(names))  # what is left is all in the pipe
            os.close(todo)
            for pid, read in children:
                try:
                    with open(read, "rb") as pipe:
                        data = pipe.read()
                finally:
                    os.waitpid(pid, 0)
                for n, fields in (marshal.loads(data).items() if data
                                  else ()):
                    results[n] = SuiteResult(*fields)
    return [results.get(n) or run_suite(name, *sizes)
            for n, name in enumerate(names)]


def verify(opts):
    """Run a named verification battery; exit 1 on any failed check."""
    seed = opts.seed
    names = SUITES if opts.suite == "all" else (opts.suite,)
    try:
        results = _run_suites(names, seed, opts.samples, opts.max_nodes)
    except GameError as exc:
        _fail(str(exc))
    all_ok = all(r.ok for r in results)
    if opts.format == "json":
        print(json.dumps({"seed": seed, "ok": all_ok,
                          "suites": [r.to_dict() for r in results]},
                         indent=2))
    else:
        print(f"seed {seed}")
        for res in results:
            passed = sum(1 for _, ok, _ in res.checks if ok)
            print(f"suite {res.suite}: {passed}/{len(res.checks)} checks "
                  f"{'pass' if res.ok else 'FAIL'}")
            for name, ok, detail in res.checks:
                if not ok:
                    print(f"  FAIL {name}: {detail}")
    sys.exit(0 if all_ok else 1)


def _load_game_spec(path):
    def bad(problem):
        _fail(f"bad game spec {path}: {problem}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        bad(exc.strerror or exc)
    except UnicodeDecodeError as exc:
        bad(f"not UTF-8: {exc}")
    except ValueError as exc:
        bad(f"not JSON: {exc}")
    if not isinstance(spec, dict):
        bad("expected a JSON object")
    roots, family, params = spec.get("roots"), None, None
    if roots is not None and not isinstance(roots, list):
        bad("roots must be a list")
    if "fixture" not in spec:
        family, params = spec.get("family"), spec.get("params") or {}
        if not isinstance(family, str):
            bad("needs a family name or a fixture")
        if not isinstance(params, dict):
            bad("params must be a JSON object")
        if not roots:
            bad("a family spec needs at least one root")
        roots = [tuple(r) if isinstance(r, list) else (r,) for r in roots]
    try:
        return _source(spec.get("fixture"), family, params,
                       bool(spec.get("symmetry")), roots)
    except GameError as exc:
        bad(str(exc))


def sum_cmd(opts):
    """Analyze the disjunctive sum of two or more games."""
    target, table_path = opts.target, opts.table
    if len(opts.game) < 2:
        _fail("a sum needs at least two --game specs")
    if table_path is not None and os.path.isdir(table_path):
        # refused before the sum is built, not after
        _fail(f"cannot write --table {table_path}: "
              f"{os.strerror(errno.EISDIR)}")
    try:
        specs = [_load_game_spec(path) for path in opts.game]
        summands = [enumerate_subgame(game, roots) for game, roots in specs]
        if target is None:
            lg = sg_labels(sum_graph(summands))
            report = classify(lg)
        else:
            closure = check_closure(target, summands)
            lg, report = closure.sum_labels, closure.sum_report
        out = {"summands": [game.family for game, _ in specs],
               "report": report.to_dict()}
        if target is not None:
            out["closure"] = {
                "target": target,
                "summands_in_class": [r.verdicts[target]
                                      for r in closure.summand_reports],
                "sum_in_class": closure.holds,
                "label_mismatches": [
                    [list(map(str, pos)), list(got), list(want)]
                    for pos, got, want in closure.label_mismatches[:10]],
            }
    except GameError as exc:
        _fail(str(exc))
    if table_path is not None:
        try:
            with open(table_path, "w", encoding="utf-8") as fh:
                write_csv(lg, fh)
        except OSError as exc:
            _fail(f"cannot write --table {table_path}: "
                  f"{exc.strerror or exc}")
    print(json.dumps(out, indent=2))
    sys.exit(0)


def fixtures_cmd(opts):
    """List the bundled example games with their class verdicts."""
    rows = []
    for name in FIXTURE_NAMES:
        lg = sg_labels(fixture_graph(name))
        report = classify(lg)
        rows.append({"name": name, "nodes": len(lg.graph),
                     "verdicts": report.verdicts})
    if opts.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            held = [p for p, v in row["verdicts"].items() if v]
            print(f"{row['name']:22s} {row['nodes']:3d} nodes  "
                  f"{', '.join(held) if held else '(none)'}")
    sys.exit(0)


class _Parser(argparse.ArgumentParser):
    """A parser whose every usage error is one ``error:`` line, exit 2."""

    def error(self, message):
        _fail(message)


def _game_options():
    """The options shared by ``analyze`` and ``table``."""
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument("--family", choices=zoo.FAMILIES)
    opts.add_argument("--fixture", choices=FIXTURE_NAMES)
    opts.add_argument("--params", metavar="JSON",
                      help="family parameters as a JSON object")
    opts.add_argument("--a", type=int)
    opts.add_argument("--b", type=int)
    opts.add_argument("--n", type=int)
    opts.add_argument("--k", type=int)
    opts.add_argument("--shape")
    opts.add_argument("--set", metavar="SET",
                      help="subtraction set, comma separated")
    opts.add_argument("--roots", "--piles", action="append",
                      metavar="POSITION",
                      help="starting positions, comma-separated coordinates")
    opts.add_argument("--box", type=int,
                      help="enumerate from every position with coordinates "
                           "<= BOX")
    opts.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                      default=False,
                      help="canonicalize positions under the family's "
                           "symmetry")
    return opts


def _parser(prog):
    top = _Parser(prog=prog, allow_abbrev=False,
                  description="Sprague-Grundy analysis of impartial games "
                              "under both play conventions.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    game = [_game_options()]

    def command(name, handler, parents=()):
        doc = handler.__doc__
        cmd = commands.add_parser(name, parents=parents, allow_abbrev=False,
                                  help=doc, description=doc)
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = command("analyze", analyze, game)
    cmd.add_argument("--format", choices=["json", "text"], default="text")

    cmd = command("table", table, game)
    cmd.add_argument("--sg", action="store_true",
                     help="emit the value table")
    cmd.add_argument("--p-sequence", action="store_true",
                     help="emit the P-position sequence")
    cmd.add_argument("--upto", "--n-max", type=int,
                     help="largest sequence index for --p-sequence")
    cmd.add_argument("--convention", choices=["normal", "misere"],
                     default="normal")
    cmd.add_argument("--format", choices=["csv", "json"], default="csv")
    cmd.add_argument("--cache-dir",
                     help="cache directory (defaults to $GRUNDY_CACHE_DIR)")

    cmd = command("verify", verify)
    cmd.add_argument("suite", choices=SUITES + ("all",))
    cmd.add_argument("--seed", type=int, default=0,
                     help="(default: %(default)s)")
    cmd.add_argument("--samples", type=int, default=1000,
                     help="random-graph sample count for property suites "
                          "(default: %(default)s)")
    cmd.add_argument("--max-nodes", type=int, default=12,
                     help="(default: %(default)s)")
    cmd.add_argument("--format", choices=["json", "text"], default="text")

    cmd = command("sum", sum_cmd)
    cmd.add_argument("--game", action="append",
                     required=True, metavar="SPEC",
                     help="JSON game spec; repeat for each summand")
    cmd.add_argument("--target", choices=["domestic", "tame", "pet",
                                          "miserable", "forced",
                                          "returnable"],
                     help="class whose closure under the sum to check")
    cmd.add_argument("--table", metavar="CSV",
                     help="also write the product SG table as CSV")

    cmd = command("fixtures", fixtures_cmd)
    cmd.add_argument("--format", choices=["json", "text"], default="text")
    return top


class _Main:
    """The ``grundylab`` command.  ``main()`` runs the command line in
    ``sys.argv``; ``main.main(args=[...])`` runs ``args``.  Every command
    ends in ``SystemExit``, which both let out, so ``standalone_mode`` is
    accepted and changes nothing."""

    def main(self, args=None, prog_name="grundylab", standalone_mode=True):
        opts = _parser(prog_name).parse_args(args)
        opts.handler(opts)

    __call__ = main


main = _Main()

# set by run(), for the whole process as gc.freeze() is: only the entry
# point that owns the process, and starts no thread, forks suite children
_owns_process = False


def run():
    """Process entry point (``grundylab`` and ``python -m grundylab.cli``).

    Everything alive now, the imported modules above all, lives until exit,
    so ``gc.freeze()`` moves it out of the collector's reach: the full
    collections of interpreter shutdown then skip it.  ``verify all`` may
    fork a worker per further CPU (``_run_suites``).  Tests and in-process
    callers call ``main`` directly, so they freeze nothing and fork nothing.
    A stdout whose reader has gone is an exit 2: stdout is flushed here,
    where that is caught, not at interpreter exit.  An unbuffered stdout
    (``python -u``, ``PYTHONUNBUFFERED``) is given a buffer first: without
    one a text write is a single raw write, which may take only part of the
    text and drop the rest with no error.
    """
    global _owns_process
    gc.freeze()
    _owns_process = True
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            open(out.fileno(), "wb", closefd=False),
            encoding=out.encoding, errors=out.errors)
    try:
        try:
            main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # what is left of the output goes nowhere, so the interpreter's
        # final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail(f"cannot write to stdout: {exc.strerror}")


if __name__ == "__main__":
    run()
