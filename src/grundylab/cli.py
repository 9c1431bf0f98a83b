"""Command-line front end: classify games, tabulate values, run the
verification suites, and analyze disjunctive sums."""

from __future__ import annotations

import gc
import json
import os
import sys

import click

from .core import GameError, InvalidParams, UnknownPosition
from .core import enumerate_subgame
from .fixtures import (FIXTURE_NAMES, fixture_adjacency, fixture_roots,
                       load_fixture)
from .grundy import sg_labels, to_csv, to_json, write_csv
from .classify import classify
from .suites import SUITES, run_suite
from .sums import check_closure, sum_graph
from . import zoo

CACHE_FORMAT_VERSION = 1


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_root(text: str, game):
    """A family position from comma-separated integer coordinates."""
    try:
        root = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidParams(
            f"root {text!r} must be comma-separated integers") from None
    _check_root(root, game)
    return root


def _check_root(root, game):
    """Raise unless ``root`` has the family's arity and no negative
    coordinate."""
    arity = zoo.TABLE[game.family].arity(game.params)
    if arity is not None and len(root) != arity:
        raise InvalidParams(f"{game.family} positions have {arity} "
                            f"coordinates, root {list(root)} has {len(root)}")
    if any(c < 0 for c in root):
        raise InvalidParams(f"root {list(root)} has a negative coordinate")


def _merge_params(params_json, a, b, n, k, shape, subtraction_set):
    try:
        params = json.loads(params_json) if params_json else {}
    except ValueError as exc:
        raise InvalidParams(f"--params is not JSON: {exc}") from None
    if not isinstance(params, dict):
        raise InvalidParams("--params must be a JSON object")
    for key, value in (("a", a), ("b", b), ("n", n), ("k", k),
                       ("shape", shape)):
        if value is not None:
            params[key] = value
    if subtraction_set:
        try:
            params["x"] = tuple(int(v) for v in subtraction_set.split(","))
        except ValueError:
            raise InvalidParams(f"--set {subtraction_set!r} must be "
                                "comma-separated integers") from None
    return params


def _build_game(family, fixture, params, use_symmetry):
    if (family is None) == (fixture is None):
        raise click.UsageError("give exactly one of --family / --fixture")
    if fixture is not None:
        return load_fixture(fixture), None
    return zoo.make_family(family, params, use_symmetry=use_symmetry), params


def _fixture_root_list(fixture, roots):
    """``roots`` after checking each names a node of ``fixture``; the
    fixture's source nodes when ``roots`` is empty."""
    if not roots:
        return fixture_roots(fixture)
    nodes = fixture_adjacency(fixture)
    for r in roots:
        if not isinstance(r, str) or r not in nodes:
            raise UnknownPosition(f"fixture {fixture} has no node {r!r}")
    return list(roots)


def _resolve_roots(roots, fixture, box, game):
    if fixture is not None:
        return _fixture_root_list(fixture, roots)
    if roots:
        return [_parse_root(r, game) for r in roots]
    if box is not None:
        dims = zoo.TABLE[game.family].arity(game.params)
        if dims is None:  # any pile count: take it from --n
            dims = game.params.get("n")
            if not isinstance(dims, int) or dims < 0:
                raise InvalidParams(f"--box needs a pile count --n >= 0 "
                                    f"for family {game.family}")
        if box < 0:
            raise InvalidParams(f"--box {box} is negative")
        return zoo.box_roots(dims, box)
    raise click.UsageError("no positions given: use --roots/--piles or --box")


@click.group()
def main():
    """Sprague-Grundy analysis of impartial games under both play
    conventions."""


_game_options = [
    click.option("--family", type=click.Choice(zoo.FAMILIES), default=None),
    click.option("--fixture", type=click.Choice(FIXTURE_NAMES), default=None),
    click.option("--params", "params_json", default=None,
                 help="family parameters as a JSON object"),
    click.option("--a", type=int, default=None),
    click.option("--b", type=int, default=None),
    click.option("--n", "n_param", type=int, default=None),
    click.option("--k", type=int, default=None),
    click.option("--shape", default=None),
    click.option("--set", "subtraction_set", default=None,
                 help="subtraction set, comma separated"),
    click.option("--roots", "--piles", "roots", multiple=True,
                 help="starting positions, comma-separated coordinates"),
    click.option("--box", type=int, default=None,
                 help="enumerate from every position with coordinates <= BOX"),
    click.option("--symmetry/--no-symmetry", default=False,
                 help="canonicalize positions under the family's symmetry"),
]


def _with_game_options(cmd):
    for opt in reversed(_game_options):
        cmd = opt(cmd)
    return cmd


@main.command()
@_with_game_options
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def analyze(family, fixture, params_json, a, b, n_param, k, shape,
            subtraction_set, roots, box, symmetry, fmt):
    """Classify the game reachable from the given positions."""
    try:
        params = _merge_params(params_json, a, b, n_param, k, shape,
                               subtraction_set)
        game, params = _build_game(family, fixture, params, symmetry)
        root_list = _resolve_roots(roots, fixture, box, game)
        lg = sg_labels(enumerate_subgame(game, root_list))
        report = classify(lg)
    except GameError as exc:
        _fail(str(exc))
    if fmt == "json":
        click.echo(json.dumps(report.to_dict(), indent=2))
    else:
        click.echo(f"game: {game.family}  ({report.enumerated_bound})")
        for pred, verdict in report.verdicts.items():
            line = f"  {pred:20s} {'yes' if verdict else 'no'}"
            if not verdict:
                pos, lab, reason = report.witnesses[pred]
                line += f"   witness {pos!r} {tuple(lab)}: {reason}"
            click.echo(line)
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


@main.command()
@_with_game_options
@click.option("--sg", "want_sg", is_flag=True, help="emit the value table")
@click.option("--p-sequence", "want_pseq", is_flag=True,
              help="emit the P-position sequence")
@click.option("--upto", "--n-max", "upto", type=int, default=None,
              help="largest sequence index for --p-sequence")
@click.option("--convention", type=click.Choice(["normal", "misere"]),
              default="normal")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv")
@click.option("--cache-dir", default=None,
              help="cache directory (defaults to $GRUNDY_CACHE_DIR)")
def table(family, fixture, params_json, a, b, n_param, k, shape,
          subtraction_set, roots, box, symmetry, want_sg, want_pseq,
          upto, convention, fmt, cache_dir):
    """Emit an SG-value table or a P-position sequence."""
    if want_sg == want_pseq:
        raise click.UsageError("give exactly one of --sg / --p-sequence")
    try:
        params = _merge_params(params_json, a, b, n_param, k, shape,
                               subtraction_set)
        directory = cache_dir or os.environ.get("GRUNDY_CACHE_DIR")

        if want_pseq:
            if family is None:
                raise click.UsageError("--p-sequence needs --family")
            sequence = zoo.TABLE[family].p_sequence
            if sequence is None:
                raise InvalidParams(f"{family} has no P-position sequence")
            checked = zoo.check_params(family, params)
            # historical flag spelling: --n doubles as the sequence length
            # (no family with a P-sequence has a parameter n)
            if upto is None:
                upto = params.pop("n", None)
            if upto is None:
                raise click.UsageError("--p-sequence needs --upto")
            if upto < 0:
                raise InvalidParams(f"sequence length {upto} is negative")
            payload = {"kind": "pseq", "family": family, "params": params,
                       "upto": upto, "convention": convention, "format": fmt}
            text = _cached_text(directory, payload, lambda: _p_sequence_text(
                sequence(checked, upto, convention), convention, fmt))
        else:
            game, params = _build_game(family, fixture, params, symmetry)
            root_list = _resolve_roots(roots, fixture, box, game)
            payload = {"kind": "sg", "family": game.family,
                       "params": params or {}, "roots": root_list,
                       "symmetry": symmetry, "format": fmt}

            def render():
                lg = sg_labels(enumerate_subgame(game, root_list))
                if fmt == "json":
                    return to_json(lg)
                header = (f"family={game.family} params={params or {}} "
                          f"roots={root_list} v{CACHE_FORMAT_VERSION}")
                return to_csv(lg, header_comment=header)

            text = _cached_text(directory, payload, render)
    except GameError as exc:
        _fail(str(exc))
    click.echo(text, nl=False)
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


@main.command()
@click.argument("suite", type=click.Choice(SUITES + ("all",)))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--samples", type=int, default=1000, show_default=True,
              help="random-graph sample count for property suites")
@click.option("--max-nodes", type=int, default=12, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def verify(suite, seed, samples, max_nodes, fmt):
    """Run a named verification battery; exit 1 on any failed check."""
    try:
        results = run_suite(suite, seed=seed, samples=samples,
                            max_nodes=max_nodes)
    except GameError as exc:
        _fail(str(exc))
    all_ok = all(r.ok for r in results)
    if fmt == "json":
        click.echo(json.dumps({"seed": seed, "ok": all_ok,
                               "suites": [r.to_dict() for r in results]},
                              indent=2))
    else:
        click.echo(f"seed {seed}")
        for res in results:
            passed = sum(1 for _, ok, _ in res.checks if ok)
            click.echo(f"suite {res.suite}: {passed}/{len(res.checks)} checks "
                       f"{'pass' if res.ok else 'FAIL'}")
            for name, ok, detail in res.checks:
                if not ok:
                    click.echo(f"  FAIL {name}: {detail}")
    sys.exit(0 if all_ok else 1)


def _load_game_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    def bad(problem):
        _fail(f"bad game spec {path}: {problem}")

    if not isinstance(spec, dict):
        bad("expected a JSON object")
    roots = spec.get("roots")
    if roots is not None and not isinstance(roots, list):
        bad("roots must be a list")
    if "fixture" in spec:
        game = load_fixture(spec["fixture"])
        try:
            roots = _fixture_root_list(spec["fixture"], roots)
        except UnknownPosition as exc:
            bad(str(exc))
    else:
        family, params = spec.get("family"), spec.get("params") or {}
        if not isinstance(family, str):
            bad("needs a family name or a fixture")
        if not isinstance(params, dict):
            bad("params must be a JSON object")
        if not roots:
            bad("a family spec needs at least one root")
        roots = [tuple(r) if isinstance(r, list) else (r,) for r in roots]
        game = zoo.make_family(family, params,
                               use_symmetry=bool(spec.get("symmetry")))
        for r in roots:
            if not all(isinstance(c, int) and not isinstance(c, bool)
                       for c in r):
                bad(f"root {list(r)} must hold integers")
            try:
                _check_root(r, game)
            except InvalidParams as exc:
                bad(str(exc))
    return game, roots


@main.command(name="sum")
@click.option("--game", "game_specs", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON game spec; repeat for each summand")
@click.option("--target", type=click.Choice(
    ["domestic", "tame", "pet", "miserable", "forced", "returnable"]),
    default=None, help="class whose closure under the sum to check")
@click.option("--table", "table_path", type=click.Path(dir_okay=False),
              default=None, help="also write the product SG table as CSV")
def sum_cmd(game_specs, target, table_path):
    """Analyze the disjunctive sum of two or more games."""
    if len(game_specs) < 2:
        raise click.UsageError("a sum needs at least two --game specs")
    try:
        specs = [_load_game_spec(path) for path in game_specs]
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
                "summands_in_class": [r.verdicts.get(target, False)
                                      for r in closure.summand_reports],
                "sum_in_class": closure.holds,
                "label_mismatches": [
                    [list(map(str, pos)), list(got), list(want)]
                    for pos, got, want in closure.label_mismatches[:10]],
            }
    except GameError as exc:
        _fail(str(exc))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            KeyError) as exc:
        _fail(f"bad game spec: {exc!r}")
    if table_path is not None:
        try:
            with open(table_path, "w", encoding="utf-8") as fh:
                write_csv(lg, fh)
        except OSError as exc:
            _fail(f"cannot write --table {table_path}: "
                  f"{exc.strerror or exc}")
    click.echo(json.dumps(out, indent=2))
    sys.exit(0)


@main.command(name="fixtures")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def fixtures_cmd(fmt):
    """List the bundled example games with their class verdicts."""
    rows = []
    for name in FIXTURE_NAMES:
        game = load_fixture(name)
        lg = sg_labels(enumerate_subgame(game, fixture_roots(name)))
        report = classify(lg)
        rows.append({"name": name, "nodes": len(lg.graph),
                     "verdicts": report.verdicts})
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    else:
        for row in rows:
            held = [p for p, v in row["verdicts"].items() if v]
            click.echo(f"{row['name']:22s} {row['nodes']:3d} nodes  "
                       f"{', '.join(held) if held else '(none)'}")
    sys.exit(0)


def run():
    """Process entry point (``grundylab`` and ``python -m grundylab.cli``).

    Everything alive now, the imported modules and the command table, lives
    until exit, so ``gc.freeze()`` moves it out of the collector's reach:
    the full collections of interpreter shutdown then skip it.  ``main``
    stays the plain click group that tests and in-process callers invoke,
    so they freeze nothing.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
