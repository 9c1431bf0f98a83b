"""Explicit example games shipped as data files.

File format is line oriented: ``node <id>`` declarations first, then
``edge <from> <to>`` lines; ``#`` starts a comment.
"""

from __future__ import annotations

from .core import GameDef, UnknownFixture

FIXTURE_NAMES = (
    "not_domestic",
    "domestic_not_tame",
    "tame_not_pet",
    "pet",
    "not_returnable",
    "returnable_not_forced",
    "tame_not_miserable",
    "abc_chain",
    "sodo_g1",
    "sodo_g2",
)


def parse_fixture_text(text: str) -> dict:
    """Parse the line format into an adjacency dict node -> list of nodes."""
    adj: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) == 2:
            adj.setdefault(parts[1], [])
        elif parts[0] == "edge" and len(parts) == 3:
            src, dst = parts[1], parts[2]
            if src not in adj or dst not in adj:
                raise UnknownFixture(f"edge references undeclared node: {line!r}")
            adj[src].append(dst)
        else:
            raise UnknownFixture(f"bad fixture line: {raw!r}")
    return adj


def game_from_adjacency(name: str, adj: dict) -> GameDef:
    frozen = {x: tuple(ys) for x, ys in adj.items()}
    return GameDef(family=f"fixture:{name}", params={"nodes": len(frozen)},
                   options=lambda p: list(frozen[p]))


def load_fixture(name: str) -> GameDef:
    """Load a named fixture from the bundled data directory."""
    return game_from_adjacency(name, fixture_adjacency(name))


def fixture_adjacency(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    from importlib import resources  # only a fixture read needs it

    text = (resources.files("grundylab") / "data" / f"{name}.game").read_text()
    return parse_fixture_text(text)


def fixture_roots(name: str) -> list:
    """Source nodes (no incoming edge) of the fixture digraph."""
    adj = fixture_adjacency(name)
    targets = {y for ys in adj.values() for y in ys}
    return [x for x in adj if x not in targets] or list(adj)
