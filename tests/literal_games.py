"""Literal references the tests compare the fast paths against: move
rules for enumeration and ``sum_graph``, a node order, the labels and the
packed words."""

from grundylab import CycleDetected, mex
from grundylab.classify import _CLASS_MASK, _word
from grundylab.core import GameDef


def moves(game: GameDef, p) -> list:
    """The row enumeration stores for position p, as positions: its
    canonical options, each once, in the order the rule first gives them."""
    return list(dict.fromkeys(map(game.canon, game.options(p))))


def sum_game(games: list[GameDef]) -> GameDef:
    """The product rule object: a position is a tuple of component
    positions and a move is a move in exactly one component, summand 1's
    moves first, then summand 2's, and so on."""

    def options(pos):
        out = []
        for i, g in enumerate(games):
            for y in moves(g, pos[i]):
                out.append(pos[:i] + (y,) + pos[i + 1:])
        return out

    def canonical(pos):
        return tuple(g.canon(p) for g, p in zip(games, pos))

    family = "+".join(g.family for g in games)
    return GameDef(family=family, params={"summands": len(games)},
                   options=options, canonical=canonical)


def ref_topological_order(succ):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(succ, WHITE)
    order = []
    for start in succ:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = GRAY
        while stack:
            x, it = stack[-1]
            advanced = False
            for y in it:
                if color[y] == GRAY:
                    raise CycleDetected(f"position {y!r} recurs on the expansion path")
                if color[y] == WHITE:
                    color[y] = GRAY
                    stack.append((y, iter(succ[y])))
                    advanced = True
                    break
            if not advanced:
                color[x] = BLACK
                order.append(x)
                stack.pop()
    order.reverse()
    return order


def ref_labels(succ, topo):
    labels = {}
    for x in reversed(topo):
        opts = succ[x]
        if not opts:
            labels[x] = (0, 1)
        else:
            labels[x] = (mex(labels[y][0] for y in opts),
                         mex(labels[y][1] for y in opts))
    return labels


def ref_packed_masks(graph) -> list:
    """Every node's packed word in node order, from its label
    (``ref_labels``) and the classes its options' words hold."""
    succ = dict(graph.succ)
    topo = ref_topological_order(succ)
    labels = ref_labels(succ, topo)
    words = {}
    for x in reversed(topo):
        reach = 0
        for y in succ[x]:
            reach |= words[y] & _CLASS_MASK
        words[x] = _word(*labels[x], reach)
    return [words[x] for x in graph.positions]
