"""Parametric game families and the closed-form oracles known for them.

``TABLE`` holds one record per family: its move rule, parameter schema,
arity, symmetry and P-sequence.  ``make_family`` checks parameters against
it and returns a GameDef whose ``options`` implement the family's move rule
exactly; oracles are independent formulas or recursions used to cross-check
the solver.
"""

from __future__ import annotations

import itertools
import math
from array import array
from math import isqrt
from types import MappingProxyType
from typing import Callable, NamedTuple

from .core import GameDef, InvalidParams, UnsupportedParams
from .grundy import mex


def _sorted_canonical(p):
    return tuple(sorted(p))


def _sort_tail(p):
    return (p[0],) + tuple(sorted(p[1:]))


def _min_rotation(p):
    n = len(p)
    return min(tuple(p[i:] + p[:i]) for i in range(n))


def _fixed(value):
    """A table entry that does not depend on the parameters."""
    return lambda params: value


# --- move rules: checked params -> option function; a family without
# parameters has its option function here instead ---------------------------

def _lowered(p, sizes):
    """Each position reached by choosing a set of non-empty piles of ``p``,
    of one of ``sizes``, and lowering each to any smaller height."""
    idx = [i for i, x in enumerate(p) if x > 0]
    for size in sizes:
        for subset in itertools.combinations(idx, size):
            for news in itertools.product(*(range(p[i]) for i in subset)):
                q = list(p)
                for i, v in zip(subset, news):
                    q[i] = v
                yield tuple(q)


def _nim(p):
    return list(_lowered(p, (1,)))


def _box_rows(lines):
    """A ``box_rows`` entry for a rule that only lowers coordinates.

    Node n of the box is the mixed-radix number of its position p, so a
    move along a line is the same stride from every node.  ``lines(n, p,
    strides)`` gives node n's options as ranges of node numbers, in the
    rule's order; ``strides[i]`` is the node-number step of coordinate i.
    """
    def rows(bounds):
        strides = [math.prod(b + 1 for b in bounds[i + 1:])
                   for i in range(len(bounds))]
        offsets, targets = array("i", [0]), array("i")
        fromlist, append = targets.fromlist, offsets.append
        for n, p in enumerate(itertools.product(*(range(b + 1)
                                                  for b in bounds))):
            # a list takes a range faster than an array does
            row = []
            for line in lines(n, p, strides):
                row += line
            fromlist(row)
            append(len(targets))
        return offsets, targets

    return _fixed(rows)


def _nim_lines(n, p, strides):
    # one pile lowered to each smaller height, as _lowered lists them
    return [range(n - c * s, n, s) for c, s in zip(p, strides)]


def _wythoff_lines(n, p, strides):
    # the first pile lowered, the second lowered, then both by k = 1, 2, ...
    (x, y), w = p, strides[0]
    return (range(y, n, w), range(n - y, n),
            range(n - w - 1, n - (min(x, y) + 1) * (w + 1), -w - 1))


def _subtraction(params):
    xset = params["x"]

    def options(p):
        (n,) = p
        return [(n - s,) for s in xset if n - s >= 0]

    return options


def _mark(p):
    (n,) = p
    if n == 0:
        return []
    return list({(n - 1,), (n // 2,)})


def _euclid_cd(p):
    x, y = p
    out = []
    if 0 < x:
        for mult in range(1, y // x + 1):
            out.append((x, y - mult * x))
    if 0 < y:
        for mult in range(1, x // y + 1):
            out.append((x - mult * y, y))
    return out


def _euclid_grossman(p):
    x, y = p
    if x < 1 or y < 1:
        return []
    out = []
    for mult in range(1, (y - 1) // x + 1):
        out.append((x, y - mult * x))
    for mult in range(1, (x - 1) // y + 1):
        out.append((x - mult * y, y))
    return out


def _wythoff(p):
    x, y = p
    out = []
    for v in range(x):
        out.append((v, y))
    for v in range(y):
        out.append((x, v))
    for k in range(1, min(x, y) + 1):
        out.append((x - k, y - k))
    return out


def _wyt_a(params):
    a = params["a"]

    def options(p):
        x, y = p
        out = []
        for v in range(x):
            out.append((v, y))
        for v in range(y):
            out.append((x, v))
        for k in range(1, x + 1):
            for l in range(max(1, k - a + 1), min(y, k + a - 1) + 1):
                out.append((x - k, y - l))
        return out

    return options


def _wyt_ab(params):
    a, b = params["a"], params["b"]

    def options(p):
        x, y = p
        out = []
        # near-axis strips: min(dx,dy) < b
        for dx in range(0, min(b - 1, x) + 1):
            lo = 1 if dx == 0 else 0
            for dy in range(lo, y + 1):
                out.append((x - dx, y - dy))
        for dy in range(0, min(b - 1, y) + 1):
            lo = 1 if dy == 0 else 0
            for dx in range(max(lo, b), x + 1):
                out.append((x - dx, y - dy))
        # diagonal band: |dx-dy| < a with both deltas >= b
        for dx in range(b, x + 1):
            for dy in range(max(b, dx - a + 1), min(y, dx + a - 1) + 1):
                out.append((x - dx, y - dy))
        return out

    return options


def _moore_nim(params):
    sizes = range(1, params["k"] + 1)
    return lambda p: list(_lowered(p, sizes))


def _extended_nim(params):
    sizes = range(1, params["k"] + 1)

    def options(p):
        x0, rest = p[0], p[1:]
        tails = list(_lowered(rest, sizes))
        out = set()
        for new0 in range(x0 + 1):
            if new0 < x0:
                out.add((new0,) + rest)  # reducing only the extra pile
            for q in tails:
                out.add((new0,) + q)
        return list(out)

    return options


def _exact_nim(params):
    sizes = (params["k"],)
    return lambda p: list(_lowered(p, sizes))


def _slow_nim(params):
    n, k = params["n"], params["k"]

    def options(p):
        idx = [i for i in range(n) if p[i] > 0]
        out = []
        for size in range(1, min(k, len(idx)) + 1):
            for subset in itertools.combinations(idx, size):
                q = list(p)
                for i in subset:
                    q[i] -= 1
                out.append(tuple(q))
        return out

    return options


# hyperedges as index sets over the block-count vector, by shape
_HO_NIM_SHAPES = {
    "cycle": lambda n: [(i, (i + 1) % n) for i in range(n)],
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "conj1": lambda n: [(0, 1, 4), (2, 3, 4), (0, 2, 4), (1, 3)],
    "conj2": lambda n: [(0, 3), (1, 3), (2, 3), (0, 1, 2)],
}


def ho_nim_hyperedges(shape: str, n: int | None = None) -> list:
    return _HO_NIM_SHAPES[shape](n)


def _ho_nim(params):
    edges = ho_nim_hyperedges(params["shape"], params.get("n"))

    def options(p):
        out = set()
        for edge in edges:
            ranges = [range(p[i] + 1) for i in edge]
            for sub in itertools.product(*ranges):
                if sum(sub) == 0:
                    continue
                q = list(p)
                for i, s in zip(edge, sub):
                    q[i] -= s
                out.add(tuple(q))
        return list(out)

    return options


# --- the family table --------------------------------------------------------

class Family(NamedTuple):
    """One family's move rule and what its parameters and positions look like.

    ``schema`` gives each parameter's integer lower bound, the tuple of its
    allowed values, or, as a list ``[m]``, a non-empty set of integers >= m.
    Schema parameters are required unless named in ``optional``;
    ``conditions`` are (holds(params), requirement) pairs across them.  The
    callables take checked parameters: ``rule`` gives the option function,
    ``arity`` the coordinates of a position (None: any number), ``symmetry``
    the canonicalization hook or None, ``p_sequence(params, upto,
    convention)`` the P-position pairs 0..upto, and ``box_rows`` the
    ``GameDef.box_rows`` builder of a full origin box or None: it lists
    each row's options in the rule's order, because a witness reason names
    the first offending option, and it is used only without symmetry.
    """

    rule: Callable[[dict], Callable]
    arity: Callable[[dict], int | None]
    schema: dict = MappingProxyType({})  # read-only, so records share it
    optional: tuple = ()
    conditions: tuple = ()
    symmetry: Callable[[dict], Callable | None] | None = None
    p_sequence: Callable[[dict, int, str], list] | None = None
    box_rows: Callable[[dict], Callable] | None = None


_SORTING = _fixed(_sorted_canonical)
_PILES = {"n": 1, "k": 1}
_K_AT_MOST_N = ((lambda p: p["k"] <= p["n"], "k <= n"),)

TABLE = {
    "nim": Family(_fixed(_nim), _fixed(None), symmetry=_SORTING,
                  box_rows=_box_rows(_nim_lines)),
    "moore_nim": Family(_moore_nim, lambda p: p["n"], _PILES,
                        conditions=_K_AT_MOST_N, symmetry=_SORTING),
    "extended_nim": Family(_extended_nim, lambda p: p["n"] + 1, _PILES,
                           conditions=((lambda p: p["k"] < p["n"], "k < n"),),
                           symmetry=_fixed(_sort_tail)),
    "exact_nim": Family(_exact_nim, lambda p: p["n"], _PILES,
                        conditions=_K_AT_MOST_N, symmetry=_SORTING),
    "slow_nim": Family(_slow_nim, lambda p: p["n"], _PILES,
                       conditions=_K_AT_MOST_N, symmetry=_SORTING),
    "subtraction": Family(_subtraction, _fixed(1), {"x": [1]}),
    "euclid_cd": Family(_fixed(_euclid_cd), _fixed(2), symmetry=_SORTING),
    "euclid_grossman": Family(_fixed(_euclid_grossman), _fixed(2),
                              symmetry=_SORTING),
    "wythoff": Family(_fixed(_wythoff), _fixed(2), symmetry=_SORTING,
                      p_sequence=lambda p, upto, conv: wyt_a_sequence(
                          1, upto, conv),
                      box_rows=_box_rows(_wythoff_lines)),
    "wyt_a": Family(_wyt_a, _fixed(2), {"a": 1}, symmetry=_SORTING,
                    p_sequence=lambda p, upto, conv: wyt_a_sequence(
                        p["a"], upto, conv)),
    "wyt_ab": Family(_wyt_ab, _fixed(2), {"a": 0, "b": 1}, symmetry=_SORTING,
                     p_sequence=lambda p, upto, conv: wyt_ab_sequence(
                         p["a"], p["b"], upto, conv)),
    "mark": Family(_fixed(_mark), _fixed(1)),
    # arity: the blocks the hyperedges cover
    "ho_nim": Family(
        _ho_nim, lambda p: 1 + max(map(max, ho_nim_hyperedges(
            p["shape"], p.get("n")))),
        {"shape": tuple(_HO_NIM_SHAPES), "n": 0}, optional=("n",),
        conditions=((lambda p: p["shape"] not in ("cycle", "path")
                     or (p.get("n") or 0) >= 3,
                     "n >= 3 for the cycle and path shapes"),),
        symmetry=lambda p: _min_rotation if p["shape"] == "cycle" else None),
}

FAMILIES = tuple(TABLE)


def _is_integer(value, low) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= low)


def check_params(family: str, params: dict | None = None) -> dict:
    """A copy of ``params`` that meets the family's schema and conditions,
    with its set of integers as a sorted tuple; raises InvalidParams
    otherwise.  Parameters outside the schema pass unchecked."""
    if family not in TABLE:
        raise InvalidParams(f"unknown family {family!r}")
    record, params = TABLE[family], dict(params or {})
    for name, spec in record.schema.items():
        value = params.get(name)
        if isinstance(spec, tuple):
            ok, want = value in spec, "one of " + ", ".join(spec)
        elif isinstance(spec, list):
            ok = (isinstance(value, (list, tuple, set, frozenset)) and value
                  and all(_is_integer(v, spec[0]) for v in value))
            want = f"a non-empty set of integers >= {spec[0]}"
            if ok:
                params[name] = tuple(sorted(set(value)))
        else:
            ok, want = _is_integer(value, spec), f"an integer >= {spec}"
        if not ok and not (value is None and name in record.optional):
            got = "missing" if value is None else repr(value)
            raise InvalidParams(
                f"{family} parameter {name} must be {want} (got {got})")
    for holds, requirement in record.conditions:
        if not holds(params):
            raise InvalidParams(f"{family} requires {requirement}")
    return params


def make_family(family: str, params: dict | None = None, *,
                use_symmetry: bool = False) -> GameDef:
    """Build a GameDef for one of the families of ``TABLE``, once its
    parameters pass ``check_params``.

    ``use_symmetry`` turns on the family's canonicalization hook (pile
    sorting, or minimal rotation for cyclic heap structures) to shrink the
    reachable state space.  Off by default so enumerated nodes are the raw
    coordinate vectors.  The family's ``box_rows``, if any, is carried only
    when no symmetry hook is on.
    """
    params = check_params(family, params)
    record = TABLE[family]
    canonical = (record.symmetry(params)
                 if use_symmetry and record.symmetry else None)
    box_rows = (record.box_rows(params)
                if canonical is None and record.box_rows else None)
    return GameDef(family, params, record.rule(params), canonical, box_rows)


def box_roots(dims: int, bound: int, floor: int = 0) -> list:
    """All coordinate vectors in [floor, bound]^dims, as enumeration roots."""
    return [tuple(v) for v in itertools.product(range(floor, bound + 1),
                                                repeat=dims)]


# --- Beatty / Wythoff oracles ------------------------------------------------

def floor_phi_n(n: int) -> int:
    """floor(n * golden ratio) in exact integer arithmetic."""
    return (n + isqrt(5 * n * n)) // 2


class BeattyPair:
    def __init__(self, n: int):
        self.n = n
        self.x = floor_phi_n(n)
        self.y = self.x + n


def wythoff_p(n: int, convention: str = "normal") -> tuple:
    """n-th P-position pair (x <= y) of the two-pile diagonal-move game.

    The misere sequence equals the normal one except at the two smallest
    indices, where (0,0) and (1,2) are traded for (0,1) and (2,2).
    """
    pair = BeattyPair(n)
    if convention == "normal":
        return (pair.x, pair.y)
    if convention != "misere":
        raise InvalidParams(f"unknown convention {convention!r}")
    if n == 0:
        return (0, 1)
    if n == 1:
        return (2, 2)
    return (pair.x, pair.y)


def mex_b(b: int, s) -> int:
    """Gap-based excludant: with sorted s extended by -b and +infinity,
    returns s_i + b for the first gap exceeding b."""
    if b < 1:
        raise InvalidParams("mex_b requires b >= 1")
    vals = sorted(set(s))
    prev = -b
    for v in vals:
        if v - prev > b:
            return prev + b
        prev = v
    return prev + b


def _mex_sequence(start_pair, step, b):
    """Generate (x_n, y_n) pairs where x_n is ``mex_b(b, used)`` of all
    previously used coordinates and y_n = x_n + step(n).

    ``top`` is the end of the run of used values that starts at -b with no
    gap over b, so mex_b is top + b.  Used values are only added, so the
    run only grows: each step scans on from ``top`` until b values in a
    row are unused, instead of sorting the whole used set.
    """
    used = set(start_pair)
    top = -b
    yield start_pair
    for n in itertools.count(1):
        v = top + 1
        while v - top <= b:
            if v in used:
                top = v
            v += 1
        x = top + b
        y = x + step(n)
        used.add(x)
        used.add(y)
        yield (x, y)


def wyt_a_p(a: int, n: int, convention: str = "normal") -> tuple:
    """P-position pair of the a-parameter diagonal-band game by the mex
    recursion; a >= 2."""
    if a < 2:
        raise InvalidParams("wyt_a_p requires a >= 2 (a = 1 is wythoff_p)")
    return wyt_a_sequence(a, n, convention)[n]


def wyt_a_sequence(a: int, upto: int, convention: str = "normal") -> list:
    """P-position pairs 0..upto: for a >= 2 the (a, 1) game's (mex_1 is mex)."""
    if a == 1:  # Wythoff's game, whose misere pairs the recursion misses
        return [wythoff_p(n, convention) for n in range(upto + 1)]
    return wyt_ab_sequence(a, 1, upto, convention)


def wyt_ab_sequence(a: int, b: int, upto: int,
                    convention: str = "normal") -> list:
    """P-position pairs of the two-parameter game, by the mex_b recursion."""
    check_params("wyt_ab", {"a": a, "b": b})
    if convention == "normal":
        gen = _mex_sequence((0, 0), lambda n: a * n, b)
    elif convention == "misere":
        if a == 0:
            raise UnsupportedParams("no misere recursion is known for a = 0")
        if a == 1:
            gen = _mex_sequence((b + 1, b + 1), lambda n: a * n, b)
        else:
            gen = _mex_sequence((0, 1), lambda n: a * n + 1, b)
    else:
        raise InvalidParams(f"unknown convention {convention!r}")
    return list(itertools.islice(gen, upto + 1))


def wyt_ab_p(a: int, b: int, n: int, convention: str = "normal") -> tuple:
    return wyt_ab_sequence(a, b, n, convention)[n]


# --- swap-position oracles ---------------------------------------------------

def nim_swap_oracle(x) -> tuple | None:
    """Swap label of a pile vector: all piles <= 1, parity of the ones."""
    if any(v > 1 for v in x):
        return None
    ones = sum(x)
    return (0, 1) if ones % 2 == 0 else (1, 0)


def moore_swap_oracle(n: int, k: int, x) -> tuple | None:
    """Swap label from the pile-count residue mod (k+1); piles must be <= 1."""
    if not 2 <= k < n:
        raise InvalidParams("requires 2 <= k < n")
    if len(x) != n or any(v > 1 for v in x):
        return None
    l = sum(1 for v in x if v > 0)
    if l % (k + 1) == 0:
        return (0, 1)
    if l % (k + 1) == 1:
        return (1, 0)
    return None


def euclid_swap_oracle(variant: str, x) -> tuple | None:
    """Swap label of a Euclid position, or None for non-swap positions.

    In the stay-positive variant the swap positions are exactly the
    gcd-multiples of consecutive Fibonacci pairs d*(F_j, F_{j+1}):
    dividing out the gcd is a game isomorphism, and on coprime pairs the
    move chain is the Euclidean algorithm, which has a single forced move
    precisely along the Fibonacci pairs.  The label alternates with j,
    starting from the terminal (1,1) = (F_1, F_2).
    """
    a, b = x
    if variant == "cd":
        if a == 0 or b == 0:
            return (0, 1)
        if a == b:
            return (1, 0)
        return None
    if variant == "grossman":
        d = math.gcd(a, b)
        p, q = sorted((a // d, b // d))
        f, g, j = 1, 1, 1
        while g < q:
            f, g, j = g, f + g, j + 1
        if (f, g) != (p, q):
            return None
        return (0, 1) if j % 2 == 1 else (1, 0)
    raise InvalidParams(f"unknown euclid variant {variant!r}")


def slow_swap_oracle(n: int, k: int, x) -> tuple | None:
    """Sorted-coordinate swap patterns; only defined for k >= n-1."""
    if k < n - 1:
        raise UnsupportedParams("slow-nim oracle exists only for k >= n-1")
    s = sorted(x)
    if k == n:
        if any(v != 0 for v in s[:-1]):
            return None
        return (0, 1) if s[-1] % 2 == 0 else (1, 0)
    i = s[0]
    if any(v != i for v in s[:-1]):
        return None
    return (0, 1) if (s[-1] - i) % 2 == 0 else (1, 0)


class CheckReport:
    def __init__(self, ok: bool, failures: list | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures


def ferguson_check(x_set, bound: int) -> CheckReport:
    """Subtraction-game sanity battery: the min-element shift law
    (G(x) = 0 iff G(x + min X) = 1) and the value-1 escape from every
    non-terminal zero position."""
    xs = check_params("subtraction", {"x": x_set})["x"]
    k = xs[0]
    g = []
    for n in range(bound + 1):
        g.append(mex(g[n - s] for s in xs if n - s >= 0))
    failures = []
    for n in range(bound + 1 - k):
        if (g[n] == 0) != (g[n + k] == 1):
            failures.append(("shift", n, g[n], g[n + k]))
    for n in range(bound + 1):
        if g[n] == 0 and any(n - s >= 0 for s in xs):
            if not any(n - s >= 0 and g[n - s] == 1 for s in xs):
                failures.append(("escape", n, g[n], None))
    return CheckReport(not failures, failures)
