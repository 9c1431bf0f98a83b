"""Class predicates (domestic/tame/pet, the miserability family, forced,
returnable), the six SM=P conditions, witness extraction, and candidate-set
verification.

All of them are answered from two bit masks per node.  One pass over the
edges, options before the positions that move to them, records the label
classes a node is in and the classes its options reach; ``properties`` turns
the two masks into one bit per paper property.  Every predicate is a row
naming the properties of which each node needs at least one, and its witness
is the violating node that is smallest by (depth, position string).
Candidate-set verification feeds ``properties`` masks built from the
candidate sets instead of the labels.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .core import MissingSet, ReachableGraph, UnknownPredicate
from .grundy import Label, LabeledGraph, position_key, sg_labels

# --- classes a node is in or its options reach --------------------------------

V01, V10, V00, V11, OTHER = 1, 2, 4, 8, 16  # partition of the labels
SWAP = V01 | V10
PARTITION = SWAP | V00 | V11 | OTHER
G0, G1 = 1 << 5, 1 << 6            # normal value 0, normal value 1
GM0, GM1 = 1 << 7, 1 << 8          # misere value 0, misere value 1
KK = 1 << 9                        # (k,k) with k >= 2
NOT_DOMESTIC = 1 << 10             # (0,k) or (k,0) with k >= 2
NB01, NB10 = 1 << 11, 1 << 12      # non-terminal, no move to V01 resp. V10
_CLASS_BITS = 13
_CLASS_MASK = (1 << _CLASS_BITS) - 1

_PAIR_CLASS = {(0, 1): V01, (1, 0): V10, (0, 0): V00, (1, 1): V11}
_SET_LABELS = {"v01": (0, 1), "v10": (1, 0), "v00": (0, 0), "v11": (1, 1)}

# --- properties, one bit each -------------------------------------------------

(P_A, P_A0, P_B, P_C, P_C0, P_C1, P_E, P_KK, P_DOMESTIC, P_FORCED,
 P_RETURNABLE, P_NO00, P_NO00_11, P_FERGUSON, P_FERGUSON_MISERE) = (
    1 << i for i in range(15))

# movable to both of two classes: (c), (c0), (c1), (e)
_BOTH = ((P_C, V01 | V10), (P_C0, V01 | V00), (P_C1, V10 | V00),
         (P_E, V00 | V11))


def properties(own: int, reach: int) -> int:
    """Property bits of a node in the classes ``own`` whose options reach
    the classes ``reach``.  Only terminals reach nothing."""
    props = 0
    for bit, both in _BOTH:
        if reach & both == both:
            props |= bit
    if own & SWAP:
        props |= P_A
    if own & (SWAP | V00 | V11):
        props |= P_A0
    if not reach & SWAP:
        props |= P_B
    if own & KK:
        props |= P_KK
    if not own & NOT_DOMESTIC:
        props |= P_DOMESTIC
    if not own & V00:
        props |= P_NO00
    if not own & (V00 | V11):
        props |= P_NO00_11
    # forced: every option of a swap position lies in the opposite swap set
    if not (own & V01 and reach & (PARTITION ^ V10)
            or own & V10 and reach & (PARTITION ^ V01)):
        props |= P_FORCED
    # returnable: every non-terminal option can move back to the parallel set
    if not (own & V01 and reach & NB01 or own & V10 and reach & NB10):
        props |= P_RETURNABLE
    if not (own & G0 and reach and not reach & G1):
        props |= P_FERGUSON
    if not (own & GM0 and not reach & GM1):
        props |= P_FERGUSON_MISERE
    return props


def _packed_masks(lg: LabeledGraph) -> array:
    """Per node number: its classes in the low bits, its property bits
    above them.  Built on the first call and kept on ``lg`` as an
    ``array('i')`` (the 13 class and 15 property bits fit in 28).

    Options are visited before the positions that move to them, so each
    node's reach is the union of its options' finished classes.  A node's
    word depends only on its label and its reach, so it is computed once
    per distinct (g, g_minus, reach).
    """
    if lg.packed_masks is not None:
        return lg.packed_masks
    graph = lg.graph
    offsets, targets = graph.offsets, graph.targets
    g, gm = lg.g, lg.g_minus
    packed = [0] * len(graph)
    words = {}
    for x in reversed(graph.order):
        reach = 0
        for y in targets[offsets[x]:offsets[x + 1]]:
            reach |= packed[y]
        key = (g[x], gm[x], reach & _CLASS_MASK)
        word = words.get(key)
        if word is None:
            word = words[key] = _word(*key)
        packed[x] = word
    lg.packed_masks = array("i", packed)
    return lg.packed_masks


def _word(g: int, gm: int, reach: int) -> int:
    """Packed classes and properties of a node labelled (g, gm) whose
    options reach the classes ``reach``."""
    own = (_PAIR_CLASS.get((g, gm), OTHER)
           | (G0 if g == 0 else G1 if g == 1 else 0)
           | (GM0 if gm == 0 else GM1 if gm == 1 else 0)
           | (KK if g == gm >= 2 else 0)
           | (NOT_DOMESTIC if min(g, gm) == 0 and max(g, gm) >= 2 else 0))
    if reach and not reach & V01:
        own |= NB01
    if reach and not reach & V10:
        own |= NB10
    return own | properties(own, reach) << _CLASS_BITS


# --- rows: properties of which every node needs at least one ------------------

# predicate -> (row, witness reason); a reason of None names the offending
# option and is built for the witness only
_CLASS_ROWS = {
    "domestic": (P_DOMESTIC, "({g},{gm})-position breaks domesticity"),
    "tame": (P_A0 | P_KK,
             "({g},{gm})-position is neither swap nor equal-valued"),
    "pet": (P_A | P_KK,
            "({g},{gm})-position is neither swap nor (k,k) with k>=2"),
    "miserable": (P_A | P_B | P_C, "movable to exactly one kind of swap "
                  "position while not swap itself"),
    "strongly_miserable": (P_A | P_C, "neither swap nor movable to both a "
                           "(0,1)- and a (1,0)-position"),
    "t_miserable": (P_A0 | P_C | P_E,
                    "fails all three t-miserability properties"),
    "weakly_miserable": (P_A | P_B | P_C | P_C0 | P_C1,
                         "fails all five weak-miserability properties"),
    "forced": (P_FORCED, None),
    "returnable": (P_RETURNABLE, None),
}

PREDICATES = tuple(_CLASS_ROWS)

# the six equivalent formulations of being pet
_PET_CONDITIONS = {
    "i_strongly_miserable": (P_A | P_C, ""),
    "ii_pet": (P_A | P_KK, ""),
    "iii_no_00": (P_NO00, "(0,0)-position"),
    "iv_no_00_no_11": (P_NO00_11, "(0,0)- or (1,1)-position"),
    "v_ferguson_normal": (P_FERGUSON, ""),
    "vi_ferguson_misere": (P_FERGUSON_MISERE, ""),
}


def _witnesses(lg: LabeledGraph, rows: dict) -> dict:
    """name -> (node, label, reason) for every row some node violates.

    The witness is the smallest violating node by ``sort_key``; ties go to
    the first in graph order.
    """
    packed = _packed_masks(lg)
    depths, positions = lg.graph.depths, lg.graph.positions
    violated = {}   # property bits -> names of the rows they violate
    best = {}
    for x, bits in enumerate(packed):
        props = bits >> _CLASS_BITS
        names = violated.get(props)
        if names is None:
            names = violated[props] = [name for name, (row, _) in rows.items()
                                       if not props & row]
        if not names:
            continue
        # the position string is built only for a node that may win a row
        depth, key = depths[x], None
        for name in names:
            held = best.get(name)
            if held is None or depth <= held[0][0]:
                if key is None:
                    key = (depth, position_key(positions[x]))
                if held is None or key < held[0]:
                    best[name] = (key, x)
    out = {}
    for name, (_, reason) in rows.items():
        if name in best:
            x = best[name][1]
            lab = Label(lg.g[x], lg.g_minus[x])
            if reason is None:
                reason = _option_reason(lg, packed, x, name)
            else:
                reason = reason.format(g=lab.g, gm=lab.g_minus)
            out[name] = (positions[x], lab, reason)
    return out


def _option_reason(lg, packed, x, predicate):
    graph = lg.graph
    lab = (lg.g[x], lg.g_minus[x])
    opts = graph.targets[graph.offsets[x]:graph.offsets[x + 1]]
    if predicate == "forced":
        opposite = (1, 0) if lab == (0, 1) else (0, 1)
        y = next(y for y in opts if (lg.g[y], lg.g_minus[y]) != opposite)
        return (f"move to {graph.positions[y]!r} with label "
                f"{(lg.g[y], lg.g_minus[y])} instead of {opposite}")
    stuck = NB01 if lab == (0, 1) else NB10
    y = next(y for y in opts if packed[y] & stuck)
    return (f"move to {graph.positions[y]!r} cannot be answered back to a "
            f"{lab}-position")


class ClassReport:
    def __init__(self, verdicts: dict, witnesses: dict, enumerated_bound: str):
        self.verdicts = verdicts
        self.witnesses = witnesses
        self.enumerated_bound = enumerated_bound

    def to_dict(self) -> dict:
        wit = {}
        for pred, (pos, lab, reason) in self.witnesses.items():
            wit[pred] = {"position": _json_pos(pos), "label": list(lab),
                         "reason": reason}
        return {"verdicts": dict(self.verdicts), "witnesses": wit,
                "bound": self.enumerated_bound}


def _json_pos(pos):
    return list(pos) if isinstance(pos, tuple) else str(pos)


def find_witness(lg: LabeledGraph, predicate: str):
    """Minimal-depth node violating the predicate, or None if it holds.

    Ties break to the lexicographically smallest position string.
    """
    try:
        row = _CLASS_ROWS[predicate]
    except KeyError:
        raise UnknownPredicate(f"unknown predicate {predicate!r}") from None
    return _witnesses(lg, {predicate: row}).get(predicate)


def classify(lg: LabeledGraph) -> ClassReport:
    """Evaluate every predicate over all enumerated nodes; every negative
    verdict carries a witness."""
    witnesses = _witnesses(lg, _CLASS_ROWS)
    verdicts = {pred: pred not in witnesses for pred in PREDICATES}
    return ClassReport(verdicts, witnesses, lg.graph.describe_bound())


# --- SM=P equivalences -------------------------------------------------------

class EquivalenceReport(NamedTuple):
    conditions: dict
    witnesses: dict

    @property
    def agree(self) -> bool:
        return len(set(self.conditions.values())) == 1

    @property
    def value(self) -> bool:
        return all(self.conditions.values())


def check_sm_equivalences(lg: LabeledGraph) -> EquivalenceReport:
    """The six equivalent formulations of being pet, each evaluated as its
    own row; a theorem guarantees they always agree."""
    witnesses = _witnesses(lg, _PET_CONDITIONS)
    conditions = {name: name not in witnesses for name in _PET_CONDITIONS}
    return EquivalenceReport(conditions, witnesses)


# --- candidate-set verification ----------------------------------------------

class CandidateSets:
    def __init__(self, v01: set, v10: set, v00: set | None = None,
                 v11: set | None = None):
        self.v01 = v01
        self.v10 = v10
        self.v00 = v00
        self.v11 = v11

    def present(self):
        out = {"v01": self.v01, "v10": self.v10}
        if self.v00 is not None:
            out["v00"] = self.v00
        if self.v11 is not None:
            out["v11"] = self.v11
        return out


class VerifyReport:
    def __init__(self, target: str, failures: list | None = None,
                 set_mismatches: list | None = None):
        self.target = target
        self.failures = [] if failures is None else failures
        self.set_mismatches = [] if set_mismatches is None else set_mismatches

    @property
    def conditions_ok(self) -> bool:
        return not self.failures

    @property
    def sets_match(self) -> bool:
        return not self.set_mismatches

    @property
    def ok(self) -> bool:
        return self.conditions_ok and self.sets_match


_REQUIRED = {
    "pet": ("v01", "v10"),
    "miserable": ("v01", "v10"),
    "tame": ("v01", "v10", "v00", "v11"),
    "domestic": ("v01", "v10", "v00"),
}

# target -> structural rows (condition, members, must reach, must not reach);
# "rest" is every node in none of v01, v10 and v00
_STRUCTURE = {
    "pet": (("iii", "v01 - terminals", V10, 0), ("iv", "v10", V01, 0)),
    "tame": (("iii", "v01 - terminals", V10, 0), ("iii", "v01", 0, V00 | V11),
             ("iv", "v10", V01, V00 | V11), ("v", "v00", 0, SWAP),
             ("vi", "v11", V00, SWAP), ("vii", "rest", SWAP | V00, 0)),
    "domestic": (("iii", "v01 - terminals", V10, V00), ("iv", "v10", V01, V00),
                 ("v", "v00", 0, SWAP), ("vi", "rest", SWAP | V00, 0)),
}
_STRUCTURE["miserable"] = _STRUCTURE["pet"]

_REACH_NAMES = {V01: "v01", V10: "v10", V00: "v00", V00 | V11: "v00 or v11",
                SWAP: "a swap set", SWAP | V00: "v01, v10, or v00"}

# target -> covering condition (condition, row, reason); pet asks for
# exactly one of its row's properties, the others for at least one
_COVERING = {
    "pet": ("SM(v)", P_A | P_C,
            "exactly one of membership / double-movability must hold"),
    "miserable": ("M(v)", P_A | P_B | P_C, "none of (a'),(b'),(c') hold"),
    "tame": ("T(viii)", P_A0 | P_C | P_E, "none of (a0'),(c'),(e') hold"),
    "domestic": ("D(vii)", P_A | P_B | P_C | P_C0 | P_C1,
                 "none of the five properties hold"),
}


def verify_candidate_sets(graph: ReachableGraph, cand: CandidateSets,
                          target: str, *, structural_only: bool = False) -> VerifyReport:
    """Check the constructive characterization of ``target`` against the
    candidate sets over the enumerated graph.

    ``structural_only`` skips the final covering condition (the one whose
    necessity the three-node chain counterexample demonstrates).  On a full
    pass the candidate sets are also compared against the solver's V sets.
    """
    if target not in _REQUIRED:
        raise UnknownPredicate(f"no candidate-set theorem for target {target!r}")
    sets = cand.present()
    for name in _REQUIRED[target]:
        if name not in sets:
            raise MissingSet(f"target {target!r} requires set {name}")

    report = VerifyReport(target)
    fail = report.failures.append
    index, positions = graph.index, graph.positions
    offsets, targets = graph.offsets, graph.targets
    named = [(name, sets[name]) for name in _REQUIRED[target]]
    terminals = set(graph.terminals())

    own = [0] * len(graph)
    for name, s in named:
        for x in s:
            if x in index:
                own[index[x]] |= _PAIR_CLASS[_SET_LABELS[name]]
    reach = []
    for x in range(len(graph)):
        r = 0
        for y in targets[offsets[x]:offsets[x + 1]]:
            r |= own[y]
        reach.append(r)

    # pairwise disjoint
    for i, (na, sa) in enumerate(named):
        for nb, sb in named[i + 1:]:
            overlap = sa & sb
            if overlap:
                fail(("disjoint", next(iter(overlap)), f"{na} and {nb} overlap"))

    # (i) independence
    for name, s in named:
        for x in s:
            if x in index and reach[index[x]] & _PAIR_CLASS[_SET_LABELS[name]]:
                fail(("i", x, f"move inside {name}"))

    # (ii) terminals
    for x in sorted(terminals - cand.v01, key=repr):
        fail(("ii", x, "terminal not in v01"))

    unknown = [x for _, s in named for x in s if x not in index]
    for x in unknown:
        fail(("membership", x, "candidate position not in graph"))
    if unknown:
        return report

    members = dict(named, rest=[x for i, x in enumerate(positions)
                                if not own[i] & (SWAP | V00)])
    members["v01 - terminals"] = cand.v01 - terminals
    for cond, name, need, avoid in _STRUCTURE[target]:
        who = "" if name == "rest" else f"{name[:3]} position "
        for x in members[name]:
            r = reach[index[x]]
            if need and not r & need:
                fail((cond, x, f"{who}not movable to {_REACH_NAMES[need]}"))
            if r & avoid:
                fail((cond, x, f"{who}movable to {_REACH_NAMES[avoid]}"))

    if not structural_only:
        cond, row, reason = _COVERING[target]
        for i, x in enumerate(positions):
            held = properties(own[i], reach[i]) & row
            if not held or (target == "pet" and held == row):
                fail((cond, x, reason))

    # "Moreover" clause: on a clean structural pass, candidates must equal
    # the solver's own sets.
    if report.conditions_ok:
        lg = sg_labels(graph)
        for name, s in named:
            truth = lg.vset(*_SET_LABELS[name])
            if s != truth:
                report.set_mismatches.append((name, s - truth, truth - s))
    return report
