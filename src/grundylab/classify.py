"""Class predicates (domestic/tame/pet, the miserability family, forced,
returnable), the six SM=P conditions, witness extraction, and candidate-set
verification.

All of them are answered from two bit masks per node.  The one labelling
pass (``fold_rows``, which ``grundy.sg_labels`` runs) visits options before
the positions that move to them, and one step (``_or_label``) reads from the
OR of a node's options' packed ints its label, the label classes it is in
and the classes its options reach; ``properties`` turns the two masks into
one bit per paper property.  Every predicate is a row naming the properties of
which each node needs at least one.  ``_violations`` maps each distinct
packed word to the rows it violates, so verdicts need no walk over the
nodes; one is made only for the witnesses of violated rows, each the
violating node smallest by (depth, position string).  Candidate-set
verification feeds ``properties`` masks built from the candidate sets
instead of the labels.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from typing import NamedTuple

from .core import BoxGraph, MissingSet, ReachableGraph, UnknownPredicate
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
_WORD_BITS = _CLASS_BITS + 15      # a packed word: classes, then properties

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


# (g, g_minus, reach) -> (g, g_minus, packed word), filled by every fold in
# the process
_LABELS = {}
# the most ORs and labels a fold keeps looked up at once
_SEEN_CAP = 4096


def _or_label(u: int, width: int, seen: dict, lane: int = 0) -> tuple:
    """(label, packed int, its ``lane`` bytes) of a node whose options'
    packed ints OR to ``u``; label is the memo's (g, g_minus, word).

    A node's packed int is its word with bits ``_WORD_BITS + g`` and
    ``_WORD_BITS + width + g_minus`` set.  Every word has a partition bit,
    so ``u`` is 0 exactly at a terminal; otherwise it holds the node's
    reach in the low bits and its two mexes as the lowest clear bits of
    the two value fields.  ``seen`` is the fold's lookup: it maps each OR
    and each (g, g_minus, reach) to its result, so that an OR seen before
    costs one lookup and equal labels share one packed int, and it is
    emptied whenever it holds ``_SEEN_CAP`` entries.  With ``lane`` 0 the
    bytes are empty.
    """
    hit = seen.get(u)
    if hit is not None:
        return hit
    if u:
        v = u >> _WORD_BITS
        g = (v ^ (v + 1)).bit_length() - 1
        if g >= width:
            raise ValueError("g exceeds every depth: the value fields are "
                             "too narrow")
        v = u >> (_WORD_BITS + width)
        key = (g, (v ^ (v + 1)).bit_length() - 1, u & _CLASS_MASK)
    else:
        key = (0, 1, 0)
    if len(seen) >= _SEEN_CAP:
        seen.clear()
    hit = seen.get(key)
    if hit is None:
        label = _LABELS.get(key)
        if label is None:
            label = _LABELS[key] = (key[0], key[1], _word(*key))
        packed = (label[2] | 1 << (_WORD_BITS + key[0])
                  | 1 << (_WORD_BITS + width + key[1]))
        hit = seen[key] = (label, packed,
                           packed.to_bytes(lane, "little") if lane else b"")
    seen[u] = hit
    return hit


def fold_rows(graph) -> tuple:
    """``(g, g_minus, packed_masks)`` of a graph, each an ``array('i')``
    indexed by node number, from one pass over ``graph.node_rows()``.

    Every node comes after its options, and its label comes from the OR
    of its options' packed ints (``_or_label``).  A node's word (its
    classes in the low bits, its property bits above them; 13 and 15 bits
    fit in an ``'i'``) depends only on its label and its reach, so it is
    computed once per distinct (g, g_minus, reach) in the process.  Three
    kinds of graph take another loop to the same arrays, through the same
    step: a box whose every move is a ray or a region, one move at a time
    (``_fold_rays``); a one-coordinate box whose every move is a point,
    labelled up to its first repeated window of labels and the rest filled
    by repeating the period (``_fold_shifts``); and a disjunctive sum from
    its two factors, a block of nodes at a time and each distinct block
    once (``_fold_product``).  Every other graph, breadth-first
    enumerations among them, takes the edge loop below.
    """
    if isinstance(graph, BoxGraph) and graph.moves:
        forms = {how for _, how in graph.moves}
        if 0 not in forms:
            return _fold_rays(graph)
        if forms == {0} and len(graph.strides) == 1:
            return _fold_shifts(graph, [s for (s,), _ in graph.moves])[0]
    # a node's options are less deep than it, so by induction g(x) <= d(x)
    # and g_minus(x) <= max(d(x), 1): with D the greatest depth, value
    # fields D + 2 bits wide hold every value and its mex
    from .sums import ProductGraph  # sums imports this module
    if isinstance(graph, ProductGraph):
        # a product node's depth is the sum of its components' depths
        return _fold_product(graph, max(graph.left.depths, default=0)
                             + max(graph.right.depths, default=0) + 2)
    depth = max(graph.depths, default=0)
    offsets = getattr(graph, "offsets", None)
    if offsets is not None:
        # a stored graph: a mex of k values is at most k, so with K the
        # most options of one node every value is at most max(K, 1)
        depth = min(depth, max(map(operator.sub, offsets[1:], offsets),
                               default=0))
    width = depth + 2
    n = len(graph)
    bits = [0] * n
    out_g, out_gm, out_words = (array("i", [0]) * n for _ in range(3))
    seen = {}
    for x, row in graph.node_rows():
        u = 0
        for y in row:
            u |= bits[y]
        label, bits[x], _ = _or_label(u, width, seen)
        out_g[x], out_gm[x], out_words[x] = label
    return out_g, out_gm, out_words


def _fold_rays(graph: BoxGraph) -> tuple:
    """``fold_rows`` of a box whose every move is a ray or a region, in time
    per move rather than per option.

    With s(v) the (padded, below) number of v, one ring per ray step d
    keeps Q_d(x) = bits(x) | Q_d(x - s(d)), the second term only when
    p >= d: the OR of the packed ints of p, p - d, p - 2d, ... in the box.
    The ray of step d from start o (from d unless declared) gives node x
    the OR Q_d(x - s(o)) when p >= o, and 0 otherwise.  One ring per region
    over a coordinate set S keeps R_S(x) = bits(x) | the OR of
    R_S(x - s(e_i)) over i in S with p_i > 0, and node x reads that OR
    without bits(x): the OR over every q != p with q <= p on S and q = p
    off S.  OR is idempotent, so moves that overlap need no care.  Node
    x's label is read from the OR of what it reads.

    The rings are indexed by padded node numbers: the last coordinate
    takes as many more values beyond the box as the largest last
    coordinate of a step or start, and the ring size is a multiple of that
    padded radix.  A read of p - v with p below v on the last coordinate
    lands in the padding, which no node writes; one with p below v on the
    first coordinate has a negative number, and lands on an entry past
    node x's, which no node has written yet.  Both give 0.  So which reads
    a node makes depends only on its middle coordinates, each only up to
    the largest that coordinate of a step or start, and is chosen once per
    such capped head: padding the middle coordinates too would need no
    choice, but would grow the rings by a factor exponential in their
    number.  Every move lowers the coordinate sum, so g <= sum(p) and the
    value fields are the top node's coordinate sum + 2 bits wide: no depth
    is read.
    """
    n, top = len(graph), graph.positions[-1]
    width, last = sum(top) + 2, top[-1] + 1

    def fits(v):  # a larger step or start moves from no node
        return all(map(operator.le, v, top))

    # per ring: the steps it continues along, whether a node reads that
    # continuation, and the other starts at which a node reads the ring
    starts = {}
    for vec, how in graph.moves:
        if how != "region":
            starts.setdefault(vec, set()).add(vec if how in (1, -1) else how)
    specs = [([d], d in ats, ats - {d}) for d, ats in starts.items()]
    specs += [([tuple(int(i == j) for j in range(len(top)))
                for i, c in enumerate(span) if c], True, ())
              for span, how in graph.moves if how == "region"]
    rings = []
    for conts, read, ats in specs:
        conts, ats = list(filter(fits, conts)), list(filter(fits, ats))
        if read and conts or ats:  # else no node reads the ring
            rings.append((conts, read, ats))
    vecs = [v for conts, _, ats in rings for v in (*conts, *ats)]
    radix = last + max([v[-1] for v in vecs], default=0)
    strides = [s // last * radix for s in graph.strides[:-1]] + [1]

    def shift(v):
        return sum(map(operator.mul, v, strides))

    # node x - s's entry is read before node x's is written, so a ring of
    # max(s) entries holds every entry a node reads; as a multiple of the
    # radix, it keeps each padded entry in the padding
    size = -(-max(map(shift, vecs), default=1) // radix) * radix
    lists = [[0] * size for _ in rings]
    # a row's capped head: its middle coordinates, each only up to the
    # largest that coordinate of a step or start.  Each distinct head of a
    # step or start gets a bit, and below[i][c] holds the bits of those at
    # most c on middle coordinate i: a read is made in the rows whose capped
    # head has its bit in every below[i][head_i]
    caps = [max([v[i] for v in vecs], default=0)
            for i in range(1, len(top) - 1)]
    bits = {}
    for v in vecs:
        bits.setdefault(v[1:-1], 1 << len(bits))
    below = [[sum([b for h, b in bits.items() if h[i] <= c])
              for c in range(cap + 1)] for i, cap in enumerate(caps)]
    # a read (ring, source, s) copies source[x - s] to ring[x] and into node
    # x's OR; a start's read is written to junk, zeros stand for a read not
    # made, and each read is kept with its head's bit
    junk, zeros = [0] * size, [0] * size
    start_reads = [(bits[o[1:-1]], (junk, ring, shift(o)))
                   for ring, (_, _, ats) in zip(lists, rings) for o in ats]
    ones, others = [], []
    for ring, (conts, read, _) in zip(lists, rings):
        if read and len(conts) == 1:
            (d,) = conts
            s = shift(d)
            ones.append((bits[d[1:-1]], (ring, ring, s), (ring, zeros, s)))
        else:
            others.append((ring, [(bits[d[1:-1]], shift(d)) for d in conts],
                           read))

    def plan(head):
        """The reads of a node of a row whose capped head is ``head``, every
        start's first, since it must read its ring before the ring's own
        write; and (ring, shifts, read) of each ring whose continuation is
        not one read that the node reads too."""
        made = -1
        for row, c in zip(below, head):
            made &= row[c]
        return ([read for b, read in start_reads if made & b]
                + [read if made & b else unread for b, read, unread in ones],
                [(ring, [s for b, s in shifts if made & b], read)
                 for ring, shifts, read in others])

    # each capped head occurs in the box, and the rows run through them
    # once per value of the first coordinate
    plans = {key: plan(key) for key in itertools.product(
        *(range(min(b, cap) + 1) for b, cap in zip(top[1:], caps)))}
    row_plans = [plans[key] for key in itertools.product(
        *([min(c, cap) for c in range(b + 1)]
          for b, cap in zip(top[1:], caps)))]
    out_g, out_gm, out_words = (array("i", [0]) * n for _ in range(3))
    seen = {}
    for h, (copies, rest) in enumerate(itertools.islice(
            itertools.cycle(row_plans), n // last)):
        base = h * radix % size
        for x, at in zip(range(h * last, (h + 1) * last),
                         range(base, base + last)):
            u = 0
            for ring, source, s in copies:
                ring[at] = q = source[at - s]
                u |= q
            for ring, shifts, read in rest:
                q = 0
                for s in shifts:
                    q |= ring[at - s]
                ring[at] = q
                if read:
                    u |= q
            label, b, _ = _or_label(u, width, seen)
            out_g[x], out_gm[x], out_words[x] = label
            for ring in lists:
                ring[at] |= b
    return out_g, out_gm, out_words


# a window of label numbers is hashed as a polynomial in _HASH_BASE modulo
# the Mersenne prime _HASH_PRIME
_HASH_BASE, _HASH_PRIME = 1_000_003, (1 << 61) - 1


def _fold_shifts(graph: BoxGraph, shifts) -> tuple:
    """``(fold_rows(graph), repeat)`` of a one-coordinate box whose node n
    moves to n - s for each s in ``shifts`` with s <= n.

    With m = max(shifts), heap n's label and word are fixed by those of
    heaps n - m, ..., n - 1, its window, once n >= m.  So when window(n)
    equals window(j) for some m <= j < n, heaps n, n + 1, ... repeat heaps
    j, ..., n - 1.  Heaps are labelled one at a time, from ``shifts`` and
    with ``_or_label``, up to the first such n, and the
    rest of each array is that block repeated; ``repeat`` is (j, n - j),
    or None when no window repeats inside the box.  Each packed int gets a
    number in this fold.  A window's hash, a polynomial in its numbers, is
    rolled on in O(1) per heap, and a hash seen before is confirmed by
    comparing the two windows' numbers.  No row is built: building rows
    made a heap cost more than the edge loop's.
    """
    n = len(graph)
    m = max(shifts)
    # a mex of k values is at most k, and no heap has more than len(shifts)
    width = len(shifts) + 2
    bits, labels = [], []
    ids = [0] * m    # heap x's number is ids[x + m]; window(x) is ids[x:x + m]
    seen = {}
    numbers = {}     # packed int -> its number
    windows = {}     # a window's hash -> the first heap x with that window
    top = pow(_HASH_BASE, m, _HASH_PRIME)
    h, repeat = 0, None
    for x in range(n):
        u = 0
        if x >= m:
            j = windows.setdefault(h, x)
            if j != x and ids[j:j + m] == ids[x:x + m]:
                repeat = (j, x - j)
                break
            for s in shifts:
                u |= bits[x - s]
        else:
            for s in shifts:
                if s <= x:
                    u |= bits[x - s]
        label, packed, _ = _or_label(u, width, seen)
        k = numbers.setdefault(packed, len(numbers))
        labels.append(label)
        bits.append(packed)
        ids.append(k)
        h = (h * _HASH_BASE + k - ids[x] * top) % _HASH_PRIME
    out = tuple(map(array, "iii", zip(*labels)))
    if repeat is not None:
        j, period = repeat
        for column in out:
            column += column[j:] * -(-(n - len(column)) // period)
            del column[n:]
    return out, repeat


# the most bytes of outer ORs a product fold keeps as keys of its blocks
_BLOCKS_CAP = 1 << 22


def _fold_product(graph, width: int, outer_is_left: bool | None = None):
    """``fold_rows`` of a disjunctive sum (``sums.ProductGraph``), from its
    two factors, with no product row built.

    Product node (o, i) of outer node o and inner node i moves to (o', i)
    for each option o' of o and to (o, i') for each option i' of i.  Its
    packed int is ``_or_label``'s (the word, then the g and g_minus
    fields, each ``width`` bits), and outer node o's lane int holds the
    packed ints of its whole block (o, 0), ..., (o, N_inner - 1), ``lane``
    bytes each, inner node i's at byte ``i·lane``.  So one OR of the lane
    ints of o's options gives, lane by lane, the OR over every node of the
    block's moves in the outer factor; each inner node, children first,
    reads its lane from that OR's bytes and ORs in the packed ints of its
    inner options, found earlier in the same block (``_fold_block``).  The
    outer factor is the one with more edges per node, so that the
    per-option loop runs on whole blocks where it runs most;
    ``outer_is_left`` overrides it.

    A block, its labels, words and lane int, is a function of its outer
    OR alone, so it is folded once per distinct outer OR: a block whose
    outer OR was seen before shares the first such block's lane int and
    copies its slices of the three arrays.  The outer ORs kept as keys take
    at most ``_BLOCKS_CAP`` bytes, and the dict is emptied whenever it is
    full, so a product whose blocks never repeat holds at most that much
    more than its lane ints.
    """
    left, right = graph.left, graph.right
    (e_left, k_left), (e_right, k_right) = graph.factor_degrees()
    if outer_is_left is None:
        outer_is_left = e_left * len(right) >= e_right * len(left)
    outer, inner = (left, right) if outer_is_left else (right, left)
    # a mex of k values is at most k, so with K the most options of a
    # product node every g and g_minus is at most max(K, 1), below K + 2
    width = min(width, k_left + k_right + 2)
    n, n_in = len(graph), len(inner)
    # block o is product nodes o·o_step + i·i_step, i = 0 .. N_inner - 1
    o_step, i_step = (n_in, 1) if outer_is_left else (1, len(outer))
    lane = (_WORD_BITS + 2 * width + 7) // 8
    # inner node, its lane's first byte, its options, children first
    inner_rows = [(i, i * lane, list(row)) for i, row in inner.node_rows()]
    lanes = [0] * len(outer)
    out = tuple(array("i", [0]) * n for _ in range(3))
    seen = {}
    size = n_in * lane
    # a block's outer OR -> the first outer node with it and that block's
    # slice; an outer OR fits in size bytes, so room of them in _BLOCKS_CAP
    blocks, room = {}, max(1, _BLOCKS_CAP // size)
    for o, row in outer.node_rows():
        u = 0
        for y in row:
            u |= lanes[y]
        block = slice(o * o_step, o * o_step + n_in * i_step, i_step)
        hit = blocks.get(u)
        if hit is None:
            if len(blocks) == room:
                blocks.clear()
            blocks[u] = o, block
            lanes[o], labels = _fold_block(u.to_bytes(size, "little"),
                                           inner_rows, lane, width, seen)
            for column, values in zip(out, zip(*labels)):
                column[block] = array("i", values)
        else:
            first, copied = hit
            lanes[o] = lanes[first]
            for column in out:
                column[block] = column[copied]
    return out


def _fold_block(outer_or: bytes, inner_rows: list, lane: int, width: int,
                seen: dict) -> tuple:
    """(lane int, labels in inner node order) of one block of
    ``_fold_product``, whose moves in the outer factor OR to the lanes
    ``outer_or``.  Each node's label, packed int and lane bytes come from
    ``_or_label`` with the fold's lookup ``seen``, which keeps the bytes
    once per label."""
    n_in = len(inner_rows)
    bits, chunks, labels = [0] * n_in, [b""] * n_in, [None] * n_in
    from_bytes = int.from_bytes
    for i, at, opts in inner_rows:
        u = from_bytes(outer_or[at:at + lane], "little")
        for y in opts:
            u |= bits[y]
        labels[i], bits[i], chunks[i] = _or_label(u, width, seen, lane)
    return from_bytes(b"".join(chunks), "little"), labels


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

PET_CONDITIONS = tuple(_PET_CONDITIONS)


def _violations(packed, rows: dict) -> dict:
    """Each distinct word of ``packed`` -> the list of the names of the
    ``rows`` it violates, in row order."""
    if packed is None:
        raise ValueError("a LabeledGraph without packed_masks has no words "
                         "to test rows against: build it with sg_labels")
    out = {}
    for word in set(packed):
        props = word >> _CLASS_BITS
        out[word] = [name for name, (row, _) in rows.items() if not props & row]
    return out


def _witnesses(lg: LabeledGraph, rows: dict) -> dict:
    """name -> (node, label, reason) for every row some node violates.

    The witness is the smallest violating node by (depth, position string);
    ties go to the first in graph order.  Nodes are searched, and depths
    read, only when some word violates a row: a one-coordinate box by the
    first occurrence of each violating word (``_first_witnesses``), a sum
    per distinct block (``_product_witnesses``), and any other graph node
    by node (``_walk_witnesses``).
    """
    packed = lg.packed_masks
    violated = _violations(packed, rows)
    if not any(violated.values()):
        return {}
    from .sums import ProductGraph  # sums imports this module
    graph = lg.graph
    if isinstance(graph, ProductGraph):
        best = _product_witnesses(graph, packed, violated)
    elif isinstance(graph, BoxGraph) and len(graph.strides) == 1:
        best = _first_witnesses(packed, violated)
    else:
        best = _walk_witnesses(graph, packed, violated)
    out = {}
    for name, (_, reason) in rows.items():
        if name in best:
            x = best[name]
            lab = Label(lg.g[x], lg.g_minus[x])
            if reason is None:
                reason = _option_reason(lg, packed, x, name)
            else:
                reason = reason.format(g=lab.g, gm=lab.g_minus)
            out[name] = (graph.positions[x], lab, reason)
    return out


def _walk_witnesses(graph, packed, violated: dict) -> dict:
    """name -> witness node of each violated row, from a walk over every
    node."""
    depths, positions = graph.depths, graph.positions
    best = {}
    for x, word in enumerate(packed):
        names = violated[word]
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
    return {name: x for name, (_, x) in best.items()}


def _first_witnesses(packed, violated: dict) -> dict:
    """``_walk_witnesses`` of a one-coordinate box: node n is heap n, of
    depth n, so the witness of a row is the first node whose word violates
    it."""
    best = {}
    for word, names in violated.items():
        if names:
            x = packed.index(word)
            for name in names:
                best[name] = min(best.get(name, x), x)
    return best


def _product_witnesses(graph, packed, violated: dict) -> dict:
    """``_walk_witnesses`` of a sum (``sums.ProductGraph``), one distinct
    block of words at a time.

    Node i·N + j, of left node i and right node j, has depth d(i) + d(j).
    The left nodes are grouped by their block of N words.  For each row
    and block, the least depth of a violating node is the least depth of
    the block's copies plus the least depth of its violating right nodes;
    D, the least over the blocks, is the witness's depth, and position
    strings are built only for the nodes of depth D: the block's copies of
    least depth with its violating right nodes of least depth, in the
    blocks that reach D.
    """
    left_depths, right_depths = graph.left.depths, graph.right.depths
    n = len(graph.right)
    size = n * packed.itemsize
    raw = packed.tobytes()
    copies = {}
    for i, lo in enumerate(range(0, len(raw), size)):
        copies.setdefault(raw[lo:lo + size], []).append(i)
    # per row: its depth D so far, and the (copies, right nodes) reaching it
    best = {}
    for lefts in copies.values():
        lo = lefts[0] * n
        # per row: the least depth of its violating right nodes, and those
        least = {}
        for j, word in enumerate(packed[lo:lo + n]):
            names = violated[word]
            if not names:
                continue
            d = right_depths[j]
            for name in names:
                held = least.get(name)
                if held is None or d < held[0]:
                    least[name] = (d, [j])
                elif d == held[0]:
                    held[1].append(j)
        if not least:
            continue
        d_left = min(map(left_depths.__getitem__, lefts))
        tops = [i for i in lefts if left_depths[i] == d_left]
        for name, (d, rights) in least.items():
            d += d_left
            held = best.get(name)
            if held is None or d < held[0]:
                best[name] = (d, [(tops, rights)])
            elif d == held[0]:
                held[1].append((tops, rights))
    positions = graph.positions
    out = {}
    for name, (_, pairs) in best.items():
        nodes = [i * n + j for tops, rights in pairs
                 for i in tops for j in rights]
        out[name] = min((position_key(positions[x]), x) for x in nodes)[1]
    return out


def _option_reason(lg, packed, x, predicate):
    graph = lg.graph
    lab = (lg.g[x], lg.g_minus[x])
    opts = graph.row(x)
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


def violated_rows(lg: LabeledGraph, starts) -> list:
    """For each component of a disjoint union (``core.disjoint_union``), the
    names in ``PREDICATES`` and ``PET_CONDITIONS`` whose row some node of it
    violates, as a frozenset.  Component k is nodes ``starts[k]`` to
    ``starts[k + 1] - 1``.  A name is absent exactly when ``classify`` (or
    ``check_sm_equivalences``) of that graph alone finds it holds.
    """
    packed, rows = lg.packed_masks, {**_CLASS_ROWS, **_PET_CONDITIONS}
    # each word's names as one bit per row, a component's as the OR of its
    # distinct words', and each distinct OR's names built once
    bits = {name: 1 << i for i, name in enumerate(rows)}
    masks = {word: sum(map(bits.__getitem__, names))
             for word, names in _violations(packed, rows).items()}
    out, names = [], {}
    for lo, hi in zip(starts, starts[1:]):
        mask = 0
        for word in set(packed[lo:hi]):
            mask |= masks[word]
        held = names.get(mask)
        if held is None:
            held = names[mask] = frozenset(
                name for name, bit in bits.items() if mask & bit)
        out.append(held)
    return out


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

# target -> covering condition (condition, the _CLASS_ROWS row it is, reason):
# by the paper's theorems pet <=> strongly miserable, tame <=> t-miserable and
# domestic <=> weakly miserable, each condition is a miserability row.  pet
# asks for exactly one of its row's properties, the others for at least one
_COVERING = {
    "pet": ("SM(v)", "strongly_miserable",
            "exactly one of membership / double-movability must hold"),
    "miserable": ("M(v)", "miserable", "none of (a'),(b'),(c') hold"),
    "tame": ("T(viii)", "t_miserable", "none of (a0'),(c'),(e') hold"),
    "domestic": ("D(vii)", "weakly_miserable",
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
    named = [(name, sets[name]) for name in _REQUIRED[target]]
    # each set's node numbers in ascending order, the order every condition
    # reports its failures in, whatever the positions' hashes
    nodes = {name: sorted(i for i in map(index.get, s) if i is not None)
             for name, s in named}

    own = [0] * len(graph)
    for name, ids in nodes.items():
        for i in ids:
            own[i] |= _PAIR_CLASS[_SET_LABELS[name]]
    reach, degrees = [], []
    for opts in map(graph.row, range(len(graph))):
        r = 0
        for y in opts:
            r |= own[y]
        reach.append(r)
        degrees.append(len(opts))

    # pairwise disjoint, naming the shared member of the smallest number
    for i, (na, sa) in enumerate(named):
        for nb, sb in named[i + 1:]:
            overlap = sa & sb
            if overlap:
                first = min(overlap, key=lambda x: (index.get(x, len(graph)),
                                                    repr(x)))
                fail(("disjoint", first, f"{na} and {nb} overlap"))

    # (i) independence
    for name, ids in nodes.items():
        for i in ids:
            if reach[i] & _PAIR_CLASS[_SET_LABELS[name]]:
                fail(("i", positions[i], f"move inside {name}"))

    # (ii) terminals
    terminals = {positions[i] for i, k in enumerate(degrees) if not k}
    for x in sorted(terminals - cand.v01, key=repr):
        fail(("ii", x, "terminal not in v01"))

    unknown = sorted((x for _, s in named for x in s if x not in index),
                     key=repr)
    for x in unknown:
        fail(("membership", x, "candidate position not in graph"))
    if unknown:
        return report

    nodes["rest"] = [i for i in range(len(graph)) if not own[i] & (SWAP | V00)]
    nodes["v01 - terminals"] = [i for i in nodes["v01"] if degrees[i]]
    for cond, name, need, avoid in _STRUCTURE[target]:
        who = "" if name == "rest" else f"{name[:3]} position "
        for i in nodes[name]:
            r, x = reach[i], positions[i]
            if need and not r & need:
                fail((cond, x, f"{who}not movable to {_REACH_NAMES[need]}"))
            if r & avoid:
                fail((cond, x, f"{who}movable to {_REACH_NAMES[avoid]}"))

    if not structural_only:
        cond, name, reason = _COVERING[target]
        row = _CLASS_ROWS[name][0]
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
