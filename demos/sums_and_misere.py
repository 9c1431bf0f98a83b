"""What disjunctive sums preserve, and what they silently destroy.

Normal play composes perfectly: the value of a sum is the XOR of the
component values. Misere play composes only through structure: tame,
miserable, forced, and returnable survive summation, while pet and domestic
can be lost.
"""

from grundylab import (
    check_closure,
    classify,
    enumerate_subgame,
    load_fixture,
    sg_labels,
    sum_graph,
    tame_sum_label,
)
from grundylab.zoo import make_family

nim = make_family("nim")


def nim_from(*piles):
    """The Nim game graph below one position."""
    return enumerate_subgame(nim, [piles])


# XOR in action: a 2+3 pile against a 1+4 pile
lg = sg_labels(sum_graph([nim_from(2, 3), nim_from(1, 4)]))
root = ((2, 3), (1, 4))
print(f"nim(2,3) + nim(1,4) at the top: label {tuple(lg.labels[root])}")
print(f"  xor of components: (2^3) ^ (1^4) = {2 ^ 3 ^ 1 ^ 4}")

# the swap-parity law: component labels alone determine the sum label
print("\nswap parity for tame summands:")
for labels in ([(0, 1), (0, 1)], [(0, 1), (1, 0)], [(1, 0)] * 3,
               [(2, 2), (3, 3)]):
    print(f"  {labels} -> {tuple(tame_sum_label(labels))}")

# sums of miserable + forced games stay miserable + forced
report = check_closure("forced", [nim_from(2, 3), nim_from(1, 4)])
print(f"\nforced closed under this sum: {report.holds}")
print(f"fast-path labels all correct: {report.fast_path_ok}")

# pet is NOT closed: each single pile is pet, the sum has a (0,0)-position
report = check_closure("pet", [nim_from(2), nim_from(2)])
print(f"\npet closed under single-pile sum: {report.holds}")
lg = report.sum_labels
print(f"  the doubled pile is {tuple(lg.labels[((2,), (2,))])}")

# domestic is NOT closed either: two domestic five-node games
g1 = enumerate_subgame(load_fixture("sodo_g1"), ["E"])
g2 = enumerate_subgame(load_fixture("sodo_g2"), ["Y"])
lg = sg_labels(sum_graph([g1, g2]))
print(f"\ndomestic + domestic at the top: {tuple(lg.labels[('E', 'Y')])}")
print(f"  sum domestic: {classify(lg).verdicts['domestic']}")
