"""Cycle permutation powers and the integer search they give rise to.

Swapping a length-m prefix of a closed arc sequence with its suffix rotates
the cycle.  The swap first acts as the identity after N / gcd(N, m)
repetitions, and simulating the return trip of a single position yields the
minimal coefficients k1, k2 with k1*m2 = k2*m1, hence gcd and lcm without
any division-based number theory.
"""

from relgraph import (
    CyclePermutation,
    bocps,
    chains_of,
    cycle_permute,
    minimal_power,
    path_to_sequence,
)

hexagon = path_to_sequence((1, 2, 3, 4, 5, 6), close=True)
print("rotating a 6-cycle by a prefix of 2, power by power:")
current = hexagon
for power in range(1, minimal_power(6, 2) + 1):
    current = cycle_permute(current, CyclePermutation(index=2, power=1))
    walk = "".join(str(a.tail) for a in current.arcs)
    print(f"  power {power}: {walk}  {'(identity)' if current == hexagon else ''}")

print()
print("chains of a square (drop the last arc of every rotation):")
for chain in chains_of(path_to_sequence((1, 2, 3, 4), close=True)):
    print("  " + " ".join(f"{a.tail}->{a.head}" for a in chain.arcs))

print()
print(f"{'m1':>5} {'m2':>5} {'k1':>5} {'k2':>5} {'loops':>6} {'gcd':>5} {'lcm':>6}")
for m1, m2 in [(4, 6), (7, 5), (12, 18), (35, 14), (360, 84)]:
    res = bocps(m1, m2)
    print(f"{m1:>5} {m2:>5} {res.k1:>5} {res.k2:>5} {res.loops:>6} {res.gcd:>5} {res.lcm:>6}")
