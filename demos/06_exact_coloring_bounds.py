"""Exact lower bounds from interval layouts, checked against brute force.

A layout splits the vertices into independent classes of size at least two
plus a remainder that must form a clique.  Colouring each class once and
each remainder vertex alone shows the chromatic number never exceeds the
layout size, and the optimal colouring itself is such a layout, so the
minimum over all layouts is exactly the chromatic number.
"""

from relgraph import (
    check_vbar_proposition,
    chromatic_oracle,
    enumerate_mcivs,
    gen_complete,
    gen_cycle,
    gen_grid,
)

print(f"{'instance':<14} {'layouts':>8} {'min bound':>10} {'chromatic':>10}")
cases = [
    ("5-cycle", gen_cycle(5)),
    ("6-cycle", gen_cycle(6)),
    ("9-cycle", gen_cycle(9)),
    ("K4", gen_complete(4)),
    ("2x3 grid", gen_grid(2, 3)),
    ("3x3 grid", gen_grid(3, 3)),
]
for label, g in cases:
    layouts = list(enumerate_mcivs(g))
    best = min(p.bound for p in layouts)
    print(f"{label:<14} {len(layouts):>8} {best:>10} {chromatic_oracle(g):>10}")

print()
print("leftover-vertex probe on regular instances (does some layout strand at most one?):")
for label, g in [("5-cycle", gen_cycle(5)), ("6-cycle", gen_cycle(6)), ("9-cycle", gen_cycle(9))]:
    holds, witness = check_vbar_proposition(g)
    size = len(witness.remainder) if witness else "-"
    print(f"  {label}: holds={holds}, best remainder size {size}")
