"""Vertex coloring over the relation's cached ``neighbours`` map.

An edge is an unordered, loop-free vertex pair, and ``neighbours`` holds
every edge of the instance as adjacency sets; the heuristics, the checks and
the exact side all read it.  Two randomized heuristics colour it, both with
worst-case palette size bounded by max degree + 1:

* ``bogpc`` grows one colour class at a time: layer the uncoloured subgraph
  from the class, scan the third region (and any unreached vertices) in
  seeded-random order, and admit every vertex with no edge into the growing
  class; repeat until a pass admits nothing, so every emitted class is a
  maximal independent set of what remained.
* ``boerc`` colours a seeded-random root order; each coloured vertex
  records its colour on every neighbour not yet coloured, and a vertex
  draws uniformly from the palette minus its records, extending the palette
  only when that difference is empty.

The exact side enumerates every split of the vertex set into independent
classes of size >= 2 plus a clique remainder; the smallest class-plus-
remainder count over the family equals the chromatic number, which a
desk-scale brute-force oracle confirms independently.  Both are capped at
``EXACT_CAP`` vertices; ``force=True`` lifts the cap of either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .core import MultiTraversalRelation, VertexId, is_connected
from .errors import DomainError, SizeLimitError
from .partition import layer_adjacency


# Exact colouring is desk scale: the layout count grows about 6x per vertex,
# so a cycle at the cap already takes seconds to enumerate and the
# dodecahedron (n = 20) does not finish.
EXACT_CAP = 12


@dataclass(frozen=True)
class Coloring:
    assignment: dict[VertexId, int]
    k: int

    @classmethod
    def from_assignment(cls, assignment: dict[VertexId, int]) -> "Coloring":
        return cls(assignment=dict(assignment), k=len(set(assignment.values())))


@dataclass(frozen=True)
class IntervalPartition:
    """Independent classes of size >= 2 plus a clique remainder."""

    classes: tuple[frozenset[VertexId], ...]
    remainder: frozenset[VertexId]

    @property
    def bound(self) -> int:
        # colours needed when each class shares one colour and the remainder none
        return len(self.classes) + len(self.remainder)


def max_degree(g: MultiTraversalRelation) -> int:
    return max(len(nbrs) for nbrs in g.neighbours.values())


def verify_coloring(g: MultiTraversalRelation, colouring: Coloring) -> int:
    """1 iff no edge of the instance joins two vertices of one colour."""
    missing = g.vertices - colouring.assignment.keys()
    if missing:
        raise DomainError(f"assignment misses vertices {sorted(missing)}")
    assignment = colouring.assignment
    for u, nbrs in g.neighbours.items():
        if any(assignment[u] == assignment[v] for v in nbrs):
            return 0
    return 1


# ---------------------------------------------------------------------------
# Randomized heuristics
# ---------------------------------------------------------------------------


def _require_connected(g: MultiTraversalRelation) -> None:
    if not is_connected(g):
        raise DomainError("coloring heuristics need a connected instance")


def _shuffled(items: Iterable[VertexId], rng: random.Random) -> list[VertexId]:
    out = sorted(items)
    rng.shuffle(out)
    return out


def bogpc(g: MultiTraversalRelation, seed: int) -> Coloring:
    """Partition-driven colouring; proper, with at most max degree + 1 colours.

    Class growth admits from the third region of the layering rather than the
    second: region two is adjacent to the class by construction, while region
    three only risks conflicts with siblings admitted in the same pass, which
    the explicit disjointness test rules out.  Unreached vertices are scanned
    as well, so each finished class is maximal in the remaining graph; that
    maximality is what pins the palette under max degree + 1.  The next class
    is seeded with one random uncoloured vertex, preferring vertices whose
    whole neighbourhood is already coloured.
    """
    _require_connected(g)
    rng = random.Random(seed)
    adjacency = g.neighbours
    uncoloured = set(g.vertices)
    classes: list[frozenset[VertexId]] = []
    current = {rng.choice(sorted(uncoloured))}
    while True:
        while True:
            regions, stranded = layer_adjacency(adjacency, uncoloured, current)
            candidates = _shuffled(regions[2], rng) if len(regions) >= 3 else []
            candidates += _shuffled(stranded, rng)
            admitted = False
            for v in candidates:
                if not (adjacency[v] & current):
                    current.add(v)
                    admitted = True
            if not admitted:
                break
        classes.append(frozenset(current))
        uncoloured -= current
        if not uncoloured:
            break
        isolated = [v for v in uncoloured if not (adjacency[v] & uncoloured)]
        pool = isolated if isolated else uncoloured
        current = {rng.choice(sorted(pool))}
    assignment = {v: i + 1 for i, cls in enumerate(classes) for v in cls}
    return Coloring.from_assignment(assignment)


def boerc(g: MultiTraversalRelation, seed: int) -> Coloring:
    """Ordered-root colouring against recorded forbidden colours.

    Roots are coloured in a seeded-random order; colouring a root records its
    colour on every neighbour not yet coloured.  A root draws uniformly from
    the palette minus its records, starting from the palette (1, 2) and
    growing it only when no colour is free, so the palette never needs to
    pass max degree + 1.
    """
    _require_connected(g)
    rng = random.Random(seed)
    order = _shuffled(g.vertices, rng)
    neighbours = g.neighbours
    palette = [1, 2]
    recorded: dict[VertexId, set[int]] = {v: set() for v in order}
    assignment: dict[VertexId, int] = {}
    for x in order:
        forbidden = recorded[x]
        if not forbidden:
            colour = rng.choice(palette)
        else:
            free = [c for c in palette if c not in forbidden]
            if not free:
                colour = len(palette) + 1
                palette.append(colour)
            else:
                colour = rng.choice(free)
        assignment[x] = colour
        for v in neighbours[x]:
            if v not in assignment:
                recorded[v].add(colour)
    return Coloring.from_assignment(assignment)


# ---------------------------------------------------------------------------
# Exact machinery
# ---------------------------------------------------------------------------


def enumerate_mcivs(g: MultiTraversalRelation, *, force: bool = False) -> tuple[IntervalPartition, ...]:
    """Every split of the vertices into independent size->=2 classes plus a clique.

    The remainder set must induce a complete subgraph (each of its vertices
    individually coloured in the matching colouring).  Each split is produced
    once, classes canonicalised by their smallest member.  The minimum of
    ``bound`` over the family equals the chromatic number: an optimal
    colouring's size->=2 classes and (pairwise adjacent) singletons form a
    member of the family, and every member yields a proper colouring of its
    own size.  Instances above ``EXACT_CAP`` vertices are refused unless
    ``force`` is set.
    """
    if g.n > EXACT_CAP and not force:
        raise SizeLimitError(
            f"exact enumeration is capped at n <= {EXACT_CAP}, instance has {g.n}; "
            "pass --force to insist"
        )
    adjacency = g.neighbours
    verts = sorted(g.vertices)
    results: list[IntervalPartition] = []
    classes: list[set[VertexId]] = []
    remainder: set[VertexId] = set()

    def snapshot() -> IntervalPartition:
        # only the vertex being placed opens a class, and vertices are placed in
        # ascending order, so the classes are already ordered by their minima
        return IntervalPartition(classes=tuple(frozenset(c) for c in classes), remainder=frozenset(remainder))

    def extend(i: int) -> None:
        if i == len(verts):
            if all(len(c) >= 2 for c in classes):
                results.append(snapshot())
            return
        v = verts[i]
        nbrs = adjacency[v]
        for c in classes:
            if not (nbrs & c):
                c.add(v)
                extend(i + 1)
                c.remove(v)
        classes.append({v})
        extend(i + 1)
        classes.pop()
        if remainder <= nbrs:
            remainder.add(v)
            extend(i + 1)
            remainder.remove(v)

    extend(0)
    return tuple(results)


def mcivs_lower_bound(g: MultiTraversalRelation) -> int:
    """Minimum class-plus-remainder count over :func:`enumerate_mcivs`."""
    return min(layout.bound for layout in enumerate_mcivs(g))


def chromatic_oracle(g: MultiTraversalRelation, *, force: bool = False) -> int:
    """Exact chromatic number by backtracking; desk scale only.

    Instances above ``EXACT_CAP`` vertices are refused unless ``force`` is set.
    """
    if g.n > EXACT_CAP and not force:
        raise SizeLimitError(
            f"chromatic oracle is capped at n <= {EXACT_CAP}, instance has {g.n}; "
            "pass --force to insist"
        )
    adjacency = g.neighbours
    order = sorted(g.vertices, key=lambda v: -len(adjacency[v]))
    n = len(order)

    def colourable(k: int) -> bool:
        colours: dict[VertexId, int] = {}

        def place(i: int, used: int) -> bool:
            if i == n:
                return True
            v = order[i]
            taken = {colours[u] for u in adjacency[v] if u in colours}
            # first-use symmetry breaking: allow at most one fresh colour
            top = min(k, used + 1)
            for c in range(1, top + 1):
                if c not in taken:
                    colours[v] = c
                    if place(i + 1, max(used, c)):
                        return True
                    del colours[v]
            return False

        return place(0, 0)

    for k in range(1, n + 1):
        if colourable(k):
            return k
    return n


def check_vbar_proposition(g: MultiTraversalRelation) -> tuple[bool | None, IntervalPartition | None]:
    """Empirical probe: does some layout leave a remainder of at most one vertex?

    Applies only to instances whose vertices all share one degree m with
    2 <= m < n - 1; returns (None, None) otherwise.  Returns the witness
    layout when one exists, or (False, None) as a recorded counterexample.
    The general claim is open; nothing here asserts it.
    """
    degrees = {len(nbrs) for nbrs in g.neighbours.values()}
    if len(degrees) != 1:
        return None, None
    m = degrees.pop()
    if not 2 <= m < g.n - 1:
        return None, None
    for layout in enumerate_mcivs(g):
        if len(layout.remainder) <= 1:
            return True, layout
    return False, None
