"""Vertex coloring over the relation's cached ``neighbours`` map.

An edge is an unordered, loop-free vertex pair, and ``neighbours`` holds
every edge of the instance as adjacency sets; the heuristics, the checks and
the exact side all read it.  Two randomized heuristics colour it, both with
worst-case palette size bounded by max degree + 1:

* ``bogpc`` grows one colour class at a time: layer the uncoloured subgraph
  from the class seed with core's ``layer_adjacency``, once per class, and
  keep its distance-1 and distance-2 rings.  Each pass scans the distance-2
  ring (and, on the first pass, any unreached vertices) in seeded-random
  order and admits every vertex with no edge into the growing class; the
  rings are then updated around the admitted vertices alone.  Passes repeat
  until one admits nothing, so every emitted class is a maximal independent
  set of what remained.
* ``boerc`` colours a seeded-random root order; each coloured vertex
  records its colour on every neighbour not yet coloured, and a vertex
  draws uniformly from the palette minus its records, extending the palette
  only when that difference is empty.

The exact side yields every split of the vertex set into independent
classes of size >= 2 plus a clique remainder, one at a time; the smallest
class-plus-remainder count over the family equals the chromatic number,
which a backtracking oracle confirms independently.  Both are capped at
``EXACT_CAP`` vertices, a cap ``force=True`` lifts, and at half the
recursion limit, which it does not: both recurse once per vertex.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import MultiTraversalRelation, VertexId, is_connected, layer_adjacency
from .errors import DomainError, SizeLimitError


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

    Each class lays the uncoloured graph out once.  While it grows, the
    uncoloured set is fixed and the class only gains vertices, so distances
    to it only fall, and a pass reads just the distance-2 ring and the
    unreached set.  The first pass admits the first vertex scanned from every
    unreached component (nothing there touches the class), so nothing stays
    unreached after it.  After a pass, each admitted vertex leaves the
    distance-2 ring; each of its uncoloured neighbours outside the class and
    the distance-1 ring joins that ring and leaves the distance-2 one; and
    each uncoloured neighbour of such a newcomer that is outside the class
    and the distance-1 ring joins the distance-2 ring.  The rings then equal
    regions two and three of a fresh layering from the grown class.  Both
    candidate lists are sorted before the seeded shuffle, and shuffling an
    empty list draws nothing, so the output is the one a re-layering after
    every pass gives.
    """
    _require_connected(g)
    rng = random.Random(seed)
    adjacency = g.neighbours
    uncoloured = set(g.vertices)
    classes: list[frozenset[VertexId]] = []
    current = {rng.choice(sorted(uncoloured))}
    while True:
        regions, stranded = layer_adjacency(adjacency, uncoloured, current)
        near, ring2 = (regions + [set(), set()])[1:3]
        while True:
            admitted = []
            for v in _shuffled(ring2, rng) + _shuffled(stranded, rng):
                if not (adjacency[v] & current):
                    current.add(v)
                    admitted.append(v)
            if not admitted:
                break
            stranded = set()  # the first vertex scanned from each unreached component was admitted
            for v in admitted:
                ring2.discard(v)
                for w in adjacency[v]:
                    if w in uncoloured and w not in current and w not in near:
                        near.add(w)
                        ring2.discard(w)
                        ring2.update(x for x in adjacency[w]
                                     if x in uncoloured and x not in current and x not in near)
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
        free = [c for c in palette if c not in forbidden]
        if free:
            colour = rng.choice(free)
        else:
            colour = len(palette) + 1
            palette.append(colour)
        assignment[x] = colour
        for v in neighbours[x]:
            if v not in assignment:
                recorded[v].add(colour)
    return Coloring.from_assignment(assignment)


# ---------------------------------------------------------------------------
# Exact machinery
# ---------------------------------------------------------------------------


def _check_exact_cap(g: MultiTraversalRelation, force: bool, what: str) -> None:
    depth_cap = sys.getrecursionlimit() // 2  # one frame per vertex; half is left to the callers
    if g.n > depth_cap:
        raise DomainError(f"{what} recurses once per vertex, so n <= {depth_cap} (half the recursion "
                          f"limit), instance has {g.n}; --force cannot lift this")
    if g.n > EXACT_CAP and not force:
        raise SizeLimitError(
            f"{what} is capped at n <= {EXACT_CAP}, instance has {g.n}; pass --force to insist"
        )


def enumerate_mcivs(g: MultiTraversalRelation, *, force: bool = False) -> Iterator[IntervalPartition]:
    """Walk every split of the vertices into independent size->=2 classes plus a clique.

    The remainder set must induce a complete subgraph (each of its vertices
    individually coloured in the matching colouring).  Each split is yielded
    once, classes canonicalised by their smallest member, so callers reduce
    the walk in one pass.  The minimum of ``bound`` over the family equals
    the chromatic number: an optimal colouring's size->=2 classes and
    (pairwise adjacent) singletons form a member of the family, and every
    member yields a proper colouring of its own size.  Instances above
    ``EXACT_CAP`` vertices are refused at the call unless ``force`` is set.
    """
    _check_exact_cap(g, force, "exact enumeration")
    adjacency = g.neighbours
    verts = sorted(g.vertices)
    classes: list[set[VertexId]] = []
    remainder: set[VertexId] = set()

    def extend(i: int) -> Iterator[IntervalPartition]:
        if i == len(verts):
            if all(len(c) >= 2 for c in classes):
                # classes open in ascending vertex order, so they are already ordered by their minima
                yield IntervalPartition(tuple(frozenset(c) for c in classes), frozenset(remainder))
            return
        v = verts[i]
        nbrs = adjacency[v]
        for c in classes:
            if not (nbrs & c):
                c.add(v)
                yield from extend(i + 1)
                c.remove(v)
        classes.append({v})
        yield from extend(i + 1)
        classes.pop()
        if remainder <= nbrs:
            remainder.add(v)
            yield from extend(i + 1)
            remainder.remove(v)

    return extend(0)


def chromatic_oracle(g: MultiTraversalRelation, *, force: bool = False) -> int:
    """Exact chromatic number by backtracking; desk scale only.

    Instances above ``EXACT_CAP`` vertices are refused unless ``force`` is set.
    """
    _check_exact_cap(g, force, "chromatic oracle")
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

    return next(k for k in range(1, n + 1) if colourable(k))  # k = n always succeeds


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
    witness = next((layout for layout in enumerate_mcivs(g) if len(layout.remainder) <= 1), None)
    return witness is not None, witness
