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
* ``boerc`` colours a seeded-random root order against an ordered edge
  subgraph partition (each edge charged to its earlier endpoint), drawing
  uniformly from the palette minus the colours recorded by earlier
  neighbours and extending the palette only when that difference is empty.

The exact side enumerates every split of the vertex set into independent
classes of size >= 2 plus a clique remainder; the smallest class-plus-
remainder count over the family equals the chromatic number, which a
desk-scale brute-force oracle confirms independently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import MultiTraversalRelation, VertexId, is_connected
from .errors import DomainError, SizeLimitError
from .partition import layer_adjacency


@dataclass(frozen=True)
class EdgeSubgraph:
    root: VertexId
    leaves: frozenset[VertexId]


@dataclass(frozen=True)
class Opers:
    """Ordered partition of the edge relation: each edge charged to its earlier root."""

    roots_order: tuple[VertexId, ...]
    subgraphs: dict[VertexId, EdgeSubgraph]
    empty_set: frozenset[VertexId]


@dataclass(frozen=True)
class Coloring:
    assignment: dict[VertexId, int]
    classes: dict[int, frozenset[VertexId]]
    k: int

    @classmethod
    def from_assignment(cls, assignment: dict[VertexId, int]) -> "Coloring":
        classes: dict[int, set[VertexId]] = {}
        for v, colour in assignment.items():
            classes.setdefault(colour, set()).add(v)
        return cls(
            assignment=dict(assignment),
            classes={c: frozenset(vs) for c, vs in classes.items()},
            k=len(classes),
        )


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


def build_opers(g: MultiTraversalRelation, order: Sequence[VertexId]) -> Opers:
    """Charge every edge to the endpoint earlier in ``order``.

    ``order`` must be a permutation of the vertex set.  Vertices left with no
    edges of their own form the empty subgraph set; when it has two or more
    members it is itself an independent set, since any edge between two such
    vertices would have been charged to one of them.
    """
    if sorted(order) != sorted(g.vertices):
        raise DomainError("order must be a permutation of the vertex set")
    position = {v: i for i, v in enumerate(order)}
    neighbours = g.neighbours
    subgraphs = {}
    for i, root in enumerate(order):
        leaves = frozenset(v for v in neighbours[root] if position[v] > i)
        if leaves:
            subgraphs[root] = EdgeSubgraph(root=root, leaves=leaves)
    empty = frozenset(v for v in order if v not in subgraphs)
    return Opers(roots_order=tuple(order), subgraphs=subgraphs, empty_set=empty)


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


def is_civs(g: MultiTraversalRelation, vertices: Iterable[VertexId]) -> int:
    """1 iff the set has size >= 2 and contains no edge of the instance."""
    vs = list(vertices)
    stray = set(vs) - g.vertices
    if stray:
        raise DomainError(f"vertices {sorted(stray)} are not on the instance")
    if len(vs) < 2 or len(set(vs)) != len(vs):
        return 0
    neighbours = g.neighbours
    return int(not any(v in neighbours[u] for u, v in itertools.combinations(vs, 2)))


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
    colour with every later neighbour.  A root draws uniformly from the
    palette minus its records, starting from the palette (1, 2) and growing
    it only when no colour is free, so the palette never needs to pass max
    degree + 1.
    """
    _require_connected(g)
    rng = random.Random(seed)
    order = _shuffled(g.vertices, rng)
    opers = build_opers(g, order)
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
        sub = opers.subgraphs.get(x)
        if sub is not None:
            for later in sub.leaves:
                recorded[later].add(colour)
    return Coloring.from_assignment(assignment)


# ---------------------------------------------------------------------------
# Exact machinery
# ---------------------------------------------------------------------------


def enumerate_mcivs(g: MultiTraversalRelation, limit: int = 12) -> tuple[IntervalPartition, ...]:
    """Every split of the vertices into independent size->=2 classes plus a clique.

    The remainder set must induce a complete subgraph (each of its vertices
    individually coloured in the matching colouring).  Each split is produced
    once, classes canonicalised by their smallest member.  The minimum of
    ``bound`` over the family equals the chromatic number: an optimal
    colouring's size->=2 classes and (pairwise adjacent) singletons form a
    member of the family, and every member yields a proper colouring of its
    own size.
    """
    if g.n > limit:
        raise SizeLimitError(f"exact enumeration is capped at n <= {limit}, instance has {g.n}")
    adjacency = g.neighbours
    verts = sorted(g.vertices)
    results: list[IntervalPartition] = []
    classes: list[set[VertexId]] = []
    remainder: set[VertexId] = set()

    def snapshot() -> IntervalPartition:
        canon = sorted((frozenset(c) for c in classes), key=min)
        return IntervalPartition(classes=tuple(canon), remainder=frozenset(remainder))

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


def mcivs_lower_bound(g: MultiTraversalRelation, limit: int = 12) -> int:
    """Minimum class-plus-remainder count over :func:`enumerate_mcivs`."""
    layouts = enumerate_mcivs(g, limit)
    return min(layout.bound for layout in layouts)


def chromatic_oracle(g: MultiTraversalRelation, limit: int = 12) -> int:
    """Exact chromatic number by backtracking; desk scale only."""
    if g.n > limit:
        raise SizeLimitError(f"chromatic oracle is capped at n <= {limit}, instance has {g.n}")
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


def check_vbar_proposition(
    g: MultiTraversalRelation, limit: int = 12
) -> tuple[bool | None, IntervalPartition | None]:
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
    for layout in enumerate_mcivs(g, limit):
        if len(layout.remainder) <= 1:
            return True, layout
    return False, None
