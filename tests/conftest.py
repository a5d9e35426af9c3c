"""Shared instance builders and independent oracles.

The oracles here deliberately avoid the library's own machinery: brute-force
path enumeration is a plain recursive DFS, distances come from a deque BFS,
and the chromatic check tries every assignment.  ``bots_search`` is the
literal table-copying search (BOTS) over the raw ``g.arcs`` table with
vertex ids, so it shares no cached view with the engine it checks.
``minimal_power_bocps`` reaches the permutation power through the ``bocps``
cursor instead of the gcd.  ``layered_bogpc`` is the literal class growth
that lays the uncoloured graph out again after every admission pass.  They
are the second route against which the algorithms under test are compared.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from collections import deque

import pytest

from relgraph import Coloring, MultiTraversalRelation, bocps
from relgraph.core import layer_adjacency


ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_commands() -> list[str]:
    """Every command of the README's command-line block, in order, comments dropped."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        piece.strip()
        for line in block.splitlines()
        for piece in line.split("#", 1)[0].split("&&")
        if piece.strip()
    ]


def relation_from(arcs) -> MultiTraversalRelation:
    return MultiTraversalRelation.from_arcs(arcs)


def random_connected_multigraph(rnd: random.Random, max_n: int = 8, max_weight: int = 2) -> MultiTraversalRelation:
    """Weakly connected random instance: a random skeleton tree plus extra arcs."""
    n = rnd.randint(2, max_n)
    arcs: dict[tuple[int, int], int] = {}
    for i in range(2, n + 1):
        j = rnd.randint(1, i - 1)
        arcs[(j, i)] = rnd.randint(1, max_weight)
    for _ in range(rnd.randint(0, 2 * n)):
        t = rnd.randint(1, n)
        h = rnd.randint(1, n)
        arcs[(t, h)] = rnd.randint(1, max_weight)
    return MultiTraversalRelation.from_arcs([(t, h, w) for (t, h), w in arcs.items()])


def random_connected_symmetric(rnd: random.Random, max_n: int = 50) -> MultiTraversalRelation:
    """Connected weight-1 symmetric instance: spanning tree plus random edges."""
    n = rnd.randint(2, max_n)
    edges: set[tuple[int, int]] = set()
    for i in range(2, n + 1):
        j = rnd.randint(1, i - 1)
        edges.add((j, i))
    extras = rnd.randint(0, 2 * n)
    for _ in range(extras):
        u = rnd.randint(1, n)
        v = rnd.randint(1, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    arcs = []
    for u, v in edges:
        arcs.append((u, v, 1))
        arcs.append((v, u, 1))
    return MultiTraversalRelation.from_arcs(arcs)


def random_cubic(rnd: random.Random, n: int) -> MultiTraversalRelation:
    """Connected 3-regular instance via the pairing model with rejection."""
    assert n >= 4 and n % 2 == 0
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rnd.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        arcs = [(u, v, 1) for u, v in edges] + [(v, u, 1) for u, v in edges]
        g = MultiTraversalRelation.from_arcs(arcs)
        if bfs_distances_all(g, 1) is not None:
            return g


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def out_adjacency(g: MultiTraversalRelation) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for t, h in g.arcs:
        if t != h:
            adj[t].add(h)
    return adj


def bfs_distances(g: MultiTraversalRelation, sources) -> dict[int, int]:
    """Multi-source BFS over out-arcs; unreachable vertices are absent."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    adj = out_adjacency(g)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def bfs_distances_all(g: MultiTraversalRelation, source: int) -> dict[int, int] | None:
    """BFS distances when every vertex is reachable, else None."""
    dist = bfs_distances(g, [source])
    return dist if len(dist) == g.n else None


def brute_spanning_paths(g: MultiTraversalRelation, start: int) -> tuple[int, int]:
    """(spanning simple paths from start, those whose end has an arc to start)."""
    adj = out_adjacency(g)
    n = g.n
    spanning = closing = 0

    def rec(v: int, visited: set[int], depth: int) -> None:
        nonlocal spanning, closing
        if depth == n:
            spanning += 1
            if g.multiplicity(v, start) > 0:
                closing += 1
            return
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                rec(w, visited, depth + 1)
                visited.discard(w)

    rec(start, {start}, 1)
    return spanning, closing


def bots_search(g: MultiTraversalRelation, start: int) -> tuple[int, list[tuple[int, ...]]]:
    """(loops, maximal paths in emission order) of the literal table search.

    Each popped path gets a fresh copy of the weights, loses one unit on every
    arc into each appearance of a vertex on it, and is extended by every head
    out of its end (self-loops aside) whose arc still has weight, pushed in
    ascending id order onto a LIFO stack.
    """
    into: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for arc in g.arcs:
        into[arc.head].append(arc)
    loops = 0
    leaves: list[tuple[int, ...]] = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        loops += 1
        table = dict(g.arcs)
        for v in path:
            for arc in into[v]:
                if table[arc] > 0:
                    table[arc] -= 1
        end = path[-1]
        heads = sorted(h for (t, h), w in table.items() if t == end != h and w > 0)
        if heads:
            stack.extend(path + (h,) for h in heads)
        else:
            leaves.append(path)
    return loops, leaves


def minimal_power_bocps(n: int, m: int) -> int:
    """Least identity power of the index-m swap on n arcs, as the cursor's step count.

    The prefix and suffix lengths (m, n - m) are the two numbers: the swap
    returns to the identity after k1 + k2 steps of their minimal coefficients.
    """
    return 1 if m == n else bocps(m, n - m).loops


def layered_bogpc(g: MultiTraversalRelation, seed: int) -> Coloring:
    """bogpc with one full layering per admission pass; connected instances only.

    Each pass re-layers the uncoloured vertices from the growing class and
    scans the third region, then the unreached vertices, in seeded order
    (sorted, then shuffled), admitting every vertex with no edge into the
    class, until a pass admits nothing.
    """
    rng = random.Random(seed)

    def shuffled(items) -> list[int]:
        out = sorted(items)
        rng.shuffle(out)
        return out

    adjacency = g.neighbours
    uncoloured = set(g.vertices)
    classes: list[set[int]] = []
    current = {rng.choice(sorted(uncoloured))}
    while True:
        while True:
            regions, stranded = layer_adjacency(adjacency, uncoloured, current)
            candidates = shuffled(regions[2]) if len(regions) >= 3 else []
            candidates += shuffled(stranded)
            admitted = False
            for v in candidates:
                if not (adjacency[v] & current):
                    current.add(v)
                    admitted = True
            if not admitted:
                break
        classes.append(current)
        uncoloured -= current
        if not uncoloured:
            break
        isolated = [v for v in uncoloured if not (adjacency[v] & uncoloured)]
        current = {rng.choice(sorted(isolated or uncoloured))}
    return Coloring.from_assignment({v: i + 1 for i, cls in enumerate(classes) for v in cls})


def brute_chromatic(g: MultiTraversalRelation) -> int:
    """Exhaustive chromatic number over all assignments; tiny instances only."""
    verts = sorted(g.vertices)
    edges = {(min(t, h), max(t, h)) for t, h in g.arcs if t != h}
    for k in range(1, len(verts) + 1):
        for assignment in itertools.product(range(k), repeat=len(verts)):
            colour = dict(zip(verts, assignment))
            if all(colour[u] != colour[v] for u, v in edges):
                return k
    return len(verts)


def petersen() -> MultiTraversalRelation:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    arcs = []
    for u, v in outer + spokes + inner:
        arcs.append((u, v, 1))
        arcs.append((v, u, 1))
    return MultiTraversalRelation.from_arcs(arcs)


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(20260810)
