"""Exhaustive equivalent-visiting search.

The search enumerates every maximal path from a start vertex under the
equivalent-visiting discipline: each appearance of a vertex on the current
path consumes one unit of weight from every arc entering it, so the path can
be extended to a vertex only while some arc into it has weight left.
Self-loops are stored but never traversed.

``obots_search`` reads the relation's cached ``index_view`` (vertex ids
remapped to 0..n-1 in ascending order, with weighted out-rows and no
self-loops) and compares stored weights against per-path occurrence counts,
with no table copies.  Children are pushed in ascending id order onto a LIFO
stack, so repeated runs are bit-identical.  The tests hold the literal
table-copying reference (BOTS), which reads the arc table itself.

One engine loop, ``_obots_run``, serves every mode of ``obots_search`` and
``search_report``.  At each leaf it counts the path, keeps it as vertex ids
when paths are wanted, and tallies Hamiltonian paths and cycles; every
search tallies, and ``obots_search`` drops the tally.  A serial search runs
the loop once from the start; with ``threads`` > 1 it runs in a process pool
on each child of the start.  Either way the parts merge in the serial order.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

from .core import (
    GraphClass,
    IndexedAdjacency,
    MultiTraversalRelation,
    VertexId,
    classify,
    is_connected,
)
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class SearchPath:
    """A maximal path found by the search."""

    vertices: tuple[VertexId, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TraversalResult:
    """Outcome of one exhaustive search.

    ``loop_count`` is the number of partial paths popped and expanded, the
    root included; ``breadth`` is the number of maximal paths.  ``paths``
    holds all of them, or none after a counts-only search.
    """

    paths: tuple[SearchPath, ...]
    loop_count: int
    breadth: int
    disconnected: bool = False


@dataclass(frozen=True)
class HamiltonStats:
    """Spanning-path tallies of one search.

    ``hamiltonian_paths`` counts every maximal path that visits all vertices
    exactly once; ``hamiltonian_cycles`` counts the subset whose final vertex
    has an arc back to the start, so cycles are contained in the path tally.
    """

    hamiltonian_paths: int
    hamiltonian_cycles: int

    @property
    def undirected_cycle_count(self) -> int:
        # each undirected Hamiltonian cycle is found once per direction
        return self.hamiltonian_cycles // 2


# ---------------------------------------------------------------------------
# Indexed engine internals (vertex ids remapped to 0..n-1, ascending)
# ---------------------------------------------------------------------------


# one search job: rows, sorted ids, prefix, whether paths are wanted, and the
# indices with an arc into the start
SearchJob = tuple[IndexedAdjacency, list[VertexId], tuple[int, ...], bool, frozenset[int]]


def _obots_run(job: SearchJob) -> tuple[int, int, list[tuple[VertexId, ...]], int, int]:
    """Depth-first expansion from the job's prefix; ``~v`` frames undo path state.

    Returns (loops, breadth, paths, HP, HC) for the explored subtree, counting
    one loop for the prefix itself.  Each wanted path is kept as a vertex
    tuple, mapped where it is found.  A Hamiltonian path visits every vertex
    once; it is also a cycle when its end has an arc back to the start.
    """
    adj, ids, prefix, want_paths, closers = job
    span = len(adj)
    occ = [0] * span
    path = list(prefix[:-1])
    for v in path:
        occ[v] += 1
    loops = breadth = hp = hc = 0
    paths: list[tuple[VertexId, ...]] = []
    keep = paths.append
    stack = [prefix[-1]]
    push = stack.append
    pop = stack.pop
    while stack:
        v = pop()
        if v < 0:
            path.pop()
            occ[~v] -= 1
            continue
        path.append(v)
        occ[v] += 1
        loops += 1
        push(~v)
        extended = False
        for w, weight in adj[v]:
            if weight > occ[w]:
                push(w)
                extended = True
        if not extended:
            breadth += 1
            if want_paths:
                keep(tuple(map(ids.__getitem__, path)))
            if len(path) == span and len(set(path)) == span:
                hp += 1
                if v in closers:
                    hc += 1
    return loops, breadth, paths, hp, hc


def _search(
    g: MultiTraversalRelation,
    start: VertexId,
    counts_only: bool,
    threads: int,
) -> tuple[TraversalResult, HamiltonStats]:
    if start not in g.vertices:
        raise DomainError(f"start vertex {start} is not on the instance")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    ids, index, adj = g.index_view
    root = index[start]
    # closure is judged on the full stored relation, weights untouched
    closers = frozenset(index[t] for t, h in g.arcs if h == start != t)
    want_paths = not counts_only
    if threads > 1 and adj[root]:
        # the root is on the path once and self-loops are absent from adj, so
        # every stored out-arc of the start is an open child.  The serial LIFO
        # stack expands the highest child first, so the children are mapped
        # in descending order and merged in that order.
        jobs = [(adj, ids, (root, w), want_paths, closers) for w, _ in reversed(adj[root])]
        # under fork every worker starts up front, so never start more than jobs
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            parts = list(pool.map(_obots_run, jobs))
        loops = 1  # the root itself
    else:
        parts = [_obots_run((adj, ids, (root,), want_paths, closers))]
        loops = 0
    collected: list[SearchPath] = []
    breadth = hp = hc = 0
    for sub_loops, sub_breadth, paths, sub_hp, sub_hc in parts:
        loops += sub_loops
        breadth += sub_breadth
        hp += sub_hp
        hc += sub_hc
        collected.extend(map(SearchPath, paths))

    result = TraversalResult(
        paths=tuple(collected),
        loop_count=loops,
        breadth=breadth,
        disconnected=not is_connected(g),
    )
    return result, HamiltonStats(hamiltonian_paths=hp, hamiltonian_cycles=hc)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def obots_search(
    g: MultiTraversalRelation,
    start: VertexId,
    *,
    counts_only: bool = False,
    threads: int = 1,
) -> TraversalResult:
    """Occurrence-counting exhaustive search from ``start``.

    The result keeps every maximal path, in the serial order; with
    ``counts_only`` it keeps loop and breadth counters but no paths.
    ``threads`` > 1 searches the root's subtrees in at most ``threads``
    parallel processes, one per subtree at most, and merges their paths in
    the serial order.  ``threads`` < 1 raises :class:`DomainError`.
    """
    result, _ = _search(g, start, counts_only, threads)
    return result


def hamilton_stats(
    result: TraversalResult, g: MultiTraversalRelation, start: VertexId
) -> HamiltonStats:
    """Tally spanning maximal paths and the subset closing back to ``start``.

    Every maximal path visiting each vertex exactly once counts as a
    Hamiltonian path; those whose final vertex has an arc back to the start
    additionally count as Hamiltonian cycles.  A result missing any of its
    ``breadth`` paths, as a counts-only one does, raises :class:`DomainError`.
    """
    if len(result.paths) != result.breadth:
        raise DomainError("hamilton_stats needs every path retained; use search_report instead")
    n = g.n
    hp = hc = 0
    for path in result.paths:
        verts = path.vertices
        if len(verts) == n and len(set(verts)) == n:
            hp += 1
            if verts[-1] != start and g.multiplicity(verts[-1], start) > 0:
                hc += 1
    return HamiltonStats(hamiltonian_paths=hp, hamiltonian_cycles=hc)


def search_report(
    g: MultiTraversalRelation,
    start: VertexId,
    *,
    threads: int = 1,
) -> tuple[TraversalResult, HamiltonStats]:
    """Counts-only search plus streaming Hamilton tallies; safe for huge breadths."""
    return _search(g, start, True, threads)


def traversal_invariant(g: MultiTraversalRelation) -> dict[VertexId, int]:
    """Hamiltonian-cycle count per start vertex; the counts agree on any instance.

    Requires a connected simple instance.  Rotating any Hamiltonian cycle
    re-roots it at every vertex, so each start sees the same number of them;
    the shared count is the instance's traversal invariant.
    """
    if classify(g) is not GraphClass.SIMPLE:
        raise DomainError("traversal invariant is defined on simple instances")
    if not is_connected(g):
        raise DomainError("traversal invariant needs a connected instance")
    counts: dict[VertexId, int] = {}
    for start in sorted(g.vertices):
        _, stats = search_report(g, start)
        counts[start] = stats.hamiltonian_cycles
    return counts
