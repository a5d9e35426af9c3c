"""Exhaustive equivalent-visiting search.

The search enumerates every maximal path from a start vertex under the
equivalent-visiting discipline: each appearance of a vertex on the current
path consumes one unit of weight from every arc entering it, so the path can
be extended to a vertex only while some arc into it has weight left.
Self-loops are stored but never traversed.

``obots_search`` reads the relation's cached ``index_view`` (vertex ids
remapped to 0..n-1 in ascending order, with weighted out-rows and no
self-loops) and compares stored weights against per-path occurrence counts,
with no table copies.  ``bots_search`` is its serial reference: it realises
the discipline literally, copying the weight table for every pending path
and decrementing it arc by arc.  Both push children in ascending id order
onto a LIFO stack, so repeated runs are bit-identical and the two emit
identical path sequences.

One subtree search serves every mode of ``obots_search`` and
``search_report``: it collects or streams the paths and tallies Hamiltonian
paths and cycles as leaves are reached.  A serial search runs it once from
the start; with ``threads`` > 1 it runs in a process pool on each child of
the start, and the parts merge in the serial order.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Callable

from .core import (
    GraphClass,
    IndexedAdjacency,
    MultiTraversalRelation,
    VertexId,
    classify,
    is_connected,
)
from .errors import DomainError

PathSink = Callable[[tuple[VertexId, ...]], None]


@dataclass(frozen=True, slots=True)
class SearchPath:
    """A maximal path emitted by the search."""

    vertices: tuple[VertexId, ...]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class TraversalResult:
    """Outcome of one exhaustive search.

    ``loop_count`` is the number of partial paths popped and expanded, the
    root included; ``breadth`` is the number of maximal paths.  With
    ``counts_only`` the paths tuple is left empty.
    """

    paths: tuple[SearchPath, ...]
    loop_count: int
    breadth: int
    counts_only: bool = False
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


def _obots_run(
    adj: IndexedAdjacency,
    prefix: tuple[int, ...],
    emit: Callable[[list[int]], None] | None,
) -> tuple[int, int]:
    """Depth-first expansion from ``prefix``; ``~v`` frames undo path state.

    ``emit`` receives the live index path of each maximal path; callers copy
    if they keep it.  Returns (loops, breadth) for the explored subtree,
    counting one loop for the prefix itself.
    """
    occ = [0] * len(adj)
    path = list(prefix[:-1])
    for v in path:
        occ[v] += 1
    loops = 0
    breadth = 0
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
            if emit is not None:
                emit(path)
    return loops, breadth


def _bots_run(adj: IndexedAdjacency, root: int) -> tuple[int, list[tuple[int, ...]]]:
    """Literal table search: pop a path, rebuild the decremented table, scan.

    Returns the loop count and the maximal index paths in emission order.
    """
    arcs = {(t, h): w for t, row in enumerate(adj) for h, w in row}
    in_rows: list[list[int]] = [[] for _ in adj]
    for t, h in arcs:
        in_rows[h].append(t)

    loops = 0
    leaves: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(root,)]
    while stack:
        path = stack.pop()
        loops += 1
        table = dict(arcs)
        for v in path:  # one equivalent visit per appearance on the path
            for u in in_rows[v]:
                w = table[(u, v)]
                if w > 0:
                    table[(u, v)] = w - 1
        end = path[-1]
        extensions = [w for w, _ in adj[end] if table[(end, w)] > 0]
        if not extensions:
            leaves.append(path)
        else:
            stack.extend(path + (w,) for w in extensions)
    return loops, leaves


# one search job: rows, prefix, whether paths are wanted, and the indices
# with an arc into the start (None when Hamilton tallies are off)
SubtreeJob = tuple[IndexedAdjacency, tuple[int, ...], bool, frozenset[int] | None]


def _subtree(
    job: SubtreeJob, deliver: Callable[[tuple[int, ...]], None] | None = None
) -> tuple[int, int, list[tuple[int, ...]], int, int]:
    """Search one subtree; return (loops, breadth, paths, HP, HC).

    Wanted paths go to ``deliver`` as index tuples while the search runs.
    Without ``deliver``, as in a pool worker, they are returned instead.
    A Hamiltonian path visits every vertex once; it is also a cycle when its
    end has an arc back to the start.
    """
    adj, prefix, want_paths, closers = job
    paths: list[tuple[int, ...]] = []
    if deliver is None:
        deliver = paths.append
    span = len(adj)
    hp = hc = 0

    def emit(path) -> None:
        nonlocal hp, hc
        if want_paths:
            deliver(tuple(path))
        if closers is not None and len(path) == span and len(set(path)) == span:
            hp += 1
            if path[-1] in closers:
                hc += 1

    on_leaf = emit if (want_paths or closers is not None) else None
    loops, breadth = _obots_run(adj, prefix, on_leaf)
    return loops, breadth, paths, hp, hc


def _search(
    g: MultiTraversalRelation,
    start: VertexId,
    sink: PathSink | None,
    counts_only: bool,
    threads: int,
    hamilton: bool,
) -> tuple[TraversalResult, HamiltonStats]:
    if start not in g.vertices:
        raise DomainError(f"start vertex {start} is not on the instance")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    ids, index, adj = g.index_view
    root = index[start]
    closers = None
    if hamilton:
        # closure is judged on the full stored relation, weights untouched
        closers = frozenset(index[t] for t in g.in_adjacency.get(start, ()) if t != start)
    collected: list[SearchPath] = []

    def deliver(path: tuple[int, ...]) -> None:
        vertices = tuple(ids[i] for i in path)
        if not counts_only:
            collected.append(SearchPath(vertices))
        if sink is not None:
            sink(vertices)

    want_paths = sink is not None or not counts_only
    if threads > 1 and adj[root]:
        # the root is on the path once and self-loops are absent from adj, so
        # every stored out-arc of the start is an open child.  The serial LIFO
        # stack expands the highest child first, so the children are mapped
        # in descending order and merged in that order.
        jobs = [(adj, (root, w), want_paths, closers) for w, _ in reversed(adj[root])]
        # under fork every worker starts up front, so never start more than jobs
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            parts = list(pool.map(_subtree, jobs))
        loops = 1  # the root itself
    else:
        parts = [_subtree((adj, (root,), want_paths, closers), deliver)]
        loops = 0
    breadth = hp = hc = 0
    for sub_loops, sub_breadth, paths, sub_hp, sub_hc in parts:
        loops += sub_loops
        breadth += sub_breadth
        hp += sub_hp
        hc += sub_hc
        for path in paths:
            deliver(path)

    result = TraversalResult(
        paths=tuple(collected),
        loop_count=loops,
        breadth=breadth,
        counts_only=counts_only,
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
    sink: PathSink | None = None,
    counts_only: bool = False,
    threads: int = 1,
) -> TraversalResult:
    """Occurrence-counting exhaustive search from ``start``.

    ``sink`` receives each maximal path as a vertex tuple; with
    ``counts_only`` the result keeps loop and breadth counters but no paths.
    A serial search feeds the sink as paths are found.  ``threads`` > 1
    searches the root's subtrees in at most ``threads`` parallel processes,
    one per subtree at most, and delivers their paths after the merge, in
    the serial order.  ``threads`` < 1 raises :class:`DomainError`.
    """
    result, _ = _search(g, start, sink, counts_only, threads, hamilton=False)
    return result


def bots_search(g: MultiTraversalRelation, start: VertexId) -> TraversalResult:
    """Table-copying exhaustive search, the serial reference for :func:`obots_search`.

    Keeps every path; the result equals ``obots_search(g, start)`` in every
    field.
    """
    if start not in g.vertices:
        raise DomainError(f"start vertex {start} is not on the instance")
    ids, index, adj = g.index_view
    loops, leaves = _bots_run(adj, index[start])
    paths = tuple(SearchPath(tuple(ids[i] for i in leaf)) for leaf in leaves)
    return TraversalResult(paths, loops, len(paths), disconnected=not is_connected(g))


def hamilton_stats(
    result: TraversalResult, g: MultiTraversalRelation, start: VertexId
) -> HamiltonStats:
    """Tally spanning maximal paths and the subset closing back to ``start``.

    Every maximal path visiting each vertex exactly once counts as a
    Hamiltonian path; those whose final vertex has an arc back to the start
    additionally count as Hamiltonian cycles.
    """
    if result.counts_only:
        raise DomainError("hamilton_stats needs retained paths; use search_report instead")
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
    return _search(g, start, None, True, threads, hamilton=True)


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
