"""Search engine tests: counts, bounds, equivalence, Hamilton tallies."""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import math
import random

import pytest

from relgraph import (
    DomainError,
    MultiTraversalRelation,
    gen_complete,
    gen_cycle,
    gen_dodecahedron,
    gen_path,
    hamilton_stats,
    obots_search,
    relabel,
    search_report,
    traversal_invariant,
)

from conftest import bots_search, brute_spanning_paths, random_connected_multigraph


class TestSearchCounts:
    def test_k5_table_row(self):
        res = obots_search(gen_complete(5), 1, counts_only=True)
        assert (res.loop_count, res.breadth) == (65, 24)

    def test_k3_by_series_and_engine(self):
        loops, paths = bots_search(gen_complete(3), 1)
        assert (loops, len(paths)) == (1 + 2 + 2, 2)
        res = obots_search(gen_complete(3), 1)
        assert (res.loop_count, res.breadth) == (1 + 2 + 2, 2)

    def test_directed_path_single_result(self):
        res = obots_search(gen_path(3), 1)
        assert [p.vertices for p in res.paths] == [(1, 2, 3)]
        assert res.loop_count == 3

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete_closed_forms(self, n):
        res = obots_search(gen_complete(n), 1, counts_only=True)
        assert res.breadth == math.factorial(n - 1)
        assert res.loop_count == sum(math.perm(n - 1, k) for k in range(n))

    def test_deterministic_order(self):
        # children are pushed ascending onto a LIFO stack: highest id expands first
        res = obots_search(gen_complete(3), 1)
        assert [p.vertices for p in res.paths] == [(1, 3, 2), (1, 2, 3)]
        rerun = obots_search(gen_complete(3), 1)
        assert [p.vertices for p in rerun.paths] == [p.vertices for p in res.paths]

    def test_unknown_start(self):
        with pytest.raises(DomainError):
            obots_search(gen_cycle(4), 9)

    def test_disconnected_flag(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (2, 1), (3, 4), (4, 3)])
        res = obots_search(g, 1)
        assert res.disconnected
        assert [p.vertices for p in res.paths] == [(1, 2)]
        assert bots_search(g, 1) == (res.loop_count, [(1, 2)])

    def test_sink_and_counts_only(self):
        res = obots_search(gen_complete(4), 1, counts_only=True)
        assert res.paths == ()
        assert res.breadth == 6


class TestEngineEquivalence:
    def test_identical_on_random_instances(self, rnd):
        for i in range(60):
            g = random_connected_multigraph(rnd, max_n=7, max_weight=2)
            if i % 2:
                # sparse ids, whose set order is not their sorted order
                g = relabel(g, {v: 7 * v * v + 3 for v in g.vertices})
            start = min(g.vertices)
            res = obots_search(g, start)
            assert res.breadth == len(res.paths)
            assert bots_search(g, start) == (res.loop_count, [p.vertices for p in res.paths])

    def test_occurrence_and_length_bounds(self, rnd):
        # per-vertex visits never exceed the largest weight entering the vertex,
        # and path length never exceeds the sum of those maxima (the start gets
        # one free appearance when nothing points at it)
        for _ in range(40):
            g = random_connected_multigraph(rnd, max_n=6, max_weight=3)
            start = min(g.vertices)
            caps: dict[int, int] = {}
            for (tail, head), w in g.arcs.items():
                if tail != head:
                    caps[head] = max(caps.get(head, 0), w)
            limit = sum(caps.values()) + (1 if caps.get(start, 0) == 0 else 0)
            res = obots_search(g, start)
            for path in res.paths:
                assert len(path.vertices) <= limit
                for v, count in collections.Counter(path.vertices).items():
                    if v == start:
                        assert count <= max(1, caps.get(v, 0))
                    else:
                        assert count <= caps.get(v, 0)

    def test_self_loop_never_traversed(self, rnd):
        for _ in range(25):
            g0 = random_connected_multigraph(rnd, max_n=6, max_weight=2)
            arcs = [(t, h, w) for (t, h), w in g0.arcs.items() if t != h]
            base = MultiTraversalRelation.from_arcs(arcs)
            v = min(base.vertices)
            looped = MultiTraversalRelation.from_arcs(arcs + [(v, v, 2)])
            a = obots_search(base, v)
            b = obots_search(looped, v)
            assert a.loop_count == b.loop_count
            assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]


class TestParallel:
    def test_parallel_matches_serial(self):
        g = gen_complete(6)
        serial = obots_search(g, 1)
        par = obots_search(g, 1, threads=4)
        assert (serial.loop_count, serial.breadth) == (par.loop_count, par.breadth)
        assert [p.vertices for p in serial.paths] == [p.vertices for p in par.paths]

    def test_parallel_bots_and_reports(self):
        g = gen_cycle(6)
        a = obots_search(g, 2, threads=2)
        assert bots_search(g, 2) == (a.loop_count, [p.vertices for p in a.paths])
        rs, ss = search_report(g, 2)
        rp, sp = search_report(g, 2, threads=3)
        assert (rs.loop_count, rs.breadth, ss.hamiltonian_paths, ss.hamiltonian_cycles) == (
            rp.loop_count, rp.breadth, sp.hamiltonian_paths, sp.hamiltonian_cycles)

    def test_parallel_sink_under_counts_only(self):
        g = gen_complete(5)
        serial = obots_search(g, 1, counts_only=True)
        res = obots_search(g, 1, counts_only=True, threads=2)
        assert res.paths == ()
        assert res.breadth == 24
        assert res.loop_count == serial.loop_count

    def test_parallel_sink_order_with_paths(self):
        g = gen_dodecahedron()
        res = obots_search(g, 3, threads=2)
        assert [p.vertices for p in res.paths] == [p.vertices for p in obots_search(g, 3).paths]

    def test_parallel_matches_serial_on_sparse_ids(self):
        # workers map their paths to ids themselves, so ids far from 0..n-1 must survive
        g = relabel(gen_dodecahedron(), {v: 10 * v for v in range(1, 21)})
        a = obots_search(g, 30)
        b = obots_search(g, 30, threads=2)
        assert a == b
        assert all(v % 10 == 0 for p in a.paths for v in p.vertices)

    def test_childless_start(self):
        g = gen_path(3)
        res = obots_search(g, 3, threads=2)
        assert (res.loop_count, res.breadth) == (1, 1)
        assert [p.vertices for p in res.paths] == [(3,)]

    def test_pool_never_larger_than_its_jobs(self, monkeypatch):
        # under fork every worker starts up front, so the pool is sized to the
        # root's children; the stand-in pool records the size and maps in-process
        sizes: list[int] = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return list(map(fn, jobs))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        g = gen_cycle(6)
        par = obots_search(g, 1, threads=64)
        assert [p.vertices for p in par.paths] == [p.vertices for p in obots_search(g, 1).paths]
        rp, sp = search_report(gen_dodecahedron(), 1, threads=64)
        assert (rp.breadth, sp.hamiltonian_paths, sp.hamiltonian_cycles) == (3120, 162, 60)
        obots_search(gen_complete(5), 1, threads=2)
        assert sizes == [2, 3, 2]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        g = gen_complete(4)
        with pytest.raises(DomainError):
            obots_search(g, 1, threads=threads)
        with pytest.raises(DomainError):
            search_report(g, 1, threads=threads)


class TestHamilton:
    def test_k4_all_leaves_close(self):
        g = gen_complete(4)
        res = obots_search(g, 1)
        stats = hamilton_stats(res, g, 1)
        # every one of the (n-1)! spanning paths closes on a complete graph
        assert stats.hamiltonian_paths == 6
        assert stats.hamiltonian_cycles == 6
        assert brute_spanning_paths(g, 1) == (6, 6)

    def test_dodecahedron_row(self):
        g = gen_dodecahedron()
        res, stats = search_report(g, 1)
        assert res.breadth == 3120
        assert res.loop_count == 12538
        assert (stats.hamiltonian_paths, stats.hamiltonian_cycles) == (162, 60)
        assert stats.undirected_cycle_count == 30

    def test_matches_brute_force(self, rnd):
        for _ in range(20):
            n = rnd.randint(3, 7)
            g = gen_cycle(n) if rnd.random() < 0.3 else random_connected_multigraph(rnd, 7, 1)
            start = min(g.vertices)
            _, stats = search_report(g, start)
            spanning, closing = brute_spanning_paths(g, start)
            assert (stats.hamiltonian_paths, stats.hamiltonian_cycles) == (spanning, closing)

    def test_counts_only_guard(self):
        g = gen_cycle(4)
        res = obots_search(g, 1, counts_only=True)
        with pytest.raises(DomainError):
            hamilton_stats(res, g, 1)
        # a result missing any of its breadth paths is refused the same way
        res = obots_search(g, 1)
        with pytest.raises(DomainError):
            hamilton_stats(dataclasses.replace(res, paths=res.paths[:-1]), g, 1)

    def test_self_loop_does_not_close(self):
        # a lone vertex is a Hamiltonian path, but its self-loop is no closing arc
        g = MultiTraversalRelation.from_arcs([(1, 1)])
        res, stats = search_report(g, 1)
        assert (res.breadth, stats.hamiltonian_paths, stats.hamiltonian_cycles) == (1, 1, 0)
        assert hamilton_stats(obots_search(g, 1), g, 1) == stats

    def test_stats_agree_with_collected(self, rnd):
        g = gen_cycle(5)
        res = obots_search(g, 2)
        _, streamed = search_report(g, 2)
        assert hamilton_stats(res, g, 2) == streamed
        # weights of 2 give paths of length n that repeat a vertex; the
        # streaming tally must not count them as Hamiltonian
        repeats = 0
        for i in range(60):
            g = random_connected_multigraph(rnd, 7, 2)
            start = min(g.vertices)
            res = obots_search(g, start)
            repeats += any(len(p) == g.n > len(set(p.vertices)) for p in res.paths)
            _, streamed = search_report(g, start, threads=2 if i % 20 == 0 else 1)
            assert hamilton_stats(res, g, start) == streamed
        assert repeats


class TestInvariant:
    def test_cycle_both_directions(self):
        assert traversal_invariant(gen_cycle(5)) == {v: 2 for v in range(1, 6)}

    def test_complete_graph(self):
        assert traversal_invariant(gen_complete(4)) == {v: 6 for v in range(1, 5)}

    def test_rejects_non_simple(self):
        with pytest.raises(DomainError):
            traversal_invariant(gen_path(3))

    def test_rejects_disconnected(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (2, 1), (3, 4), (4, 3)])
        with pytest.raises(DomainError):
            traversal_invariant(g)
