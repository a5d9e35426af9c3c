"""Layered partition: region laws, BFS agreement, distance reads."""

from __future__ import annotations

import pytest

from relgraph import (
    DomainError,
    MultiTraversalRelation,
    gen_complete,
    gen_cycle,
    gen_grid,
    gen_path,
    obots_search,
    partition,
    region_distance,
)

from conftest import bfs_distances, random_connected_symmetric


class TestShapes:
    def test_complete_two_regions(self):
        r = partition(gen_complete(7), {1})
        assert r.sizes() == (1, 6)
        assert not r.stranded

    def test_cycle_layers(self):
        r = partition(gen_cycle(6), {1})
        assert r.sizes() == (1, 2, 2, 1)

    def test_directed_dead_end_strands(self):
        r = partition(gen_path(3), {3})
        assert r.sizes() == (1,)
        assert r.stranded == {1, 2}

    def test_multi_seed(self):
        r = partition(gen_cycle(6), {1, 4})
        assert r.sizes() == (2, 4)

    def test_dodecahedron_contours(self):
        from relgraph import gen_dodecahedron

        r = partition(gen_dodecahedron(), {1})
        assert r.sizes() == (1, 3, 6, 6, 3, 1)

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            partition(gen_cycle(4), set())
        with pytest.raises(DomainError):
            partition(gen_cycle(4), {9})
        with pytest.raises(DomainError):
            partition(gen_cycle(4), {1, 2, 3, 4})


class TestDistances:
    def test_cycle_distance(self):
        r = partition(gen_cycle(6), {1})
        assert region_distance(r, 4) == 3
        assert region_distance(r, 1) == 0

    def test_complete_distance(self):
        r = partition(gen_complete(5), {1})
        assert all(region_distance(r, v) == 1 for v in range(2, 6))

    def test_stranded_lookup_fails(self):
        r = partition(gen_path(3), {3})
        with pytest.raises(KeyError):
            region_distance(r, 1)

    def test_multi_seed_is_nearest(self):
        g = gen_grid(3, 3)
        seeds = {1, 9}
        r = partition(g, seeds)
        oracle = bfs_distances(g, sorted(seeds))
        for v in g.vertices:
            assert region_distance(r, v) == oracle[v]


class TestLaws:
    def test_bfs_equivalence_random(self, rnd):
        for _ in range(40):
            g = random_connected_symmetric(rnd, max_n=40)
            seed = min(g.vertices)
            r = partition(g, {seed})
            oracle = bfs_distances(g, [seed])
            assert not r.stranded
            for v in g.vertices:
                assert region_distance(r, v) == oracle[v]

    def test_no_forward_shortcuts(self, rnd):
        # an arc may climb at most one region (it may fall arbitrarily far)
        for _ in range(30):
            g = random_connected_symmetric(rnd, max_n=40)
            r = partition(g, {min(g.vertices)})
            level = {v: region_distance(r, v) for v in g.vertices}
            for tail, head in g.arcs:
                if tail != head:
                    assert level[head] - level[tail] <= 1

    def test_adjacent_region_linkage(self, rnd):
        # every non-seed vertex has an in-neighbour exactly one region below
        for _ in range(30):
            g = random_connected_symmetric(rnd, max_n=40)
            r = partition(g, {min(g.vertices)})
            level = {v: region_distance(r, v) for v in g.vertices}
            into = {v: [] for v in g.vertices}
            for tail, head in g.arcs:
                if tail != head:
                    into[head].append(tail)
            for v in g.vertices:
                if level[v] > 0:
                    assert any(level[u] == level[v] - 1 for u in into[v])

    def test_reverse_symmetry(self, rnd):
        # symmetric instances: distance u->v equals distance v->u
        for _ in range(15):
            g = random_connected_symmetric(rnd, max_n=25)
            vs = sorted(g.vertices)
            u, v = vs[0], vs[-1]
            du = partition(g, {u})
            dv = partition(g, {v})
            assert region_distance(du, v) == region_distance(dv, u)

    def test_paths_respect_region_gap(self):
        # any search path between regions i <= j needs at least j - i arcs
        g = gen_grid(2, 3)
        r = partition(g, {1})
        level = {v: region_distance(r, v) for v in g.vertices}
        res = obots_search(g, 1)
        for path in res.paths:
            seq = path.vertices
            for a in range(len(seq)):
                for b in range(a + 1, len(seq)):
                    gap = level[seq[b]] - level[seq[a]]
                    if gap >= 0:
                        assert b - a >= gap

    def test_self_loops_ignored(self, rnd):
        # a self-loop's head is already assigned, so loops never change a layering
        for _ in range(30):
            g = random_connected_symmetric(rnd, max_n=20)
            arcs = [(t, h, w) for (t, h), w in g.arcs.items()]
            looped_vertices = rnd.sample(sorted(g.vertices), k=max(1, g.n // 2))
            looped = MultiTraversalRelation.from_arcs(arcs + [(v, v, 2) for v in looped_vertices])
            seeds = set(rnd.sample(sorted(g.vertices), k=rnd.randint(1, g.n - 1)))
            assert partition(looped, seeds) == partition(g, seeds)
        directed = [(1, 2), (2, 3), (3, 4)]
        looped = MultiTraversalRelation.from_arcs(directed + [(v, v) for v in range(1, 5)])
        for seed in range(1, 5):
            assert partition(looped, {seed}) == partition(MultiTraversalRelation.from_arcs(directed), {seed})

    def test_directed_arcs_only_forward(self):
        # directed instance: region index still matches directed BFS layering
        g = MultiTraversalRelation.from_arcs([(1, 2), (2, 3), (3, 1), (1, 4), (4, 3)])
        r = partition(g, {1})
        assert r.sizes() == (1, 2, 1)
        assert region_distance(r, 3) == 2
