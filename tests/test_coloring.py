"""Heuristics, interval layouts and oracles."""

from __future__ import annotations

import hashlib
import sys

import pytest

from relgraph import (
    Coloring,
    DomainError,
    MultiTraversalRelation,
    SizeLimitError,
    bogpc,
    boerc,
    check_vbar_proposition,
    chromatic_oracle,
    enumerate_mcivs,
    gen_complete,
    gen_cycle,
    gen_cycle_sequence,
    gen_dodecahedron,
    gen_grid,
    gen_path,
    max_degree,
    random_relabel,
    verify_coloring,
)

import relgraph.coloring
from conftest import (
    brute_chromatic,
    layered_bogpc,
    petersen,
    random_connected_multigraph,
    random_connected_symmetric,
    random_cubic,
)


def sym(*edges: tuple[int, int]) -> MultiTraversalRelation:
    arcs = [(u, v, 1) for u, v in edges] + [(v, u, 1) for u, v in edges]
    return MultiTraversalRelation.from_arcs(arcs)


def star(leaf_count: int) -> MultiTraversalRelation:
    centre = leaf_count + 1
    return sym(*[(leaf, centre) for leaf in range(1, leaf_count + 1)])


def seeded_digest(algo, g: MultiTraversalRelation, seeds: range) -> str:
    """SHA-256 over each seed's colours, one line per seed in vertex order."""
    h = hashlib.sha256()
    verts = sorted(g.vertices)
    for seed in seeds:
        assignment = algo(g, seed).assignment
        h.update((",".join(str(assignment[v]) for v in verts) + "\n").encode())
    return h.hexdigest()


class TestVerify:
    def test_proper_triangle(self):
        g = gen_complete(3)
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 2: 2, 3: 3})) == 1
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 2: 1, 3: 2})) == 0

    def test_non_adjacent_pair_may_share(self):
        g = sym((1, 2), (2, 3))
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 3: 1, 2: 2})) == 1

    def test_k_counts_distinct_colours(self):
        colouring = Coloring.from_assignment({1: 1, 2: 3, 3: 1})
        assert colouring == Coloring(assignment={1: 1, 2: 3, 3: 1}, k=2)

    def test_partial_assignment_rejected(self):
        with pytest.raises(DomainError):
            verify_coloring(gen_complete(3), Coloring.from_assignment({1: 1, 2: 2}))


class TestHeuristics:
    def test_bogpc_even_cycle_two_colours(self):
        g = gen_cycle(6)
        assert all(bogpc(g, s).k == 2 for s in range(60))

    def test_bogpc_clique(self):
        assert bogpc(gen_complete(4), 3).k == 4

    def test_bogpc_dodecahedron_window(self):
        g = gen_dodecahedron()
        ks = {bogpc(g, s).k for s in range(120)}
        assert ks <= {3, 4}
        assert 3 in ks

    def test_boerc_dodecahedron_window(self):
        g = gen_dodecahedron()
        ks = {boerc(g, s).k for s in range(120)}
        assert ks <= {3, 4}
        assert 3 in ks

    def test_boerc_odd_cycle(self):
        g = gen_cycle(5)
        assert {boerc(g, s).k for s in range(60)} == {3}

    def test_boerc_star_palette_window(self):
        # leaves carry at most the centre's record, so only the centre can ever
        # exhaust the starting palette: runs land on 2 or 3 colours and both occur
        g = star(5)
        ks = {boerc(g, s).k for s in range(200)}
        assert ks == {2, 3}

    def test_soundness_and_precision(self, rnd):
        instances = [gen_cycle(n) for n in range(4, 10)]
        instances += [gen_complete(4), gen_dodecahedron(), gen_grid(3, 3), petersen()]
        for g in instances:
            bound = max_degree(g) + 1
            for s in range(25):
                for algo in (bogpc, boerc):
                    colouring = algo(g, s)
                    assert verify_coloring(g, colouring) == 1
                    assert colouring.k <= bound
                    assert set(colouring.assignment) == g.vertices

    def test_determinism(self):
        g = gen_dodecahedron()
        assert bogpc(g, 11).assignment == bogpc(g, 11).assignment
        assert boerc(g, 11).assignment == boerc(g, 11).assignment

    # the seeds pin each heuristic's seeded draw sequence across versions,
    # which the k-window tests above cannot see; the 30x40 grid and cycleseq(9, 4)
    # grow classes over enough passes to exercise bogpc's ring updates
    @pytest.mark.parametrize("algo, make, seeds, digest", [
        (bogpc, gen_dodecahedron, range(40),
         "0c548594d038175b1318bca584aaaf1a1e88c5dc6f0f95fceab65020ecbb159d"),
        (boerc, gen_dodecahedron, range(40),
         "68ffeb2adfd858d0b7cbfdce5334e3a30838416fb576dccc8082d00e95df22ad"),
        (bogpc, lambda: random_relabel(gen_grid(7, 8), 1), range(40),
         "c4aeb020c3f8261965724218bfa7b33f22fe3719fe1d85b3118d74d8120153cc"),
        (boerc, lambda: random_relabel(gen_grid(7, 8), 1), range(40),
         "01f0eb2f56750811763810b18652c03834e66da3f89b07daf41e048a2948cdca"),
        (bogpc, lambda: random_relabel(gen_grid(30, 40), 1), range(10),
         "3cb5f2fd607863cdfb8c78bfc759937b10a50b5426e4caf89c5a8e629195246c"),
        (bogpc, lambda: gen_cycle_sequence(9, 4), range(40),
         "b214f4a439dc17eff390679dd011437aeb31f7be2854df8e23a36b4f2a58eac8"),
    ], ids=["bogpc-dodecahedron", "boerc-dodecahedron", "bogpc-grid", "boerc-grid",
            "bogpc-grid-30x40", "bogpc-cycleseq-9-4"])
    def test_seeded_assignments_pinned(self, algo, make, seeds, digest):
        assert seeded_digest(algo, make(), seeds) == digest

    def test_bogpc_equals_layered_route(self, rnd):
        # the ring updates against a full re-layering after every pass
        cases = [(random_connected_symmetric(rnd), s) for s in range(80)]
        cases += [(random_connected_multigraph(rnd, max_n=12, max_weight=3), s) for s in range(80)]
        cases += [(random_relabel(gen_grid(rows, 9), s), s) for rows in (2, 5, 8, 11) for s in range(10)]
        for g, seed in cases:
            assert bogpc(g, seed) == layered_bogpc(g, seed)

    @pytest.mark.parametrize("make", [lambda: random_relabel(gen_grid(30, 40), 1), gen_dodecahedron],
                             ids=["grid-30x40", "dodecahedron"])
    def test_bogpc_lays_out_once_per_class(self, monkeypatch, make):
        g = make()
        real = relgraph.coloring.layer_adjacency
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(relgraph.coloring, "layer_adjacency", counted)
        for seed in range(3):
            calls.clear()
            colouring = bogpc(g, seed)
            assert len(calls) == colouring.k

    def test_rejects_disconnected(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (2, 1), (3, 4), (4, 3)])
        for algo in (bogpc, boerc):
            with pytest.raises(DomainError):
                algo(g, 0)


class TestExact:
    def test_walk_yields_layouts_lazily_in_order(self):
        # the walk order decides check_vbar_proposition's witness and demo 06
        walk = enumerate_mcivs(gen_cycle(5))
        assert iter(walk) is walk
        assert [(p.classes, p.remainder) for p in walk] == [
            ((frozenset({1, 3}), frozenset({2, 4})), frozenset({5})),
            ((frozenset({1, 3}), frozenset({2, 5})), frozenset({4})),
            ((frozenset({1, 4}), frozenset({2, 5})), frozenset({3})),
            ((frozenset({1, 4}), frozenset({3, 5})), frozenset({2})),
            ((frozenset({2, 4}), frozenset({3, 5})), frozenset({1})),
        ]

    def test_four_cycle_contains_bipartition(self):
        layouts = tuple(enumerate_mcivs(gen_cycle(4)))
        best = [p for p in layouts if p.bound == 2]
        assert best
        assert any(
            set(p.classes) == {frozenset({1, 3}), frozenset({2, 4})} and not p.remainder
            for p in best
        )
        assert min(p.bound for p in enumerate_mcivs(gen_cycle(4))) == 2

    def test_odd_cycle_needs_a_leftover(self):
        layouts = tuple(enumerate_mcivs(gen_cycle(5)))
        best = [p for p in layouts if p.bound == 3]
        assert best and all(len(p.remainder) == 1 and len(p.classes) == 2 for p in best)

    def test_even_cycle_clean_split(self):
        best = [p for p in enumerate_mcivs(gen_cycle(6)) if p.bound == 2]
        assert best and all(not p.remainder for p in best)

    def test_clique_only_degenerate_layout(self):
        layouts = tuple(enumerate_mcivs(gen_complete(4)))
        assert len(layouts) == 1
        assert layouts[0].classes == ()
        assert layouts[0].remainder == {1, 2, 3, 4}

    def test_no_duplicate_layouts(self):
        layouts = tuple(enumerate_mcivs(gen_cycle(6)))
        canon = {(p.classes, p.remainder) for p in layouts}
        assert len(canon) == len(layouts)
        for p in layouts:
            minima = [min(c) for c in p.classes]
            assert all(a < b for a, b in zip(minima, minima[1:]))

    def test_size_refusals(self):
        with pytest.raises(SizeLimitError, match="n <= 12, instance has 13; pass --force"):
            enumerate_mcivs(gen_cycle(13))
        with pytest.raises(SizeLimitError, match="n <= 12, instance has 20; pass --force"):
            chromatic_oracle(gen_dodecahedron())

    def test_force_lifts_enumeration_cap(self):
        # K13 has a single layout, so lifting the cap costs nothing
        (layout,) = enumerate_mcivs(gen_complete(13), force=True)
        assert layout.bound == 13
        assert chromatic_oracle(gen_complete(13), force=True) == 13

    def test_depth_limit_outranks_force(self):
        # both routes recurse once per vertex: past half the recursion limit they
        # refuse, whatever force says, instead of dying with RecursionError
        g = gen_path(1100)
        for route in (enumerate_mcivs, chromatic_oracle):
            with pytest.raises(DomainError, match="recurses once per vertex.*instance has 1100") as refusal:
                route(g, force=True)
            assert type(refusal.value) is DomainError  # not a size cap that --force lifts
        n = sys.getrecursionlimit() // 2
        assert next(enumerate_mcivs(gen_path(n), force=True)).bound == 2
        assert chromatic_oracle(gen_path(n), force=True) == 2

    @pytest.mark.parametrize("make, expect", [
        (lambda: gen_cycle(5), 3),
        (lambda: gen_cycle(6), 2),
        (lambda: gen_complete(4), 4),
        (petersen, 3),
    ])
    def test_oracle_known_values(self, make, expect):
        assert chromatic_oracle(make()) == expect

    def test_oracle_against_exhaustive(self, rnd):
        for _ in range(12):
            g = random_connected_symmetric(rnd, max_n=6)
            assert chromatic_oracle(g) == brute_chromatic(g)

    def test_lower_bound_meets_oracle(self, rnd):
        corpus = [gen_cycle(n) for n in range(4, 9)] + [gen_complete(4), gen_grid(2, 3)]
        corpus += [random_connected_symmetric(rnd, max_n=8) for _ in range(6)]
        for g in corpus:
            assert min(p.bound for p in enumerate_mcivs(g)) == chromatic_oracle(g)


class TestProposition:
    def test_cycles(self):
        holds5, witness5 = check_vbar_proposition(gen_cycle(5))
        assert holds5 is True and len(witness5.remainder) == 1
        holds6, witness6 = check_vbar_proposition(gen_cycle(6))
        assert holds6 is True and len(witness6.remainder) == 0
        # n at the cap: the walk stops at the first witness, the bipartition
        holds12, witness12 = check_vbar_proposition(gen_cycle(12))
        assert holds12 is True and not witness12.remainder
        assert witness12.classes == (frozenset(range(1, 13, 2)), frozenset(range(2, 13, 2)))

    def test_inapplicable_shapes(self):
        assert check_vbar_proposition(gen_complete(4)) == (None, None)  # m = n - 1
        assert check_vbar_proposition(gen_grid(2, 3)) == (None, None)  # mixed degrees

    def test_cubic_samples(self, rnd):
        # reported-only probe: record the outcome, assert only well-formedness
        for n in (8, 10):
            g = random_cubic(rnd, n)
            holds, witness = check_vbar_proposition(g)
            assert holds in (True, False)
            if holds:
                assert len(witness.remainder) <= 1
