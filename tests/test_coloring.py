"""OPERS, heuristics, interval layouts and oracles."""

from __future__ import annotations

import pytest

from relgraph import (
    Coloring,
    DomainError,
    MultiTraversalRelation,
    SizeLimitError,
    bogpc,
    boerc,
    build_opers,
    check_vbar_proposition,
    chromatic_oracle,
    enumerate_mcivs,
    gen_complete,
    gen_cycle,
    gen_dodecahedron,
    gen_grid,
    is_civs,
    max_degree,
    mcivs_lower_bound,
    verify_coloring,
)

from conftest import brute_chromatic, petersen, random_connected_symmetric, random_cubic


def sym(*edges: tuple[int, int]) -> MultiTraversalRelation:
    arcs = [(u, v, 1) for u, v in edges] + [(v, u, 1) for u, v in edges]
    return MultiTraversalRelation.from_arcs(arcs)


def star(leaf_count: int) -> MultiTraversalRelation:
    centre = leaf_count + 1
    return sym(*[(leaf, centre) for leaf in range(1, leaf_count + 1)])


class TestOpers:
    def test_triangle_forward_order(self):
        opers = build_opers(gen_complete(3), (1, 2, 3))
        assert opers.subgraphs[1].leaves == {2, 3}
        assert opers.subgraphs[2].leaves == {3}
        assert 3 not in opers.subgraphs
        assert opers.empty_set == {3}

    def test_path_with_middle_first(self):
        opers = build_opers(sym((1, 2), (2, 3)), (2, 1, 3))
        assert opers.subgraphs[2].leaves == {1, 3}
        assert opers.empty_set == {1, 3}

    def test_edge_conservation_any_order(self, rnd):
        for _ in range(25):
            g = random_connected_symmetric(rnd, max_n=15)
            edges = {(min(t, h), max(t, h)) for t, h in g.arcs if t != h}
            order = sorted(g.vertices)
            rnd.shuffle(order)
            opers = build_opers(g, order)
            rebuilt = set()
            for root, sub in opers.subgraphs.items():
                for leaf in sub.leaves:
                    pair = (min(root, leaf), max(root, leaf))
                    assert pair not in rebuilt  # each edge charged exactly once
                    rebuilt.add(pair)
            assert rebuilt == edges
            assert len(opers.subgraphs) < len(order)

    def test_empty_set_is_independent(self, rnd):
        for _ in range(25):
            g = random_connected_symmetric(rnd, max_n=15)
            order = sorted(g.vertices)
            rnd.shuffle(order)
            lam_e = build_opers(g, order).empty_set
            if len(lam_e) >= 2:
                assert is_civs(g, lam_e) == 1

    def test_requires_permutation(self):
        g = gen_complete(3)
        with pytest.raises(DomainError):
            build_opers(g, (1, 2))
        with pytest.raises(DomainError):
            build_opers(g, (1, 2, 2))

    def test_within_class_permutation_invariance(self):
        # swapping the two non-adjacent roots of a leading independent class
        # leaves every edge subgraph unchanged
        g = gen_cycle(4)
        a = build_opers(g, (1, 3, 2, 4))
        b = build_opers(g, (3, 1, 2, 4))
        assert a.subgraphs == b.subgraphs

    def test_invariance_on_dodecahedron(self):
        g = gen_dodecahedron()
        colouring = next(c for c in (bogpc(g, s) for s in range(200)) if c.k == 3)
        classes = [sorted(cls) for _, cls in sorted(colouring.classes.items())]
        tail = [v for cls in classes[1:] for v in cls]
        first = classes[0]
        a = build_opers(g, tuple(first) + tuple(tail))
        swapped = [first[1], first[0]] + first[2:]
        b = build_opers(g, tuple(swapped) + tuple(tail))
        assert a.subgraphs == b.subgraphs


class TestVerify:
    def test_proper_triangle(self):
        g = gen_complete(3)
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 2: 2, 3: 3})) == 1
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 2: 1, 3: 2})) == 0

    def test_non_adjacent_pair_may_share(self):
        g = sym((1, 2), (2, 3))
        assert verify_coloring(g, Coloring.from_assignment({1: 1, 3: 1, 2: 2})) == 1

    def test_partial_assignment_rejected(self):
        with pytest.raises(DomainError):
            verify_coloring(gen_complete(3), Coloring.from_assignment({1: 1, 2: 2}))


class TestCivs:
    def test_examples(self):
        g = gen_cycle(4)
        assert is_civs(g, {1, 3}) == 1
        assert is_civs(g, {1}) == 0
        assert is_civs(g, {1, 2}) == 0

    def test_stray_vertex_rejected(self):
        with pytest.raises(DomainError):
            is_civs(gen_cycle(4), {1, 3, 99})


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

    def test_rejects_disconnected(self):
        g = MultiTraversalRelation.from_arcs([(1, 2), (2, 1), (3, 4), (4, 3)])
        for algo in (bogpc, boerc):
            with pytest.raises(DomainError):
                algo(g, 0)


class TestExact:
    def test_four_cycle_contains_bipartition(self):
        layouts = enumerate_mcivs(gen_cycle(4))
        best = [p for p in layouts if p.bound == 2]
        assert best
        assert any(
            set(p.classes) == {frozenset({1, 3}), frozenset({2, 4})} and not p.remainder
            for p in best
        )
        assert mcivs_lower_bound(gen_cycle(4)) == 2

    def test_odd_cycle_needs_a_leftover(self):
        layouts = enumerate_mcivs(gen_cycle(5))
        best = [p for p in layouts if p.bound == 3]
        assert best and all(len(p.remainder) == 1 and len(p.classes) == 2 for p in best)

    def test_even_cycle_clean_split(self):
        best = [p for p in enumerate_mcivs(gen_cycle(6)) if p.bound == 2]
        assert best and all(not p.remainder for p in best)

    def test_clique_only_degenerate_layout(self):
        layouts = enumerate_mcivs(gen_complete(4))
        assert len(layouts) == 1
        assert layouts[0].classes == ()
        assert layouts[0].remainder == {1, 2, 3, 4}

    def test_no_duplicate_layouts(self):
        layouts = enumerate_mcivs(gen_cycle(6))
        canon = {(p.classes, p.remainder) for p in layouts}
        assert len(canon) == len(layouts)

    def test_size_refusals(self):
        with pytest.raises(SizeLimitError):
            enumerate_mcivs(gen_cycle(9), limit=8)
        with pytest.raises(SizeLimitError):
            chromatic_oracle(gen_dodecahedron())

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
            assert mcivs_lower_bound(g) == chromatic_oracle(g)


class TestProposition:
    def test_cycles(self):
        holds5, witness5 = check_vbar_proposition(gen_cycle(5))
        assert holds5 is True and len(witness5.remainder) == 1
        holds6, witness6 = check_vbar_proposition(gen_cycle(6))
        assert holds6 is True and len(witness6.remainder) == 0

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
