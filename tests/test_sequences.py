"""Arc-sequence algebra: validators, permutation, minimal powers, chains."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgraph import (
    ArcSequence,
    CyclePermutation,
    DomainError,
    chains_of,
    cycle_permute,
    gen_complete,
    gen_cycle,
    is_cycle,
    is_path,
    is_trail,
    medium_vertices,
    minimal_power,
    obots_search,
    path_to_sequence,
    search_report,
)

from conftest import minimal_power_bocps


def ring(*vertices: int) -> ArcSequence:
    return path_to_sequence(tuple(vertices), close=True)


class TestValidators:
    def test_trail(self):
        assert is_trail(ArcSequence.of((1, 2), (2, 3))) == 1
        assert is_trail(ArcSequence.of((1, 2), (3, 4))) == 0
        assert is_trail(ArcSequence.of((1, 1), (1, 2))) == 0
        assert is_trail(ArcSequence.of((1, 2))) == 0  # a single arc is not a trail

    def test_path(self):
        assert is_path(ArcSequence.of((1, 2))) == 1
        assert is_path(ArcSequence.of((1, 2), (2, 3), (3, 1))) == 1  # closed paths allowed
        assert is_path(ArcSequence.of((1, 2), (2, 3), (3, 2))) == 0  # vertex 2 thrice
        assert is_path(ArcSequence.of((1, 1))) == 0
        assert is_path(ArcSequence(())) == 0

    def test_cycle(self):
        assert is_cycle(ArcSequence.of((1, 2), (2, 1))) == 1  # the minimum cycle
        assert is_cycle(ArcSequence.of((1, 2), (2, 3))) == 0
        assert is_cycle(ArcSequence.of((1, 2))) == 0  # length 1 barred

    def test_medium_vertices(self):
        assert medium_vertices(ArcSequence.of((1, 2), (2, 3), (3, 4))) == (2, 3)
        assert medium_vertices(ArcSequence.of((1, 2), (2, 1))) == (2,)
        assert medium_vertices(ArcSequence.of((1, 2))) == ()
        with pytest.raises(DomainError):
            medium_vertices(ArcSequence.of((1, 2), (3, 4)))

    @pytest.mark.parametrize("build", [
        lambda: ArcSequence.of((0, 1)),
        lambda: ArcSequence.of((1, 2), (2, -1)),
        lambda: path_to_sequence((0, -3)),
        lambda: path_to_sequence((2, 1, 0), close=True),
    ], ids=["of-zero-tail", "of-negative-head", "walk", "closed-walk"])
    def test_ids_below_one_refused(self, build):
        with pytest.raises(DomainError, match="vertex ids must be positive"):
            build()


class TestCyclePermute:
    def test_definitional_rotation(self):
        s = ring(1, 2, 3)
        out = cycle_permute(s, CyclePermutation(index=1, power=1))
        assert out == ArcSequence.of((2, 3), (3, 1), (1, 2))

    def test_zero_index_or_power_is_identity(self):
        s = ring(1, 2, 3, 4)
        assert cycle_permute(s, CyclePermutation(0, 5)) == s
        assert cycle_permute(s, CyclePermutation(2, 0)) == s

    def test_full_turn(self):
        s = ring(1, 2, 3, 4, 5, 6)
        assert cycle_permute(s, CyclePermutation(index=2, power=3)) == s

    def test_rejects_non_cycles(self):
        with pytest.raises(DomainError):
            cycle_permute(ArcSequence.of((1, 2), (2, 3)), CyclePermutation(1, 1))
        with pytest.raises(DomainError):
            path_to_sequence((), close=True)  # no start to close back to

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=80)
    def test_closure(self, n, data):
        vertices = list(range(1, n + 1))
        random.Random(data.draw(st.integers(0, 10**6))).shuffle(vertices)
        s = ring(*vertices)
        m = data.draw(st.integers(0, n))
        power = data.draw(st.integers(0, 2 * n))
        assert is_cycle(cycle_permute(s, CyclePermutation(m, power))) == 1


class TestMinimalPower:
    @pytest.mark.parametrize("n, m, expect", [(6, 2, 3), (5, 2, 5), (7, 1, 7), (9, 9, 1), (12, 8, 3)])
    def test_known_values(self, n, m, expect):
        assert minimal_power(n, m) == expect

    def test_domain(self):
        with pytest.raises(DomainError):
            minimal_power(5, 0)
        with pytest.raises(DomainError):
            minimal_power(5, 6)

    def test_closed_form_vs_literal(self):
        for n in range(2, 61):
            s = ring(*range(1, n + 1))
            for m in range(1, n):
                target = minimal_power(n, m)
                assert target == n // math.gcd(n, m) <= n
                current = s
                for step in range(1, target + 1):
                    current = cycle_permute(current, CyclePermutation(m, 1))
                    if step < target:
                        assert current != s
                assert current == s

    def test_bocps_backend_agrees(self):
        for n in range(2, 120):
            for m in range(1, n + 1):
                assert minimal_power(n, m) == minimal_power_bocps(n, m)


class TestChains:
    def test_two_cycle(self):
        chains = chains_of(ring(1, 2))
        assert {c.arcs for c in chains} == {((1, 2),), ((2, 1),)}

    def test_three_cycle(self):
        assert len(chains_of(ring(1, 2, 3))) == 3

    def test_every_vertex_in_every_chain(self, rnd):
        for _ in range(25):
            n = rnd.randint(2, 10)
            vertices = list(range(1, n + 1))
            rnd.shuffle(vertices)
            s = ring(*vertices)
            chains = chains_of(s)
            assert len(chains) == n  # distinct vertices give exactly n chains
            for chain in chains:
                covered = {a.tail for a in chain.arcs} | {a.head for a in chain.arcs}
                assert covered == set(vertices)

    def test_rejects_open_sequences(self):
        with pytest.raises(DomainError):
            chains_of(ArcSequence.of((1, 2), (2, 3)))


class TestTraversalIntegration:
    def spanning_closed(self, g, start):
        res = obots_search(g, start)
        out = []
        for p in res.paths:
            v = p.vertices
            if len(v) == g.n and len(set(v)) == g.n and g.multiplicity(v[-1], start) > 0:
                out.append(v)
        return out

    def test_emitted_hamilton_cycles_are_cycles(self):
        g = gen_cycle(5)
        closed = self.spanning_closed(g, 1)
        assert len(closed) == 2
        for vertices in closed:
            seq = path_to_sequence(vertices, close=True)
            assert is_cycle(seq) == 1
            assert len(chains_of(seq)) == g.n

    def test_rotation_reaches_every_start(self):
        # a Hamiltonian cycle found from one vertex rotates onto every other
        g = gen_complete(4)
        found = {s: {tuple(v) for v in self.spanning_closed(g, s)} for s in g.vertices}
        _, stats = search_report(g, 1)
        assert all(len(found[s]) == stats.hamiltonian_cycles for s in g.vertices)
        for vertices in found[1]:
            seq = path_to_sequence(vertices, close=True)
            for target in g.vertices:
                shift = vertices.index(target)
                rotated = cycle_permute(seq, CyclePermutation(shift, 1))
                walk = tuple(a.tail for a in rotated.arcs)
                assert walk[0] == target
                assert walk in found[target]
