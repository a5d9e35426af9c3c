"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report.  Criterion 4 searches an 804k-path instance and is marked slow;
include it with ``-m slow`` (it needs a couple of seconds here, minutes on
older hardware).  Wall-clock figures are never asserted anywhere.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from relgraph import (
    bocps,
    bocps_batch,
    bogpc,
    boerc,
    chromatic_oracle,
    cycle_permute,
    CyclePermutation,
    enumerate_mcivs,
    gen_complete,
    gen_cycle,
    gen_cycle_sequence,
    gen_dodecahedron,
    gen_grid,
    max_degree,
    minimal_power,
    obots_search,
    partition,
    path_to_sequence,
    region_distance,
    relabel,
    search_report,
    is_cycle,
    verify_coloring,
)

from conftest import (
    bfs_distances,
    bots_search,
    petersen,
    random_connected_multigraph,
    random_connected_symmetric,
    random_cubic,
)

EULER = 2.718281828459045

TABLE_3 = {
    5: (65, 24),
    6: (326, 120),
    7: (1957, 720),
    8: (13700, 5040),
    9: (109601, 40320),
}


def report(line: str) -> None:
    print(line)


def test_criterion_01_complete_graph_table():
    ratios = {}
    for n, expected in TABLE_3.items():
        res = obots_search(gen_complete(n), 1, counts_only=True)
        assert (res.loop_count, res.breadth) == expected, f"n={n}"
        ratios[n] = res.loop_count / res.breadth
    assert abs(ratios[9] - 2.7182818) < 1e-5
    report("ACCEPTANCE 1 PASS: K_5..K_9 loop/breadth table exact, ratio(9) within 1e-5")


def test_criterion_02_euler_limit():
    ratios = []
    for n in range(3, 10):
        res = obots_search(gen_complete(n), 1, counts_only=True)
        ratios.append(res.loop_count / res.breadth)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r <= EULER + 1e-6 for r in ratios)
    report("ACCEPTANCE 2 PASS: ratios strictly increase over n=3..9 and stay under e")


def test_criterion_03_dodecahedron_all_starts():
    g = gen_dodecahedron()
    for start in sorted(g.vertices):
        res, stats = search_report(g, start)
        assert res.breadth == 3120, start
        assert stats.hamiltonian_paths == 162, start
        assert stats.hamiltonian_cycles == 60, start
    report("ACCEPTANCE 3 PASS: breadth 3120 / HP 162 / HC 60 from all 20 starts")


@pytest.mark.slow
def test_criterion_04_cycle_sequence_slow_tier():
    g = gen_cycle_sequence(9, 3)
    assert g.n == 36
    res, stats = search_report(g, 1)
    assert res.breadth == 804226
    assert stats.hamiltonian_paths == 1412
    assert stats.hamiltonian_cycles == 300
    report("ACCEPTANCE 4 PASS: k=9 cycle sequence gives B 804226 / HP 1412 / HC 300")


def test_criterion_05_engine_equivalence():
    rnd = random.Random(1405)
    for case in range(200):
        g = random_connected_multigraph(rnd, max_n=8, max_weight=2)
        if case % 2:
            # sparse ids, whose set order is not their sorted order
            g = relabel(g, {v: 7 * v * v + 3 for v in g.vertices})
        start = min(g.vertices)
        loops, paths = bots_search(g, start)
        b = obots_search(g, start)
        assert loops == b.loop_count, case
        assert paths == [p.vertices for p in b.paths], case
    report("ACCEPTANCE 5 PASS: BOTS and OBOTS agree on 200 random instances, half on sparse ids")


def test_criterion_06_bocps_full_grid():
    side = np.arange(1, 1001, dtype=np.int64)
    m2, m1 = np.meshgrid(side, side)
    m1 = m1.ravel()
    m2 = m2.ravel()
    k1, k2, loops = bocps_batch(m1, m2)
    g = np.gcd(m1, m2)
    assert np.array_equal(m1 // k1, g)  # gcd route
    assert np.array_equal(m1 * k2, m1 * m2 // g)  # lcm route
    assert bool((loops <= m1 + m2).all())
    # the batched cursor is the scalar loop run-length compressed; pin the
    # correspondence on a sample so the scalar reference stays authoritative
    rnd = random.Random(6)
    for _ in range(500):
        i = rnd.randrange(m1.size)
        res = bocps(int(m1[i]), int(m2[i]))
        assert (res.k1, res.k2, res.loops) == (int(k1[i]), int(k2[i]), int(loops[i]))
    report("ACCEPTANCE 6 PASS: gcd/lcm match Euclid on the full 1..1000 grid, loops bounded")


def test_criterion_07_partition_vs_bfs():
    rnd = random.Random(1407)
    for case in range(100):
        g = random_connected_symmetric(rnd, max_n=50)
        seed = min(g.vertices)
        regions = partition(g, {seed})
        oracle = bfs_distances(g, [seed])
        assert not regions.stranded
        for v in g.vertices:
            assert region_distance(regions, v) == oracle[v], case
        level = {v: region_distance(regions, v) for v in g.vertices}
        for tail, head in g.arcs:
            if tail != head:
                assert level[head] - level[tail] <= 1, case
    report("ACCEPTANCE 7 PASS: region index matches BFS distance, no arc skips a region")


def test_criterion_08_cycle_permutation_laws():
    # the literal route applies the definitional prefix/suffix swap step by
    # step on the raw arc tuple for every pair; the cycle_permute operation is
    # held to the same steps on a dense band and to every final power
    for n in range(2, 201):
        base = path_to_sequence(tuple(range(1, n + 1)), close=True)
        arcs = base.arcs
        dense = n <= 60
        for m in range(1, n):
            target = minimal_power(n, m)
            assert target == n // math.gcd(n, m) <= n
            current = arcs
            seq = base
            for step in range(1, target + 1):
                current = current[m:] + current[:m]
                if dense:
                    seq = cycle_permute(seq, CyclePermutation(m, 1))
                    assert seq.arcs == current
                    assert is_cycle(seq) == 1
                if step < target:
                    assert current != arcs
            assert current == arcs
            final = cycle_permute(base, CyclePermutation(m, target))
            assert final == base
            assert is_cycle(final) == 1
    report("ACCEPTANCE 8 PASS: minimal powers equal N/gcd(N,m) for all N<=200, literally verified")


def test_criterion_09_coloring_soundness_and_precision():
    rnd = random.Random(1409)
    corpus = [gen_dodecahedron()] + [gen_cycle(n) for n in range(4, 10)] + [gen_complete(4)]
    corpus += [random_cubic(rnd, rnd.choice([8, 12, 16, 20])) for _ in range(2)]
    runs_per_instance = -(-500 // len(corpus))  # >= 500 total per algorithm
    for g in corpus:
        bound = max_degree(g) + 1
        for s in range(runs_per_instance):
            for algo in (bogpc, boerc):
                colouring = algo(g, s)
                assert verify_coloring(g, colouring) == 1
                assert colouring.k <= bound
    g = gen_dodecahedron()
    hits = {"bogpc": 0, "boerc": 0}
    for s in range(1000):
        if bogpc(g, s).k == 3:
            hits["bogpc"] += 1
        if boerc(g, s).k == 3:
            hits["boerc"] += 1
    assert hits["bogpc"] >= 1
    assert hits["boerc"] >= 1
    report(
        "ACCEPTANCE 9 PASS: all runs proper and within maxdeg+1; dodecahedron k=3 "
        f"frequency bogpc {hits['bogpc']/1000:.3f}, boerc {hits['boerc']/1000:.3f} "
        "(paper observed 0.258 and 0.326; frequencies reported, only attainment asserted)"
    )


def test_criterion_10_chromatic_lower_bound():
    corpus = [gen_cycle(n) for n in range(4, 10)]
    corpus += [gen_complete(4), gen_complete(5), gen_grid(2, 3), gen_grid(3, 3), petersen()]
    for g in corpus:
        assert g.n <= 10
        assert min(p.bound for p in enumerate_mcivs(g)) == chromatic_oracle(g)
    five = [p for p in enumerate_mcivs(gen_cycle(5)) if p.bound == 3]
    assert five and all(len(p.remainder) == 1 for p in five)
    six = [p for p in enumerate_mcivs(gen_cycle(6)) if p.bound == 2]
    assert six and all(len(p.remainder) == 0 for p in six)
    report("ACCEPTANCE 10 PASS: minimal layout size equals the chromatic number on the corpus")
