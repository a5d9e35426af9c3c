"""Output checkers for the five workloads, holding the pinned golden numbers.

Every op's output goes through one of these before it counts as completed.
A checker raises :class:`CheckFailed` on the first disagreement; the runner
then counts the op as failed, so a fast wrong answer raises the failure count
and never lowers a latency.  References are constants here, never recomputed
by the benchmark, apart from the independent routes a check takes itself
(``np.gcd``, a breadth-first search, a per-edge colour comparison).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import deque
from itertools import chain

import numpy as np


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# cubic-invariant: `relgraph invariant` on the dodecahedron
# ---------------------------------------------------------------------------

DODECAHEDRON_STARTS = 20
DODECAHEDRON_HC = 60


def check_invariant(stdout: str) -> None:
    """20 rows, each start with 60 Hamiltonian cycles, then the PASS verdict."""
    lines = stdout.splitlines()
    _require(len(lines) == DODECAHEDRON_STARTS + 2, f"expected 22 lines, got {len(lines)}")
    _require(lines[0] == "start\thc", f"bad header {lines[0]!r}")
    starts = []
    for line in lines[1:-1]:
        start, hc = (int(tok) for tok in line.split("\t"))
        _require(hc == DODECAHEDRON_HC, f"start {start}: HC {hc} != {DODECAHEDRON_HC}")
        starts.append(start)
    _require(starts == list(range(1, DODECAHEDRON_STARTS + 1)), f"starts {starts}")
    _require(lines[-1] == "PASS", f"verdict {lines[-1]!r}")


# ---------------------------------------------------------------------------
# complete-euler: `relgraph euler --max 9`
# ---------------------------------------------------------------------------

# (loops, breadth) from start 1 of K_n; loops / breadth rises towards e
EULER_TABLE = {
    3: (5, 2),
    4: (16, 6),
    5: (65, 24),
    6: (326, 120),
    7: (1957, 720),
    8: (13700, 5040),
    9: (109601, 40320),
}


def check_euler(stdout: str) -> None:
    """The K3..K9 rows match the table; the ratio rises strictly and stays below e."""
    lines = stdout.splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    _require([int(r["n"]) for r in rows] == list(EULER_TABLE), f"rows for n={[r['n'] for r in rows]}")
    previous = 0.0
    for row in rows:
        n = int(row["n"])
        got = (int(row["loop_count"]), int(row["breadth"]))
        _require(got == EULER_TABLE[n], f"K{n}: (loops, breadth) {got} != {EULER_TABLE[n]}")
        ratio = float(row["ratio"])
        _require(previous < ratio < math.e, f"K{n}: ratio {ratio} not in ({previous}, e)")
        previous = ratio


# ---------------------------------------------------------------------------
# cubic-paths: obots_search(gen_cycle_sequence(7, 3), s, threads=2) + hamilton_stats
# ---------------------------------------------------------------------------


def path_digest(paths) -> str:
    """Digest of a sequence of vertex tuples; order-sensitive."""
    h = hashlib.sha256(array("I", map(len, paths)).tobytes())
    h.update(array("I", chain.from_iterable(paths)).tobytes())
    return h.hexdigest()[:24]


# start -> (loops, breadth, HP, HC, serial-order digest, sorted-multiset digest),
# all from the serial search keeping paths
CUBIC_PATHS_REF = {
    1: (214446, 53078, 498, 112, "9f82443c3d843c71c0335aaa", "291e6e698ffad14a5b3ae850"),
    2: (214446, 53078, 498, 112, "b6eb4906724e687dc8c3375c", "11c6913d054ce0d331c1dcf6"),
    3: (214446, 53078, 498, 112, "1e90991332f02d23ddd72452", "a07756aa444981abf986a0fb"),
    4: (214446, 53078, 498, 112, "f7af0947a84d4ec56b840755", "1ed83956e6c60c30f2cc888a"),
    5: (214446, 53078, 498, 112, "146e4d7da573cbd609d5abdf", "711241c941ccff0fa936b723"),
    6: (214446, 53078, 498, 112, "fefe12f1406458a6bad5732f", "e3e86ef810b014a1334b10db"),
    7: (214446, 53078, 498, 112, "ecc9431d6154d5fc13667204", "950720c96c5c0ad061455538"),
    8: (223762, 55730, 536, 112, "1cae59e6faf2836051d28f11", "31120aac0302e757b9504d05"),
    9: (223762, 55730, 536, 112, "8e3f8667b6a59b4ce6f39a52", "43911b5167db2df8f30a746f"),
    10: (223762, 55730, 536, 112, "3fca77bca35590744a804e5a", "38d6fc4095a637cacc4a0b1c"),
    11: (223762, 55730, 536, 112, "0d2c240af31f48b66b400c7f", "b2a51bb97fb012c514909026"),
    12: (223762, 55730, 536, 112, "567393296989acc252000f4b", "541eab95d2fdf026c2af6d49"),
    13: (223762, 55730, 536, 112, "e9d9993884329a60e4c1e84a", "ad9ba4f5a5813eb65b8d60eb"),
    14: (223762, 55730, 536, 112, "659ff5ae31716738f01df02a", "915c3e0903abe2e25a417875"),
    15: (223762, 55730, 536, 112, "fa0a8d6f353789360a7223a7", "6e71c9e6e25832e908675c4e"),
    16: (223762, 55730, 536, 112, "f4dca0826e767c3aaba03a52", "6b21ea69064fcd280b227401"),
    17: (223762, 55730, 536, 112, "6f2b5b6aca36e912b795d1ff", "59410970ece62168b53be70e"),
    18: (223762, 55730, 536, 112, "ba5799c548478c94f0ee7407", "e452476bdf1ddacc07b70f6e"),
    19: (223762, 55730, 536, 112, "737ac6dfdf7c476d94b36563", "c12af1ed51b966c84a2ab5fa"),
    20: (223762, 55730, 536, 112, "05038ac62ab7b4df10535727", "43836393573e9294921f8191"),
    21: (223762, 55730, 536, 112, "497acdd48d3abfe2072602f7", "bf3f9da8fbdac340c89ecb91"),
    22: (214446, 53078, 498, 112, "d868b2a4ef0d3e13c2c1ca36", "08bab2a6d84cb8b72bc8da6f"),
    23: (214446, 53078, 498, 112, "5eadf489446a49b1eb2778ff", "695a04729f4aa2aec8196780"),
    24: (214446, 53078, 498, 112, "af0966c81611a99c21d9c323", "64c7d5ff25b569aa61af16cc"),
    25: (214446, 53078, 498, 112, "988bd756971245821089d327", "75b631e73603ad00208749b7"),
    26: (214446, 53078, 498, 112, "1bac4d83e394bf234a0c3720", "e667a6841ca74b655c7b280f"),
    27: (214446, 53078, 498, 112, "36df3281a056334487d4dc62", "f1dd8f75c962d597f44a94a9"),
    28: (214446, 53078, 498, 112, "c6ee9b1fee389a446402791f", "2c07f0965d5eb20a2148d4f4"),
}


def check_cubic_paths(start: int, result, stats) -> bool:
    """Counts and the path multiset equal the serial reference.

    Returns whether the delivery order also equals the serial one.  A
    different order is the known parallel sink-order defect; it is counted
    by the caller, not failed.
    """
    loops, breadth, hp, hc, order_digest, multiset_digest = CUBIC_PATHS_REF[start]
    paths = [p.vertices for p in result.paths]
    _require(len(paths) == result.breadth, f"start {start}: {len(paths)} paths, breadth {result.breadth}")
    got = (result.loop_count, result.breadth, stats.hamiltonian_paths, stats.hamiltonian_cycles)
    _require(got == (loops, breadth, hp, hc), f"start {start}: (loops, B, HP, HC) {got}")
    _require(path_digest(sorted(paths)) == multiset_digest, f"start {start}: path multiset differs")
    return path_digest(paths) == order_digest


# ---------------------------------------------------------------------------
# bocps-grid: bocps_batch over one tenth of the 1..1000 grid
# ---------------------------------------------------------------------------

GRID_SIDE = 1000
BANDS = 10
SCALAR_SAMPLE = 50  # scalar `bocps` cross-checks per band


def band_lanes(band: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of the 1..1000 grid with m1 // 10 + m2 // 10 = band (mod 10).

    Each band holds 100,000 pairs, every m1 and every m2 with 100 partners
    each, and every combination of last digits, so the bands share one
    gcd structure and cost the same; the ten bands partition the grid.
    """
    side = np.arange(1, GRID_SIDE + 1, dtype=np.int64)
    m1, m2 = np.repeat(side, GRID_SIDE), np.tile(side, GRID_SIDE)
    keep = (m1 // 10 + m2 // 10) % BANDS == band
    return m1[keep], m2[keep]


def scalar_sample(band: int, size: int) -> list[int]:
    """Fixed lane indices of one band for the scalar cross-check."""
    step = size // SCALAR_SAMPLE
    return [(i * step + 7 * band) % size for i in range(SCALAR_SAMPLE)]


def check_bocps_band(m1, m2, k1, k2, loops, sample, scalar) -> None:
    """gcd and lcm routes agree with Euclid lane by lane; loops within m1 + m2.

    ``scalar`` is the scalar ``bocps``; each sampled lane must equal its
    (k1, k2, loops) exactly.
    """
    _require(k1.shape == m1.shape and k2.shape == m1.shape and loops.shape == m1.shape, "shape")
    _require(bool((k1 >= 1).all()) and bool((k2 >= 1).all()), "a coefficient below 1")
    g = np.gcd(m1, m2)
    bad = np.flatnonzero(m1 // k1 != g)
    _require(bad.size == 0, f"gcd route wrong on {bad.size} lanes, first {bad[:1]}")
    bad = np.flatnonzero(m1 * k2 != m1 * m2 // g)
    _require(bad.size == 0, f"lcm route wrong on {bad.size} lanes, first {bad[:1]}")
    _require(bool((loops <= m1 + m2).all()), "loops above m1 + m2")
    for i in sample:
        res = scalar(int(m1[i]), int(m2[i]))
        got = (int(k1[i]), int(k2[i]), int(loops[i]))
        _require((res.k1, res.k2, res.loops) == got, f"lane {i}: batch {got} != scalar {res}")


# ---------------------------------------------------------------------------
# grid-color: load -> partition -> bogpc -> boerc on a relabelled 60x60 grid
# ---------------------------------------------------------------------------

GRID_ROWS = GRID_COLS = 60
GRID_ARCS = 2 * (2 * GRID_ROWS * GRID_COLS - GRID_ROWS - GRID_COLS)
MAX_COLOURS = 5  # max degree 4, plus one


def bfs_region_sizes(neighbours: dict[int, list[int]], seed: int) -> tuple[int, ...]:
    """Vertices per breadth-first level from ``seed``: the partition oracle."""
    level = {seed: 0}
    queue = deque([seed])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    sizes = [0] * (max(level.values()) + 1)
    for d in level.values():
        sizes[d] += 1
    return tuple(sizes)


def check_grid_color(g, neighbours, seed_vertex, regions, colourings, verify) -> int:
    """Regions match the BFS oracle; every colouring is proper and within 5 colours.

    ``verify`` is the program's ``verify_coloring``; the per-edge comparison
    here is the independent route.  Returns how many colourings reached
    chi = 2, the grid's chromatic number.
    """
    _require(g.n == GRID_ROWS * GRID_COLS and len(g.arcs) == GRID_ARCS, "instance size")
    _require(not regions.stranded, f"{len(regions.stranded)} stranded vertices")
    oracle = bfs_region_sizes(neighbours, seed_vertex)
    _require(regions.sizes() == oracle, f"region sizes {regions.sizes()} != BFS {oracle}")
    optimal = 0
    for colouring in colourings:
        colour = colouring.assignment
        _require(colour.keys() == g.vertices, "assignment does not cover the vertex set")
        _require(verify(g, colouring) == 1, "verify_coloring rejects the colouring")
        clash = next(((u, v) for u, v in g.arcs if u != v and colour[u] == colour[v]), None)
        _require(clash is None, f"edge {clash} joins one colour")
        k = len(set(colour.values()))
        _require(colouring.k == k <= MAX_COLOURS, f"k {colouring.k} with {k} colours used")
        optimal += k == 2
    return optimal
