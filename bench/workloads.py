"""The five closed-loop workloads: set-up, one op, its check, and side probes.

Each workload is driven by one client that sends the next op only when the
last has returned.  Ops enter the program only through public entry points:
CLI ops call ``relgraph.cli.main(argv)`` in-process with stdout captured,
library ops call the package's exported functions.  Every name is looked up
on the module at call time, so the traced run's wrappers see the calls.

The workload seed orders the ops, sets colouring seeds and relabels the
grid; the program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time
from pathlib import Path

import checks


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["relgraph.cli"].main(argv)
    if code != 0:
        raise checks.CheckFailed(f"relgraph {' '.join(argv)} exited {code}")
    return out.getvalue()


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _tally_s(rg, graph_starts, repeats: int = 3) -> float:
    """search_report minus obots_search(counts_only=True), summed over the op's searches."""
    samples = []
    for _ in range(repeats):
        total = 0.0
        for g, start in graph_starts:
            total += _timed(rg.search_report, g, start)
            total -= _timed(rg.obots_search, g, start, counts_only=True)
        samples.append(total)
    return statistics.median(samples)


class Workload:
    """Set-up happens in ``__init__``; ``op`` is the timed unit of work."""

    def __init__(self, rg, seed: int, workdir: Path) -> None:
        self.rg = rg
        self.seed = seed

    def op(self, i: int):
        raise NotImplementedError

    def check(self, output) -> dict:
        """Raise CheckFailed on a wrong output; return per-op layer facts."""
        raise NotImplementedError

    def side(self) -> dict:
        """Traced run only: layer metrics that need their own measurement."""
        return {}


class CubicInvariant(Workload):
    """`relgraph invariant dodeca.txt`: 20 counts-only searches per op."""

    def __init__(self, rg, seed, workdir):
        super().__init__(rg, seed, workdir)
        self.graph = rg.gen_dodecahedron()
        self.path = workdir / "dodeca.txt"
        self.path.write_text(rg.serialize_graph(self.graph), encoding="utf-8")

    def op(self, i):
        return _cli(["invariant", str(self.path)])

    def check(self, output):
        checks.check_invariant(output)
        return {"stdout_bytes": len(output.encode())}

    def side(self):
        starts = [(self.graph, s) for s in sorted(self.graph.vertices)]
        return {"traversal.tally_s": _tally_s(self.rg, starts)}


class CompleteEuler(Workload):
    """`relgraph euler --max 9`: K3..K9 from start 1, no file."""

    def op(self, i):
        return _cli(["euler", "--max", "9"])

    def check(self, output):
        checks.check_euler(output)
        return {"stdout_bytes": len(output.encode())}

    def side(self):
        starts = [(self.rg.gen_complete(n), 1) for n in checks.EULER_TABLE]
        return {"traversal.tally_s": _tally_s(self.rg, starts)}


class CubicPaths(Workload):
    """obots_search keeping paths with threads=2, then hamilton_stats."""

    threads = 2

    def __init__(self, rg, seed, workdir):
        super().__init__(rg, seed, workdir)
        self.graph = rg.gen_cycle_sequence(7, 3)
        self.starts = sorted(self.graph.vertices)
        random.Random(seed).shuffle(self.starts)

    def _search(self, start, threads):
        result = self.rg.obots_search(self.graph, start, threads=threads)
        return start, result, self.rg.hamilton_stats(result, self.graph, start)

    def op(self, i):
        return self._search(self.starts[i % len(self.starts)], self.threads)

    def check(self, output):
        # the parallel sink-order defect is counted, not failed
        in_order = checks.check_cubic_paths(*output)
        return {"order_mismatch": int(not in_order), "paths": len(output[1].paths)}

    def side(self, repeats: int = 3):
        g = self.graph
        counts, serial, keep, parallel = [], [], [], []
        for start in self.starts[:repeats]:
            counts.append(_timed(self.rg.obots_search, g, start, counts_only=True))
            t0 = time.perf_counter()
            result = self.rg.obots_search(g, start, threads=1)
            keep.append(time.perf_counter() - t0)
            self.rg.hamilton_stats(result, g, start)
            serial.append(time.perf_counter() - t0)
            del result
            parallel.append(_timed(self._search, start, self.threads))
        serial_s = statistics.median(serial)
        parallel_s = statistics.median(parallel)
        return {
            "traversal.materialise_s": statistics.median(keep) - statistics.median(counts),
            "traversal.serial_s": serial_s,
            "traversal.parallel_s": parallel_s,
            "traversal.parallel_speedup": serial_s / parallel_s,
        }


class BocpsGrid(Workload):
    """bocps_batch over one band of the grid: (m1 // 10 + m2 // 10) = b (mod 10)."""

    def __init__(self, rg, seed, workdir):
        super().__init__(rg, seed, workdir)
        self.lanes = [checks.band_lanes(b) for b in range(checks.BANDS)]
        self.samples = [checks.scalar_sample(b, m1.size) for b, (m1, _) in enumerate(self.lanes)]
        self.bands = list(range(checks.BANDS))
        random.Random(seed).shuffle(self.bands)

    def op(self, i):
        band = self.bands[i % len(self.bands)]
        m1, m2 = self.lanes[band]
        return band, self.rg.bocps_batch(m1, m2)

    def check(self, output):
        band, (k1, k2, loops) = output
        m1, m2 = self.lanes[band]
        checks.check_bocps_band(m1, m2, k1, k2, loops, self.samples[band], self.rg.bocps)
        return {}


class GridColor(Workload):
    """load_graph -> partition(g, {v}) -> bogpc -> boerc on a relabelled 60x60 grid."""

    def __init__(self, rg, seed, workdir):
        super().__init__(rg, seed, workdir)
        g = rg.random_relabel(rg.gen_grid(checks.GRID_ROWS, checks.GRID_COLS), seed)
        self.path = workdir / f"grid-{seed}.txt"
        self.path.write_text(rg.serialize_graph(g), encoding="utf-8")
        self.vertices = sorted(g.vertices)
        self.neighbours = {v: [] for v in self.vertices}
        for tail, head in g.arcs:
            self.neighbours[tail].append(head)

    def op(self, i):
        rng = random.Random(self.seed * 1_000_003 + i)
        v = rng.choice(self.vertices)
        colour_seed = rng.randrange(2**31)
        rg = self.rg
        g = rg.load_graph(str(self.path))
        regions = rg.partition(g, {v})
        return g, v, regions, (rg.bogpc(g, colour_seed), rg.boerc(g, colour_seed))

    def check(self, output):
        g, v, regions, colourings = output
        optimal = checks.check_grid_color(
            g, self.neighbours, v, regions, colourings, self.rg.verify_coloring
        )
        return {"optimal": optimal, "trials": len(colourings)}


WORKLOADS = {
    "cubic-invariant": CubicInvariant,
    "complete-euler": CompleteEuler,
    "cubic-paths": CubicPaths,
    "bocps-grid": BocpsGrid,
    "grid-color": GridColor,
}
