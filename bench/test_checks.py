"""The checkers accept the program's real outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest -q bench/test_checks.py``.
Each test takes one real op's output from its workload, shows that it
passes, then corrupts one number and shows that the check raises, so a fast
wrong answer is counted as failed rather than timed.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def rg():
    return run.import_program()


@pytest.fixture
def workdir():
    # inputs stay inside the checkout, beside the runner's own
    path = run.ROOT / ".bench_out" / "test-inputs"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _workload(rg, name, workdir):
    return WORKLOADS[name](rg, 7, workdir)


def test_invariant_rejects_one_wrong_count(rg, workdir):
    w = _workload(rg, "cubic-invariant", workdir)
    out = w.op(0)
    w.check(out)
    with pytest.raises(checks.CheckFailed):
        w.check(out.replace("\n3\t60\n", "\n3\t59\n"))


def test_euler_rejects_one_wrong_loop_count(rg, workdir):
    w = _workload(rg, "complete-euler", workdir)
    out = w.op(0)
    w.check(out)
    assert "\t109601\t" in out
    with pytest.raises(checks.CheckFailed):
        w.check(out.replace("\t109601\t", "\t109602\t"))


def test_cubic_paths_rejects_one_wrong_hp(rg, workdir):
    w = _workload(rg, "cubic-paths", workdir)
    start, result, stats = w.op(0)
    w.check((start, result, stats))
    wrong = dataclasses.replace(stats, hamiltonian_paths=stats.hamiltonian_paths + 1)
    with pytest.raises(checks.CheckFailed):
        w.check((start, result, wrong))


def test_cubic_paths_rejects_a_lost_path(rg, workdir):
    w = _workload(rg, "cubic-paths", workdir)
    start, result, stats = w.op(0)
    fewer = dataclasses.replace(result, paths=result.paths[:-1])
    with pytest.raises(checks.CheckFailed):
        w.check((start, fewer, stats))


def test_bocps_rejects_one_wrong_gcd_lane(rg, workdir):
    w = _workload(rg, "bocps-grid", workdir)
    band, (k1, k2, loops) = w.op(0)
    w.check((band, (k1, k2, loops)))
    bad = k1.copy()
    bad[123] += 1  # m1 // k1 was the gcd, so m1 // (k1 + 1) falls below it
    with pytest.raises(checks.CheckFailed, match="gcd"):
        w.check((band, (bad, k2, loops)))


def test_grid_color_rejects_an_improper_colouring(rg, workdir):
    w = _workload(rg, "grid-color", workdir)
    g, v, regions, colourings = w.op(0)
    w.check((g, v, regions, colourings))
    assignment = dict(colourings[0].assignment)
    u, x = next(arc for arc in g.arcs if arc[0] != arc[1])
    assignment[x] = assignment[u]
    improper = rg.Coloring.from_assignment(assignment)
    with pytest.raises(checks.CheckFailed):
        w.check((g, v, regions, (improper, colourings[1])))


def test_failed_op_is_counted_not_timed():
    class Wrong:
        def op(self, i):
            return "fast"

        def check(self, output):
            raise checks.CheckFailed("wrong")

    elapsed, passed, facts = run.run_op(Wrong(), 0)
    assert not passed and facts == {}
    times = [1.0, 1.0, 1.0, elapsed]
    fast_wrong = run.latency_metrics(times, [True, True, True, False])
    assert fast_wrong["op_p50_ms"] >= 1000.0
    assert fast_wrong["ops_per_s"] == pytest.approx(3 / sum(times))


def test_tracer_nests_spans_and_restores_names(rg, workdir):
    w = _workload(rg, "cubic-invariant", workdir)
    traversal = sys.modules["relgraph.traversal"]
    original = traversal.is_connected
    tracer = Tracer()
    _, passed, _ = run.run_op(w, 0, tracer)
    assert passed
    assert traversal.is_connected is original
    spans = tracer.spans
    assert [s.name for s in spans].count("core.is_connected") == 21
    reports = [s for s in spans if s.name == "traversal.search_report"]
    assert len(reports) == 20
    assert {spans[s.parent].name for s in reports} == {"traversal.traversal_invariant"}
    # self times partition the root span's duration
    root = spans[0]
    assert root.name == "cli.main" and root.parent == -1
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start)
