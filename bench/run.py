"""relgraph benchmark: one closed-loop workload per run, every op checked.

Run from the repository root:

    python3 bench/run.py --workload cubic-invariant --seed 1 --seconds 20 --trace 0

The untraced run (``--trace 0``) measures the end-to-end metrics; the traced
run (``--trace 1``) runs every op twice, once plain and once under the span
tracer, and reports the per-layer metrics plus the tracer's own overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, metrics, spans) is written to ``.bench_out/``.  See README.md in
this directory for the workloads, the checks and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics from spans: a time is the median over traced ops of the
# op's total in the named spans, a count the mean per traced op.
SPAN_TIMES = {
    "core.parse_s": ["core.parse_graph"],
    "core.is_connected_s": ["core.is_connected"],
    "core.classify_s": ["core.classify"],
    "traversal.search_s": ["traversal.search_report", "traversal.obots_search"],
    "partition.layer_s": ["partition.layer_adjacency"],
    "coloring.edge_view_s": ["coloring.to_edge_relation", "coloring.adjacency"],
    "coloring.bogpc_s": ["coloring.bogpc"],
    "coloring.boerc_s": ["coloring.boerc"],
    "bocps.batch_s": ["bocps.bocps_batch"],
}
SPAN_CALLS = {
    "core.is_connected_calls": "core.is_connected",
    "partition.layer_calls": "partition.layer_adjacency",
}
SPAN_COUNTS = {  # metric -> (span names, count key)
    "core.arcs_parsed": (["core.parse_graph"], "arcs"),
    "traversal.loops": (["traversal.search_report", "traversal.obots_search"], "loops"),
    "bocps.lanes": (["bocps.bocps_batch"], "lanes"),
    "bocps.steps": (["bocps.bocps_batch"], "steps"),
    "bocps.bytes_computed": (["bocps.bocps_batch"], "bytes"),
}
PER_LAYER_UNITS = {
    "core.parse_s": "s",
    "core.arcs_parsed": "count",
    "core.is_connected_s": "s",
    "core.is_connected_calls": "count",
    "core.classify_s": "s",
    "traversal.search_s": "s",
    "traversal.loops": "count",
    "traversal.ns_per_loop": "ns",
    "traversal.tally_s": "s",
    "traversal.materialise_s": "s",
    "traversal.paths_retained": "count",
    "traversal.serial_s": "s",
    "traversal.parallel_s": "s",
    "traversal.parallel_speedup": "ratio",
    "traversal.order_mismatch": "count",
    "partition.layer_s": "s",
    "partition.layer_calls": "count",
    "coloring.edge_view_s": "s",
    "coloring.bogpc_s": "s",
    "coloring.boerc_s": "s",
    "coloring.optimal_frac": "ratio",
    "bocps.batch_s": "s",
    "bocps.lanes": "count",
    "bocps.steps": "count",
    "bocps.ns_per_lane": "ns",
    "bocps.bytes_computed": "B",
    "bocps.scalar_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_frac": "ratio",
}


def import_program():
    """Import relgraph afresh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "relgraph" / "__init__.py").is_file():
        sys.exit(f"bench: no relgraph sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "relgraph" or m.startswith("relgraph.")]:
        del sys.modules[name]
    rg = importlib.import_module("relgraph")
    importlib.import_module("relgraph.cli")
    if Path(rg.__file__).resolve().parent != (src / "relgraph").resolve():
        sys.exit(f"bench: relgraph imported from {rg.__file__}, not {src}")
    return rg


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {k: v for k, v in sizes.items() if k in ("L2", "L3")}


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate, write inputs and run one checked, untimed warm-up op."""
    rg = import_program()
    workload = WORKLOADS[name](rg, seed, workdir)
    _, warmed, _ = run_op(workload, -1)
    return workload, warmed


def latency_metrics(times: list[float], passed: list[bool]) -> dict[str, float]:
    """Median, tail and throughput of the timed ops.

    A failed op counts as missing every latency limit: it enters the
    percentiles as the whole busy time, so a fast wrong answer can only raise
    them.  The tail is the highest percentile with TAIL_BEYOND ops above it;
    throughput counts passed ops over the time spent inside ops.
    """
    busy = sum(times)
    ordered = sorted(t if ok else busy for t, ok in zip(times, passed))
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return {
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_tail_ms": 1e3 * ordered[rank - 1],
        "op_tail_percentile": 100.0 * rank / len(ordered),
        "ops_per_s": passed.count(True) / busy,
    }


def run_op(workload, i: int, tracer: Tracer | None = None):
    """Time one op, then check it; returns (seconds, passed, facts).

    With a tracer, the op and its check run with the tracer installed.
    """
    if tracer is not None:
        tracer.op, tracer.phase = i, "op"
        tracer.install()
    t0 = time.perf_counter()
    elapsed = None
    try:
        output = workload.op(i)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = "check"
        return elapsed, True, workload.check(output)
    except Exception as exc:  # a wrong or crashed op is counted, not fatal
        print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed or time.perf_counter() - t0, False, {}
    finally:
        if tracer is not None:
            tracer.uninstall()


def layer_metrics(tracer: Tracer, traced_ops: list[int], facts: list[dict]) -> dict[str, float]:
    own = tracer.self_times()
    per_op: dict[int, dict[str, float]] = {i: defaultdict(float) for i in traced_ops}
    for span, self_s in zip(tracer.spans, own):
        row = per_op[span.op]
        duration = span.end - span.start
        if span.phase == "check":
            if span.name == "bocps.bocps":
                row["bocps.scalar_s"] += duration
            continue
        row["span:" + span.name] += duration
        row["calls:" + span.name] += 1
        for key, value in span.counts.items():
            row[f"count:{span.name}:{key}"] += value
        if span.name == "cli.main":
            row["cli.self_s"] += self_s

    def median_of(fn) -> float:
        return statistics.median(fn(row) for row in per_op.values())

    def mean_of(fn) -> float:
        return statistics.fmean(fn(row) for row in per_op.values())

    metrics = {}
    for metric, names in SPAN_TIMES.items():
        metrics[metric] = median_of(lambda row: sum(row["span:" + n] for n in names))
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = mean_of(lambda row: row["calls:" + name])
    for metric, (names, key) in SPAN_COUNTS.items():
        metrics[metric] = mean_of(lambda row: sum(row[f"count:{n}:{key}"] for n in names))
    metrics["bocps.scalar_s"] = median_of(lambda row: row["bocps.scalar_s"])
    metrics["cli.self_s"] = median_of(lambda row: row["cli.self_s"])

    search_names = SPAN_TIMES["traversal.search_s"]
    search_s = sum(row["span:" + n] for row in per_op.values() for n in search_names)
    loops = metrics["traversal.loops"] * len(per_op)
    metrics["traversal.ns_per_loop"] = 1e9 * search_s / loops if loops else 0.0
    batch_s = sum(row["span:bocps.bocps_batch"] for row in per_op.values())
    lanes = metrics["bocps.lanes"] * len(per_op)
    metrics["bocps.ns_per_lane"] = 1e9 * batch_s / lanes if lanes else 0.0

    total = defaultdict(int)
    for fact in facts:
        for key, value in fact.items():
            total[key] += value
    metrics["traversal.paths_retained"] = total["paths"] / len(facts)
    metrics["traversal.order_mismatch"] = total["order_mismatch"]
    metrics["coloring.optimal_frac"] = total["optimal"] / total["trials"] if total["trials"] else 0.0
    metrics["cli.stdout_bytes"] = total["stdout_bytes"] / len(facts)
    return metrics


def closed_loop(workload, seconds: float, tracer: Tracer | None = None) -> list[tuple]:
    """One client, one op at a time, until ``seconds`` have passed.

    With a tracer every op runs twice, plain and traced, in alternating order,
    so the tracer's overhead is measured on the same ops.  Returns one
    (op index, traced, seconds, passed, facts) row per op run.
    """
    rows = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        order = (None,) if tracer is None else ((None, tracer) if i % 2 == 0 else (tracer, None))
        for t in order:
            elapsed, ok, facts = run_op(workload, i, t)
            rows.append((i, t is not None, elapsed, ok, facts))
        i += 1
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relgraph" / "__init__.py").is_file():
        sys.exit(f"bench: no relgraph sources under {ROOT / 'src'}")

    machine = machine_record()
    workdir = ROOT / ".bench_out" / "inputs"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times, warm_ups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload, warmed = set_up(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        warm_ups.append(warmed)
    gc.collect()

    tracer = Tracer() if args.trace else None
    rows = closed_loop(workload, args.seconds, tracer)
    times = [row[2] for row in rows]
    passed = [row[3] for row in rows]
    extra = {}
    if tracer is None:
        latency = latency_metrics(times, passed)
        extra["op_tail_percentile"] = latency.pop("op_tail_percentile")
        metrics = {
            "setup_s": statistics.median(setup_times),
            **latency,
            "peak_rss_mib": _rss_mib(resource.RUSAGE_SELF),
        }
        units = END_TO_END
    else:
        traced = [row for row in rows if row[1]]
        metrics = layer_metrics(tracer, [row[0] for row in traced], [row[4] for row in traced])
        metrics.update(workload.side())
        plain_p50 = statistics.median(row[2] for row in rows if not row[1])
        metrics["trace.overhead_frac"] = statistics.median(row[2] for row in traced) / plain_p50 - 1
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS

    machine["loadavg_end"] = os.getloadavg()
    # warm-up ops are checked too; a wrong one fails the run like any op
    attempted = len(rows) + len(warm_ups)
    failed = passed.count(False) + warm_ups.count(False)
    extra.update({
        "failed_frac": failed / attempted,
        "op_count": len(rows),
        "worker_peak_rss_mib": _rss_mib(resource.RUSAGE_CHILDREN),
        "setup_samples_s": setup_times,
        "op_times_s": times,
    })
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{extra['op_tail_percentile']:.1f} of {len(rows)} timed ops)"
        elif name == "peak_rss_mib":
            note = f"  (largest child process {extra['worker_peak_rss_mib']:.1f} MiB)"
        print(f"{name:28s} {value:14.6g} {units[name]}{note}")
    print(f"{'failed_frac':28s} {extra['failed_frac']:14.6g} ratio  ({failed} of {attempted} ops)")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
