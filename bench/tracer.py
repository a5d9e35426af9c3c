"""Span tracer for the traced run, wrapping the names each caller looks up.

The tracer patches public module attributes of ``relgraph`` from outside:
``relgraph.traversal.is_connected`` is the name ``search_report`` resolves,
``relgraph.cli.search_report`` the one the ``euler`` command resolves, and
so on.  Private names (``_index_graph``, ``_obots_run``) are left alone so a
refactor may rename them.  Spans carry name, start, end, parent span and op
id, stay in memory, and are written out when the run ends; self time is
computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


def _batch_counts(args, result) -> dict:
    # bytes are computed from the array sizes read and written, not measured
    moved = sum(a.nbytes for a in args[:2]) + sum(a.nbytes for a in result)
    return {"lanes": result[0].size, "steps": int(result[2].sum()), "bytes": moved}


# (module, attribute, span name, counter): the module is looked up in
# sys.modules because `relgraph.partition` is shadowed by the function.  A
# counter maps a call's arguments and result to the span's counts.
TARGETS = [
    ("relgraph.cli", "main", "cli.main", None),
    ("relgraph.core", "load_graph", "core.load_graph", None),
    ("relgraph", "load_graph", "core.load_graph", None),
    ("relgraph.core", "parse_graph", "core.parse_graph", lambda a, r: {"arcs": len(r.arcs)}),
    ("relgraph.core", "gen_complete", "core.gen_complete", None),
    ("relgraph.traversal", "classify", "core.classify", None),
    ("relgraph.traversal", "is_connected", "core.is_connected", None),
    ("relgraph.coloring", "is_connected", "core.is_connected", None),
    ("relgraph.cli", "traversal_invariant", "traversal.traversal_invariant", None),
    ("relgraph.cli", "search_report", "traversal.search_report", lambda a, r: {"loops": r[0].loop_count}),
    ("relgraph.traversal", "search_report", "traversal.search_report", lambda a, r: {"loops": r[0].loop_count}),
    ("relgraph", "obots_search", "traversal.obots_search", lambda a, r: {"loops": r.loop_count}),
    ("relgraph", "hamilton_stats", "traversal.hamilton_stats", None),
    ("relgraph", "bocps_batch", "bocps.bocps_batch", _batch_counts),
    ("relgraph", "bocps", "bocps.bocps", None),
    ("relgraph", "partition", "partition.partition", None),
    ("relgraph.partition", "layer_adjacency", "partition.layer_adjacency", None),
    ("relgraph.coloring", "layer_adjacency", "partition.layer_adjacency", None),
    ("relgraph", "bogpc", "coloring.bogpc", None),
    ("relgraph", "boerc", "coloring.boerc", None),
    ("relgraph.coloring", "to_edge_relation", "coloring.to_edge_relation", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    op: int
    phase: str  # "op" while the op is timed, "check" while its output is checked
    counts: dict = field(default_factory=dict)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    phase: str = "op"
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                        self.op, self.phase)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals.

        A name a refactor has removed is skipped: its calls no longer happen,
        and the metrics built on it read 0.
        """
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
        # the symmetric adjacency is computed lazily on first access
        coloring = sys.modules.get("relgraph.coloring")
        edge_relation = getattr(coloring, "EdgeRelation", None)
        original = getattr(edge_relation, "__dict__", {}).get("adjacency")
        if isinstance(original, functools.cached_property):
            lazy = functools.cached_property(self._wrap(original.func, "coloring.adjacency", None))
            lazy.__set_name__(edge_relation, "adjacency")
            self._saved.append((edge_relation, "adjacency", original))
            setattr(edge_relation, "adjacency", lazy)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "phase": s.phase, "counts": s.counts}
            for s in self.spans
        ]
