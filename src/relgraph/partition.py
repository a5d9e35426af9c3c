"""Layered graph partition: order the vertex set into regions around seed vertices.

The seed set is region one; each following region holds exactly the vertices
first reached by one arc from the region before it.  On symmetric instances
with a single seed the region index is the unweighted shortest-path distance
plus one.  Directed instances may leave vertices unreachable; those are
reported in a separate stranded set instead of failing the partition.  The
walk itself is core's ``layer_adjacency``, which connectivity and the
colouring growth loop share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import MultiTraversalRelation, VertexId, layer_adjacency
from .errors import DomainError


@dataclass(frozen=True)
class RegionSequence:
    """Ordered regions produced by one partition run."""

    regions: tuple[frozenset[VertexId], ...]
    stranded: frozenset[VertexId]

    @cached_property
    def _region_of(self) -> dict[VertexId, int]:
        table: dict[VertexId, int] = {}
        for i, region in enumerate(self.regions):
            for v in region:
                table[v] = i
        return table

    @property
    def t(self) -> int:
        return len(self.regions)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(region) for region in self.regions)


def partition(g: MultiTraversalRelation, seeds: Iterable[VertexId]) -> RegionSequence:
    """Partition the reachable vertex set into regions from ``seeds``.

    Requires a non-empty seed set strictly smaller than the vertex set, all
    seeds on the instance.  Self-loops never advance the frontier.
    """
    seed_set = set(seeds)
    if not seed_set:
        raise DomainError("seed set must be non-empty")
    if not seed_set <= g.vertices:
        missing = sorted(seed_set - g.vertices)
        raise DomainError(f"seeds {missing} are not on the instance")
    if len(seed_set) >= g.n:
        raise DomainError("seed set must leave at least one vertex to partition")
    # a self-loop's head is in the frontier, hence already assigned
    regions, stranded = layer_adjacency(g.out_adjacency, g.vertices, seed_set)
    return RegionSequence(
        regions=tuple(frozenset(r) for r in regions),
        stranded=frozenset(stranded),
    )


def region_distance(r: RegionSequence, v: VertexId) -> int:
    """Region index minus one: steps from the nearest seed to ``v``.

    With a singleton seed on a symmetric instance this equals the unweighted
    shortest-path distance; with several seeds it is the distance to the
    closest one.  Raises KeyError for stranded or unknown vertices.
    """
    return r._region_of[v]
