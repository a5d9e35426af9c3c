"""Relation-based graph algorithms.

A graph instance is a weighted multiset of ordered vertex pairs.  On top of
that single data model the package provides exhaustive equivalent-visiting
traversal with loop, breadth and Hamilton accounting, a trail/path/cycle
algebra with cycle permutation, an integer coefficient search yielding gcd
and lcm, layered graph partition, and randomized vertex coloring with exact
desk-scale oracles.
"""

from .bocps import BocpsResult, bocps, bocps_batch
from .coloring import (
    Coloring,
    IntervalPartition,
    bogpc,
    boerc,
    check_vbar_proposition,
    chromatic_oracle,
    enumerate_mcivs,
    max_degree,
    verify_coloring,
)
from .core import (
    Arc,
    GraphClass,
    MultiTraversalRelation,
    classify,
    gen_complete,
    gen_cycle,
    gen_cycle_sequence,
    gen_dodecahedron,
    gen_grid,
    gen_path,
    is_connected,
    load_graph,
    parse_graph,
    random_relabel,
    relabel,
    serialize_graph,
)
from .errors import (
    DomainError,
    GraphError,
    InvariantViolation,
    ParseError,
    SizeLimitError,
)
from .partition import RegionSequence, partition, region_distance
from .sequences import (
    ArcSequence,
    CyclePermutation,
    chains_of,
    cycle_permute,
    is_cycle,
    is_path,
    is_trail,
    medium_vertices,
    minimal_power,
    path_to_sequence,
)
from .traversal import (
    HamiltonStats,
    SearchPath,
    TraversalResult,
    hamilton_stats,
    obots_search,
    search_report,
    traversal_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcSequence",
    "BocpsResult",
    "Coloring",
    "CyclePermutation",
    "DomainError",
    "GraphClass",
    "GraphError",
    "HamiltonStats",
    "IntervalPartition",
    "InvariantViolation",
    "MultiTraversalRelation",
    "ParseError",
    "RegionSequence",
    "SearchPath",
    "SizeLimitError",
    "TraversalResult",
    "bocps",
    "bocps_batch",
    "bogpc",
    "boerc",
    "chains_of",
    "check_vbar_proposition",
    "chromatic_oracle",
    "classify",
    "cycle_permute",
    "enumerate_mcivs",
    "gen_complete",
    "gen_cycle",
    "gen_cycle_sequence",
    "gen_dodecahedron",
    "gen_grid",
    "gen_path",
    "hamilton_stats",
    "is_connected",
    "is_cycle",
    "is_path",
    "is_trail",
    "load_graph",
    "max_degree",
    "medium_vertices",
    "minimal_power",
    "obots_search",
    "parse_graph",
    "partition",
    "path_to_sequence",
    "random_relabel",
    "region_distance",
    "relabel",
    "search_report",
    "serialize_graph",
    "traversal_invariant",
    "verify_coloring",
]
