"""Relational graph model: weighted arc multisets and the views derived from them.

A graph instance is a multiset of ordered vertex pairs (arcs), each carrying a
positive integer multiplicity.  The relation caches every view derived from
the arcs, each built once: ``out_adjacency`` groups the arcs by tail (the
weighted unit subgraphs, a partition of the arc multiset) and is what
partition reads; the search engines read ``index_view`` (weighted out-rows
over vertex indices); connectivity and colouring read ``neighbours`` (the
symmetric, loop-free adjacency).  The arcs into a vertex (the paper's
multiple visiting sets) are read straight from ``arcs`` where needed.

Each graph rule is stated once: ``_plain_ints`` for the integer tokens of
files and command-line flags, ``_checked_arc`` for relations, files and arc
sequences, and ``layer_adjacency``, the one walk, for partition, connectivity
and colouring.

Vertex ids are positive integers.  Isolated vertices cannot be represented:
the vertex set of an instance is exactly the set of arc endpoints.
"""

from __future__ import annotations

import enum
import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import DomainError, ParseError

VertexId = int

# out-rows over vertex indices 0..n-1: ascending (head index, weight) pairs
IndexedAdjacency = tuple[tuple[tuple[int, int], ...], ...]


class Arc(NamedTuple):
    """Ordered vertex pair; tail is visited before head."""

    tail: VertexId
    head: VertexId


def _checked_arc(entry: tuple) -> tuple[VertexId, VertexId, int]:
    """The one arc check: ``(tail, head[, weight])`` as ``(tail, head, weight)``, weight 1 if omitted.

    Refuses with :class:`DomainError` an entry of another length, a bool, a
    value ``operator.index`` refuses, and any id or weight below 1.
    """
    try:
        if len(entry) == 2:
            (tail, head), weight = entry, 1
        elif len(entry) == 3:
            tail, head, weight = entry
        else:
            raise DomainError(f"an arc is (tail, head) or (tail, head, weight), got {entry!r}")
        if tail is True or head is True or weight is True:  # operator.index reads True as 1
            raise TypeError
        tail, head, weight = operator.index(tail), operator.index(head), operator.index(weight)
    except TypeError:
        raise DomainError(f"vertex ids and multiplicities must be integers, got {entry!r}") from None
    if tail < 1 or head < 1:
        raise DomainError(f"vertex ids must be positive, got arc ({tail}, {head})")
    if weight < 1:
        raise DomainError(f"arc multiplicities must be positive, got {weight} on ({tail}, {head})")
    return tail, head, weight


def _plain_ints(text: str, sep: str | None = None) -> list[int]:
    """The one token rule for ids, weights and seeds: each ``sep``-separated token is ASCII digits.

    ``text`` splits on ``sep``, or on runs of whitespace when ``sep`` is None.
    ``int`` alone also takes a sign, ``_`` separators and non-ASCII digits,
    so ``1_0`` would read as 10 and an Arabic-Indic one as 1.  Raises
    ``ValueError`` when a token breaks the rule.
    """
    tokens = text.split(sep)
    if text.isascii():  # isdigit alone also passes non-ASCII digits
        values = [int(tok) for tok in tokens if tok.isdigit()]
        if len(values) == len(tokens):
            return values
    raise ValueError(f"expected ASCII digits, got {tokens!r}")


@dataclass(frozen=True, eq=True)
class MultiTraversalRelation:
    """A weighted arc multiset together with its derived vertex set.

    ``arcs`` maps each distinct arc to its multiplicity (always >= 1; zero
    entries are never stored).  Instances are immutable after construction;
    build them with :meth:`from_arcs`, :func:`parse_graph` or a generator.
    """

    arcs: dict[Arc, int]
    vertices: frozenset[VertexId] = field(compare=False)

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[int, int] | tuple[int, int, int]]) -> "MultiTraversalRelation":
        """Build a relation from ``(tail, head)`` or ``(tail, head, weight)`` triples.

        Repeated (tail, head) entries have their weights summed, matching the
        multiset reading of a literal arc enumeration.  Each entry passes
        :func:`_checked_arc` as it is read.
        """
        table: dict[Arc, int] = {}
        for entry in arcs:
            tail, head, weight = _checked_arc(entry)
            arc = Arc(tail, head)
            table[arc] = table.get(arc, 0) + weight
        if not table:
            raise DomainError("a relation needs at least one arc")
        return cls(arcs=table, vertices=frozenset(v for arc in table for v in arc))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def multiplicity(self, tail: VertexId, head: VertexId) -> int:
        """Stored weight of an arc, 0 when absent."""
        return self.arcs.get((tail, head), 0)

    @cached_property
    def out_adjacency(self) -> dict[VertexId, dict[VertexId, int]]:
        """Tail -> {head: weight}, self-loops included: the weighted unit subgraphs."""
        out: dict[VertexId, dict[VertexId, int]] = defaultdict(dict)
        for (tail, head), weight in self.arcs.items():
            out[tail][head] = weight
        return dict(out)

    @cached_property
    def index_view(self) -> tuple[list[VertexId], dict[VertexId, int], IndexedAdjacency]:
        """Sorted ids, id -> index, and weighted out-rows over indices, self-loops dropped."""
        ids = sorted(self.vertices)
        index = {v: i for i, v in enumerate(ids)}
        rows: list[list[tuple[int, int]]] = [[] for _ in ids]
        for (tail, head), weight in self.arcs.items():
            if tail != head:
                rows[index[tail]].append((index[head], weight))
        return ids, index, tuple(tuple(sorted(row)) for row in rows)

    @cached_property
    def neighbours(self) -> dict[VertexId, frozenset[VertexId]]:
        """Vertex -> neighbours ignoring arc direction, self-loops dropped."""
        table: dict[VertexId, set[VertexId]] = {v: set() for v in self.vertices}
        for tail, head in self.arcs:
            if tail != head:
                table[tail].add(head)
                table[head].add(tail)
        return {v: frozenset(nbrs) for v, nbrs in table.items()}


class GraphClass(enum.Enum):
    DIRECTED = "Directed"
    SIMPLE = "Simple"
    MULTI = "Multi"
    MIXED = "Mixed"


def parse_graph(text: str, *, undirected: bool = False) -> MultiTraversalRelation:
    """Parse the arc-list file format.

    Each non-blank, non-comment line holds 2 or 3 whitespace-separated
    positive integers ``tail head [weight]`` in ASCII digits (weight
    defaults to 1); ``#`` starts a comment running to end of line; duplicate
    (tail, head) lines sum.  With ``undirected`` every arc is mirrored
    (reverse arc with equal weight added) before summing.  A value
    ``from_arcs`` refuses is reported with its line.
    """
    lineno = 0

    def entries() -> Iterator[list[int]]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            try:
                values = _plain_ints(raw.partition("#")[0])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if not values:
                continue
            if len(values) not in (2, 3):
                raise ParseError(f"expected 2 or 3 integer fields, got {len(values)}", lineno)
            yield values
            if undirected:
                yield [values[1], values[0], *values[2:]]
        lineno = 0  # read to the end: no line to blame

    try:
        return MultiTraversalRelation.from_arcs(entries())
    except DomainError as exc:
        if not lineno:
            raise DomainError("empty graph file") from None
        # from_arcs checks each entry as the generator yields it, so lineno is still its line
        raise DomainError(f"line {lineno}: {exc}") from None


def serialize_graph(g: MultiTraversalRelation) -> str:
    """Render a relation in the arc-list format, arcs sorted, one per line."""
    lines = [f"{tail} {head} {weight}" for (tail, head), weight in sorted(g.arcs.items())]
    return "\n".join(lines) + "\n"


def load_graph(path: str, *, undirected: bool = False) -> MultiTraversalRelation:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    return parse_graph(text, undirected=undirected)


def classify(g: MultiTraversalRelation) -> GraphClass:
    """Classify an instance by the symmetry and weights of its arcs.

    Self-loops are ignored.  Simple: every arc and its reverse present with
    weight 1.  Directed: some reverse missing, all weights 1.  Multi: every
    arc/reverse weight pair equal with some weight above 1.  Mixed: anything
    else (unequal visiting opportunities within at least one pair).
    """
    proper = {arc: w for arc, w in g.arcs.items() if arc.tail != arc.head}
    reverse_missing = False
    weights_above_one = False
    pair_unbalanced = False
    for (tail, head), weight in proper.items():
        back = proper.get((head, tail), 0)
        if weight > 1:
            weights_above_one = True
        if back == 0:
            reverse_missing = True
        elif back != weight:
            pair_unbalanced = True
    if pair_unbalanced or (reverse_missing and weights_above_one):
        return GraphClass.MIXED
    if reverse_missing:
        return GraphClass.DIRECTED
    if weights_above_one:
        return GraphClass.MULTI
    return GraphClass.SIMPLE


def layer_adjacency(
    adjacency: Mapping[int, Iterable[int]],
    universe: frozenset[int] | set[int],
    seeds: set[int],
) -> tuple[list[set[int]], set[int]]:
    """The one graph walk: breadth-first layers from ``seeds`` within ``universe``.

    Region one is the seed set; each next region holds the universe vertices
    first reached by one step of ``adjacency``.  Returns the regions and the
    universe vertices never reached.
    """
    regions = [set(seeds)]
    assigned = set(seeds)
    while nxt := {w for v in regions[-1] for w in adjacency.get(v, ())
                  if w in universe and w not in assigned}:
        assigned |= nxt
        regions.append(nxt)
    return regions, set(universe) - assigned


def is_connected(g: MultiTraversalRelation) -> bool:
    """True when the instance is one piece: a layering over ``neighbours`` strands no vertex."""
    _, stranded = layer_adjacency(g.neighbours, g.vertices, {next(iter(g.vertices))})
    return not stranded


def relabel(g: MultiTraversalRelation, mapping: Mapping[VertexId, VertexId]) -> MultiTraversalRelation:
    """Apply a vertex relabeling; ``mapping`` must cover every vertex injectively."""
    uncovered = sorted(g.vertices - mapping.keys())
    if uncovered:
        raise DomainError(f"relabeling does not cover vertices {uncovered}")
    image = {mapping[v] for v in g.vertices}
    if len(image) != g.n:
        raise DomainError("relabeling must be injective over the vertex set")
    return MultiTraversalRelation.from_arcs(
        (mapping[tail], mapping[head], weight) for (tail, head), weight in g.arcs.items()
    )


def random_relabel(g: MultiTraversalRelation, seed: int) -> MultiTraversalRelation:
    """Relabel with a seeded random permutation of the vertex ids."""
    ids = sorted(g.vertices)
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    return relabel(g, dict(zip(ids, shuffled)))


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def _symmetric(edges: Iterable[tuple[int, int]]) -> MultiTraversalRelation:
    arcs = []
    for u, v in edges:
        arcs.append((u, v, 1))
        arcs.append((v, u, 1))
    return MultiTraversalRelation.from_arcs(arcs)


def gen_complete(n: int) -> MultiTraversalRelation:
    """Complete graph on vertices 1..n, all ordered pairs with weight 1."""
    if n < 2:
        raise DomainError("complete graph needs n >= 2")
    return MultiTraversalRelation.from_arcs(
        (i, j, 1) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    )


def gen_cycle(n: int) -> MultiTraversalRelation:
    """Undirected cycle 1-2-...-n-1."""
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return _symmetric((i, i % n + 1) for i in range(1, n + 1))


def gen_path(n: int) -> MultiTraversalRelation:
    """Directed path 1 -> 2 -> ... -> n."""
    if n < 2:
        raise DomainError("path needs n >= 2")
    return MultiTraversalRelation.from_arcs((i, i + 1, 1) for i in range(1, n))


def gen_grid(rows: int, cols: int) -> MultiTraversalRelation:
    """Undirected rows x cols grid, vertices numbered row-major from 1."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise DomainError("grid needs at least two vertices")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _symmetric(edges)


def gen_cycle_sequence(k: int, z: int) -> MultiTraversalRelation:
    """Stacked-ring family: z rings joined so that every vertex has degree 3.

    The first and last rings carry k vertices each, every middle ring carries
    2k; adjacent rings are joined by k spokes, middle rings alternating their
    spokes downward and upward.  Total n = 2(z-1)k.  For k=5, z=3 the result
    is the regular dodecahedron.
    """
    if k < 3:
        raise DomainError("cycle sequence needs k >= 3")
    if z < 2:
        raise DomainError("cycle sequence needs z >= 2")
    sizes = [k] + [2 * k] * (z - 2) + [k]
    rings: list[list[int]] = []
    nxt = 1
    for size in sizes:
        rings.append(list(range(nxt, nxt + size)))
        nxt += size
    edges: list[tuple[int, int]] = []
    for ring in rings:
        m = len(ring)
        edges.extend((ring[i], ring[(i + 1) % m]) for i in range(m))
    for lower, upper in zip(rings, rings[1:]):
        if len(lower) == k and len(upper) == k:
            # z = 2: two k-rings joined as a prism
            edges.extend((lower[i], upper[i]) for i in range(k))
        elif len(lower) == k:
            edges.extend((lower[i], upper[2 * i]) for i in range(k))
        elif len(upper) == k:
            edges.extend((lower[2 * i + 1], upper[i]) for i in range(k))
        else:
            edges.extend((lower[2 * i + 1], upper[2 * i]) for i in range(k))
    return _symmetric(edges)


def gen_dodecahedron() -> MultiTraversalRelation:
    """Regular dodecahedron: outer ring 1-5, middle ring 6-15, inner ring 16-20."""
    return gen_cycle_sequence(5, 3)
