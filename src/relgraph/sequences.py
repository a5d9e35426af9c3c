"""Trail, path and cycle algebra over ordered arc sequences.

An arc sequence refuses what core refuses in an arc (an id that is not an
integer, or is below 1) and is otherwise classified, not validated: a trail
chains head to tail with no self-loops and at least two arcs; a path is a
trail (or a single arc) whose interior vertices are pairwise distinct and
whose only permitted repetition is first tail equalling last head; a cycle
is a closed path of length at least two.  Cycle permutation swaps a
length-m prefix with the remaining suffix; M applications rotate the
sequence, and the least M returning to the identity is N / gcd(N, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Arc, _checked_arc
from .errors import DomainError


@dataclass(frozen=True)
class ArcSequence:
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        for arc in self.arcs:
            _checked_arc(arc)

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "ArcSequence":
        return cls(tuple(Arc(*p) for p in pairs))

    def __len__(self) -> int:
        return len(self.arcs)

    def vertex_walk(self) -> tuple[int, ...]:
        """The visited vertex sequence, length N + 1 (empty sequence gives ())."""
        if not self.arcs:
            return ()
        walk = [self.arcs[0].tail]
        walk.extend(arc.head for arc in self.arcs)
        return tuple(walk)


@dataclass(frozen=True)
class CyclePermutation:
    """Prefix length m and repetition count M of a prefix/suffix swap."""

    index: int
    power: int


def _chained(s: ArcSequence) -> bool:
    return all(a.head == b.tail for a, b in zip(s.arcs, s.arcs[1:]))


def _loop_free(s: ArcSequence) -> bool:
    return all(arc.tail != arc.head for arc in s.arcs)


def is_trail(s: ArcSequence) -> int:
    """1 iff the sequence chains, contains no self-loop and has length > 1."""
    return int(len(s) > 1 and _loop_free(s) and _chained(s))


def is_path(s: ArcSequence) -> int:
    """1 iff the walk repeats no vertex, except possibly first tail = last head.

    A single non-loop arc is a path; interior (medium) vertices must be
    pairwise distinct and distinct from both ends.
    """
    if len(s) == 0 or not _loop_free(s) or not _chained(s):
        return 0
    walk = s.vertex_walk()
    heads = walk[1:]
    tails = walk[:-1]
    return int(len(set(heads)) == len(heads) and len(set(tails)) == len(tails))


def is_cycle(s: ArcSequence) -> int:
    """1 iff a path of length >= 2 closing on itself (first tail = last head)."""
    if len(s) < 2 or not is_path(s):
        return 0
    return int(s.arcs[0].tail == s.arcs[-1].head)


def medium_vertices(s: ArcSequence) -> tuple[int, ...]:
    """Interior vertices of a path in walk order: the heads of all but the last arc."""
    if not is_path(s):
        raise DomainError("medium vertices are defined on paths only")
    return tuple(arc.head for arc in s.arcs[:-1])


def cycle_permute(s: ArcSequence, p: CyclePermutation) -> ArcSequence:
    """Swap the length-m prefix with the suffix, M times over.

    Equivalent to rotating the sequence left by m positions M times; the
    result is again a cycle of the same length.
    """
    if not is_cycle(s):
        raise DomainError("cycle permutation is defined on cycles only")
    n = len(s)
    if not 0 <= p.index <= n:
        raise DomainError(f"permutation index must lie in 0..{n}")
    if p.power < 0:
        raise DomainError("permutation power must be non-negative")
    shift = (p.index * p.power) % n
    return ArcSequence(s.arcs[shift:] + s.arcs[:shift])


def minimal_power(n: int, m: int) -> int:
    """Least M >= 1 with the index-m permutation acting as the identity.

    Equals n / gcd(n, m) for 1 <= m < n and 1 for m = n (the swap moves
    nothing); never exceeds n.
    """
    if not 1 <= m <= n:
        raise DomainError("permutation index must lie in 1..n")
    if m == n:
        return 1
    return n // math.gcd(n, m)


def chains_of(s: ArcSequence) -> tuple[ArcSequence, ...]:
    """Every rotation of a cycle with its final arc dropped.

    Every chain spans the cycle's full vertex set; a cycle of length N yields
    exactly N chains, all distinct, since a cycle's tails are distinct and so
    each rotation's chain starts with a different arc.
    """
    if not is_cycle(s):
        raise DomainError("chains are defined on cycles only")
    arcs = s.arcs
    return tuple(ArcSequence((arcs[r:] + arcs[:r])[:-1]) for r in range(len(arcs)))


def path_to_sequence(vertices: tuple[int, ...], close: bool = False) -> ArcSequence:
    """Arc sequence of a vertex walk, optionally closed back to its start."""
    if close and not vertices:
        raise DomainError("an empty walk has no start to close back to")
    arcs = [Arc(u, v) for u, v in zip(vertices, vertices[1:])]
    if close:
        arcs.append(Arc(vertices[-1], vertices[0]))
    return ArcSequence(tuple(arcs))
