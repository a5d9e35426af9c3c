"""Minimal coefficient search over a two-block rotation cursor.

For positive integers m1, m2 a cursor starts at 1 and repeatedly either adds
m2 (within the first block) or subtracts m1 (beyond it), booking the two
moves in k1 and k2.  The cursor first returns to 1 when k1*m2 = k2*m1 with
(k1, k2) minimal, after exactly (m1 + m2) / gcd(m1, m2) steps; the pair
yields the gcd, the lcm and the reduced ratio of m1 : m2.

:func:`bocps_batch` runs the cursor over numpy lanes one phase (an add run
then a subtract run) at a time, on live lanes only: a lane leaves the arrays
in the phase its cursor returns to 1.  Each lane needs min(m1, m2) / gcd
phases, so the inputs bound the phase loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvariantViolation


@dataclass(frozen=True)
class BocpsResult:
    """Minimal positive solution of k1*m2 = k2*m1 plus the iteration count."""

    k1: int
    k2: int
    loops: int


def _validate(m1: int, m2: int) -> None:
    if m1 < 1 or m2 < 1:
        raise DomainError(f"inputs must be positive integers, got ({m1}, {m2})")


def bocps(m1: int, m2: int, *, half_cap: bool = False) -> BocpsResult:
    """Run the cursor until it returns to 1; at most m1 + m2 steps.

    ``half_cap`` swaps the step budget for max(m1, m2) // 2 whenever that
    exceeds min(m1, m2).  The tighter budget is an unproven optimisation and
    genuinely starves some inputs (for instance (100, 3) needs 103 steps);
    a starved run raises :class:`ConvergenceError` rather than returning a
    wrong pair, which is why the flag is off by default.
    """
    _validate(m1, m2)
    cap = m1 + m2
    if half_cap and max(m1, m2) // 2 > min(m1, m2):
        cap = max(m1, m2) // 2
    s = 1
    k1 = k2 = 0
    loops = 0
    for _ in range(cap):
        if s > m1:
            s -= m1
            k2 += 1
        else:
            s += m2
            k1 += 1
        loops += 1
        if s == 1:
            break
    if s != 1:
        if half_cap:
            raise ConvergenceError(
                f"cursor did not return within the halved budget {cap} for ({m1}, {m2})"
            )
        raise InvariantViolation(f"cursor failed to return within {cap} steps for ({m1}, {m2})")
    return BocpsResult(k1=k1, k2=k2, loops=loops)


def gcd_of(m1: int, m2: int) -> int:
    """Greatest common factor, read off as m1 / k1."""
    res = bocps(m1, m2)
    return m1 // res.k1


def lcm_of(m1: int, m2: int) -> int:
    """Least common multiple, read off as m1 * k2."""
    res = bocps(m1, m2)
    return m1 * res.k2


def minimal_ratio(m1: int, m2: int) -> tuple[int, int]:
    """m1 : m2 reduced to lowest terms, as (k1, k2)."""
    res = bocps(m1, m2)
    return res.k1, res.k2


def bocps_batch(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the cursor data-parallel over paired input arrays.

    Follows the same trajectory as :func:`bocps` with consecutive identical
    moves run-length compressed: each phase adds m2 while the cursor is at or
    below m1, then subtracts m1 while it is above, each run in one vectorised
    step.  The cursor can only sit at 1 at a subtract-run end, so no stop test
    is skipped; k1 and k2 come out identical to the scalar loop's and loops is
    k1 + k2.  A lane that reaches 1 is written out and dropped, so each phase
    works on live lanes only.  Every lane needs exactly min(m1, m2) / gcd
    phases, so a lane still live after max(min(m1, m2)) phases is an
    :class:`InvariantViolation`.  The input arrays are not modified.  Returns
    (k1, k2, loops) arrays shaped like the inputs.
    """
    m1 = np.asarray(m1, dtype=np.int64)
    m2 = np.asarray(m2, dtype=np.int64)
    if m1.shape != m2.shape:
        raise DomainError("input arrays must have matching shapes")
    if m1.size and (m1.min() < 1 or m2.min() < 1):
        raise DomainError("inputs must be positive integers")
    k1 = np.zeros(m1.size, dtype=np.int64)
    k2 = np.zeros(m1.size, dtype=np.int64)
    lane = np.arange(m1.size)
    a1 = m1.ravel()
    a2 = m2.ravel()
    s = np.ones(m1.size, dtype=np.int64)
    q1 = np.zeros(m1.size, dtype=np.int64)
    q2 = np.zeros(m1.size, dtype=np.int64)
    for _ in range(int(np.minimum(a1, a2).max(initial=0))):
        if not lane.size:
            break
        q = (a1 - s) // a2 + 1  # adds while s <= m1; s stays above 1 throughout
        s += q * a2
        q1 += q
        r = (s - 1) // a1  # subtracts until s <= m1 again
        s -= r * a1
        q2 += r
        done = s == 1
        if done.any():
            k1[lane[done]] = q1[done]
            k2[lane[done]] = q2[done]
            live = ~done
            lane, a1, a2, s, q1, q2 = (x[live] for x in (lane, a1, a2, s, q1, q2))
    if lane.size:
        raise InvariantViolation("batched cursor failed to converge within min(m1, m2) phases")
    return k1.reshape(m1.shape), k2.reshape(m1.shape), (k1 + k2).reshape(m1.shape)
