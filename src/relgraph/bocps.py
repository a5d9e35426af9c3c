"""Minimal coefficient search over a two-block rotation cursor.

For positive integers m1, m2 a cursor starts at 1 and repeatedly either adds
m2 (within the first block) or subtracts m1 (beyond it), booking the two
moves in k1 and k2.  The cursor first returns to 1 when k1*m2 = k2*m1 with
(k1, k2) minimal, after exactly (m1 + m2) / gcd(m1, m2) steps; the pair is
the reduced ratio of m1 : m2, and :func:`bocps` returns it with the gcd
m1 / k1 and the lcm m1 * k2 read off it.

:func:`bocps_batch` runs the cursor over numpy lanes one phase (an add run
then a subtract run) at a time.  A lane holds x = s - 1, which is 0 exactly
when the cursor is at 1.  One run of every phase has length 1 (the add when
m2 > m1, the subtract otherwise), so a phase is one ``divmod``: the phase
count books one coefficient and the quotients sum into the other.  Lanes are
int32 whenever max(m1) + max(m2) < 2**31.  A lane that returns to 1 is
written out and masked off, and retires from the arrays at the next
compaction.  Each lane needs min(m1, m2) / gcd phases, so the inputs bound
the phase loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantViolation


@dataclass(frozen=True)
class BocpsResult:
    """Minimal positive solution of k1*m2 = k2*m1, its step count and what it yields.

    ``loops`` = k1 + k2 is the number of cursor steps, ``gcd`` = m1 / k1 and
    ``lcm`` = m1 * k2; (k1, k2) is m1 : m2 in lowest terms.
    """

    k1: int
    k2: int
    loops: int
    gcd: int
    lcm: int


def bocps(m1: int, m2: int) -> BocpsResult:
    """Run the cursor until it returns to 1; at most m1 + m2 steps.

    The cursor needs exactly (m1 + m2) / gcd(m1, m2) steps, so a cursor
    still away from 1 after m1 + m2 steps is an :class:`InvariantViolation`.
    """
    if m1 < 1 or m2 < 1:
        raise DomainError(f"inputs must be positive integers, got ({m1}, {m2})")
    cap = m1 + m2
    s = 1
    k1 = k2 = 0
    for _ in range(cap):
        if s > m1:
            s -= m1
            k2 += 1
        else:
            s += m2
            k1 += 1
        if s == 1:
            break
    if s != 1:
        raise InvariantViolation(f"cursor failed to return within {cap} steps for ({m1}, {m2})")
    return BocpsResult(k1=k1, k2=k2, loops=k1 + k2, gcd=m1 // k1, lcm=m1 * k2)


# bocps_batch compacts its lane arrays once at least 1/_COMPACT_SHARE of the
# lanes present have finished.  A compaction gathers five arrays, about the
# cost of four phases, while a finished lane left in place costs one divmod
# per phase; on the 1..1000 grid an eighth ran faster than compacting at
# every finish or at a half.
_COMPACT_SHARE = 8
_INT64_MAX = np.iinfo(np.int64).max
# a phase costs about 10 us even on one lane, so the cap is about ten seconds
_PHASE_CAP = 10**6


def _int64_lanes(m) -> np.ndarray:
    """``m`` as an int64 array, refusing input that the cast would truncate or wrap."""
    m = np.asarray(m)
    fits = m.dtype.kind == "i" or (m.dtype.kind == "u" and not (m > _INT64_MAX).any())
    if not fits:
        raise DomainError(f"bocps_batch needs integers within int64, got {m.dtype}; use the scalar bocps")
    return m.astype(np.int64, copy=False)


def bocps_batch(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the cursor data-parallel over paired input arrays.

    Follows the same trajectory as :func:`bocps` with consecutive identical
    moves run-length compressed.  Each lane keeps x = s - 1, so the cursor is
    at 1 exactly when x == 0, and x starts every phase below m1.  One of the
    two runs of a phase always has length 1:

    - m2 > m1: one add, then r subtracts, ``r, x = divmod(x + m2, m1)``; the
      phase counts k1 and r sums into k2;
    - m1 >= m2: q adds, then one subtract, ``-q, x = divmod(x - m1, m2)``;
      the phase counts k2 and q sums into k1.

    So every lane does one ``divmod`` per phase.  The cursor passes 1 only at
    a phase end, so no stop test is skipped; k1 and k2 come out identical to
    the scalar loop's and loops is k1 + k2.  Every value stays in
    [-m1, m1 + m2), so the lanes are int32 when max(m1) + max(m2) < 2**31 and
    int64 otherwise; the returned arrays are int64 either way.

    A lane is written out at its first return to 1 and masked off; the lane
    arrays are compacted once at least an eighth of the lanes present have
    finished.  Every lane needs exactly min(m1, m2) / gcd phases.  The loop
    runs max(min(m1, m2)) phases, or the exact maximum when that passes
    ``_PHASE_CAP``; a lane still open after them is an
    :class:`InvariantViolation`.  The input arrays are not modified.  Returns
    (k1, k2, loops) arrays shaped like the inputs.  Input that is not of an
    integer dtype, whose values or lane sums m1 + m2 leave int64, or where
    some lane needs more than ``_PHASE_CAP`` phases raises
    :class:`DomainError`; the scalar :func:`bocps` has no such limit.
    """
    m1 = _int64_lanes(m1)
    m2 = _int64_lanes(m2)
    if m1.shape != m2.shape:
        raise DomainError("input arrays must have matching shapes")
    if m1.size and (m1.min() < 1 or m2.min() < 1):
        raise DomainError("inputs must be positive integers")
    k1 = np.zeros(m1.size, dtype=np.int64)
    k2 = np.zeros(m1.size, dtype=np.int64)
    a1 = m1.ravel()
    a2 = m2.ravel()
    top = int(a1.max(initial=0)) + int(a2.max(initial=0))
    if top > _INT64_MAX and (a1 > _INT64_MAX - a2).any():
        raise DomainError("m1 + m2 reaches 2**63 in some lane; use the scalar bocps")
    phases = int(np.minimum(a1, a2).max(initial=0))
    if phases > _PHASE_CAP:
        phases = int((np.minimum(a1, a2) // np.gcd(a1, a2)).max())
        if phases > _PHASE_CAP:
            raise DomainError(f"some lane needs {phases} phases, above the cap of {_PHASE_CAP}")
    dtype = np.int32 if top < 2**31 else np.int64
    up = a2 > a1
    step = np.where(up, a2, -a1).astype(dtype)
    mod = np.where(up, a1, a2).astype(dtype)
    x = np.zeros(m1.size, dtype=dtype)
    acc = np.zeros(m1.size, dtype=dtype)  # signed: sums r when up, -q otherwise
    lane = np.arange(m1.size)
    open_ = np.ones(m1.size, dtype=bool)
    n_open = m1.size
    for phase in range(1, phases + 1):
        if not n_open:
            break
        quot, x = np.divmod(x + step, mod)
        acc += quot
        done = x == 0
        done &= open_
        i = np.flatnonzero(done)
        if not i.size:
            continue
        # A finished lane stays in the arrays and keeps cycling until the next
        # compaction; its acc may wrap, but it is masked off and never read.
        runs = acc[i].astype(np.int64)
        counted = step[i] > 0
        k1[lane[i]] = np.where(counted, phase, -runs)
        k2[lane[i]] = np.where(counted, runs, phase)
        open_ &= ~done
        n_open -= i.size
        if _COMPACT_SHARE * (x.size - n_open) >= x.size:
            lane, step, mod, x, acc = (a[open_] for a in (lane, step, mod, x, acc))
            open_ = np.ones(x.size, dtype=bool)
    if n_open:
        raise InvariantViolation("batched cursor failed to converge within min(m1, m2) phases")
    return k1.reshape(m1.shape), k2.reshape(m1.shape), (k1 + k2).reshape(m1.shape)
