"""Coefficient search against the Euclidean oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgraph import (
    DomainError,
    bocps,
    bocps_batch,
    gcd_of,
    lcm_of,
    minimal_ratio,
)

positive = st.integers(1, 1000)


class TestKnownValues:
    def test_reduced_ratio(self):
        res = bocps(4, 6)
        assert (res.k1, res.k2) == (2, 3)

    def test_symmetric_unit(self):
        res = bocps(1, 1)
        assert (res.k1, res.k2, res.loops) == (1, 1, 2)

    def test_coprime_pair_runs_full_budget(self):
        res = bocps(7, 5)
        assert (res.k1, res.k2, res.loops) == (7, 5, 12)

    @pytest.mark.parametrize("pair, expect", [((4, 6), 2), ((9, 9), 9), ((1, 17), 1)])
    def test_gcd(self, pair, expect):
        assert gcd_of(*pair) == expect

    @pytest.mark.parametrize("pair, expect", [((4, 6), 12), ((9, 1), 9), ((3, 5), 15)])
    def test_lcm(self, pair, expect):
        assert lcm_of(*pair) == expect

    def test_domain(self):
        for bad in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(DomainError):
                bocps(*bad)


class TestOracle:
    @given(positive, positive)
    @settings(max_examples=300)
    def test_matches_euclid(self, m1, m2):
        res = bocps(m1, m2)
        g = math.gcd(m1, m2)
        assert res.k1 * m2 == res.k2 * m1
        assert math.gcd(res.k1, res.k2) == 1
        assert (res.k1, res.k2) == (m1 // g, m2 // g)
        assert gcd_of(m1, m2) == g
        assert lcm_of(m1, m2) == m1 * m2 // g
        assert minimal_ratio(m1, m2) == (m1 // g, m2 // g)
        assert res.loops == res.k1 + res.k2 <= m1 + m2

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 12))
    @settings(max_examples=120)
    def test_scaling_keeps_loops(self, s, t, a):
        # common factors scale the inputs but not the walk
        if math.gcd(s, t) == 1:
            assert bocps(a * s, a * t).loops == bocps(s, t).loops


class TestBatch:
    @pytest.mark.parametrize(
        "m1, m2",
        [
            (None, None),  # 400 random lanes drawn from rnd
            ([73], [74]),
            ([999], [1000]),
            ([1, 999], [1, 1000]),
            (np.arange(1, 13).reshape(3, 4), np.arange(24, 0, -2).reshape(3, 4)),
            ([], []),
            ([5, 1000], [5, 1000]),
            # (2, 4) returns at every phase from phase 1 on and stays present
            # until (992, 1000) finishes at phase 124, so a later return must
            # not overwrite it
            ([2, *range(991, 1000)], [4] + [1000] * 9),
            ([7 * 2**27], [5 * 2**27]),  # int32 lanes, just below the boundary
            ([5 * 2**27], [7 * 2**27]),
            ([7 * 2**28], [5 * 2**28]),  # int64 lanes, above it
            ([5 * 2**28], [7 * 2**28]),
        ],
        ids=["random", "73-74", "999-1000", "two-lanes", "3x4", "empty", "equal", "early-finisher",
             "int32-max", "int32-max-swapped", "int64", "int64-swapped"],
    )
    def test_equals_scalar(self, rnd, m1, m2):
        if m1 is None:
            m1 = [rnd.randint(1, 1000) for _ in range(400)]
            m2 = [rnd.randint(1, 1000) for _ in range(400)]
        m1 = np.array(m1, dtype=np.int64)
        m2 = np.array(m2, dtype=np.int64)
        before = m1.copy(), m2.copy()
        k1, k2, loops = bocps_batch(m1, m2)
        assert k1.shape == k2.shape == loops.shape == m1.shape
        assert k1.dtype == k2.dtype == loops.dtype == np.int64
        for i in np.ndindex(m1.shape):
            res = bocps(int(m1[i]), int(m2[i]))
            assert (res.k1, res.k2, res.loops) == (int(k1[i]), int(k2[i]), int(loops[i]))
        assert np.array_equal(m1, before[0]) and np.array_equal(m2, before[1])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            bocps_batch(np.array([1, 2]), np.array([1]))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bocps_batch(np.array([0]), np.array([1]))


class TestHalfCap:
    def test_skewed_coprime_input_needs_full_budget(self):
        # a budget of max(m1, m2) // 2 = 50 would starve (100, 3), which needs
        # all m1 + m2 = 103 steps, so only the full budget is sound
        assert bocps(100, 3).loops == 103
