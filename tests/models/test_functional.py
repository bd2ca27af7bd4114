"""Functional ops: dense activations and segment reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import functional as F


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert F.relu(x).tolist() == [0.0, 0.0, 2.0]

    def test_leaky_relu(self):
        x = np.array([-10.0, 5.0])
        out = F.leaky_relu(x, 0.2)
        assert out.tolist() == [-2.0, 5.0]

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((5, 7))
        s = F.softmax(x, axis=-1)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=1e-6)

    def test_softmax_stable_for_large_inputs(self):
        s = F.softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(s, [0.5, 0.5])

    def test_linear(self):
        x = np.eye(3, dtype=np.float32)
        w = np.arange(9, dtype=np.float32).reshape(3, 3)
        np.testing.assert_allclose(F.linear(x, w), w)
        np.testing.assert_allclose(F.linear(x, w, np.ones(3)), w + 1)

    def test_linear_shape_check(self):
        with pytest.raises(ValueError):
            F.linear(np.ones((2, 3)), np.ones((4, 2)))

    def test_xavier_bounds(self, rng):
        w = F.xavier_uniform((100, 100), rng)
        a = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= a)
        assert w.dtype == np.float32


def _naive_segment(values, indptr, op, empty):
    n = len(indptr) - 1
    out = []
    for i in range(n):
        seg = values[indptr[i] : indptr[i + 1]]
        out.append(op(seg) if len(seg) else empty)
    return np.array(out)


class TestSegmentOps:
    @pytest.fixture
    def segments(self):
        indptr = np.array([0, 3, 3, 7, 8])
        values = np.array([1.0, 2.0, 3.0, -1.0, 5.0, 2.0, 2.0, 9.0])
        return values, indptr

    def test_segment_sum(self, segments):
        v, p = segments
        np.testing.assert_allclose(F.segment_sum(v, p), [6.0, 0.0, 8.0, 9.0])

    def test_segment_max(self, segments):
        v, p = segments
        np.testing.assert_allclose(F.segment_max(v, p), [3.0, 0.0, 5.0, 9.0])

    def test_segment_2d(self, segments):
        v, p = segments
        v2 = np.stack([v, 2 * v], axis=1)
        out = F.segment_sum(v2, p)
        np.testing.assert_allclose(out[:, 1], 2 * out[:, 0])

    def test_trailing_empty_segments(self):
        v = np.array([1.0, 2.0])
        p = np.array([0, 2, 2, 2])
        np.testing.assert_allclose(F.segment_sum(v, p), [3.0, 0.0, 0.0])

    def test_all_empty(self):
        p = np.array([0, 0, 0])
        np.testing.assert_allclose(F.segment_sum(np.zeros(0), p), [0.0, 0.0])
        np.testing.assert_allclose(F.segment_max(np.zeros(0), p), [0.0, 0.0])

    def test_segment_softmax_sums_to_one(self, segments):
        v, p = segments
        sm = F.segment_softmax(v, p)
        sums = F.segment_sum(sm.astype(np.float64), p)
        lengths = np.diff(p)
        np.testing.assert_allclose(sums[lengths > 0], 1.0, rtol=1e-6)

    def test_segment_softmax_stability(self):
        v = np.array([1e4, 1e4, -1e4])
        p = np.array([0, 3])
        sm = F.segment_softmax(v, p)
        assert np.isfinite(sm).all()
        np.testing.assert_allclose(sm[:2], 0.5, rtol=1e-6)

    def test_segment_softmax_requires_1d(self):
        with pytest.raises(ValueError):
            F.segment_softmax(np.ones((3, 2)), np.array([0, 3]))


@given(
    lengths=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    seed=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_segment_ops_match_naive(lengths, seed):
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    values = rng.standard_normal(int(indptr[-1]))
    np.testing.assert_allclose(
        F.segment_sum(values, indptr),
        _naive_segment(values, indptr, np.sum, 0.0),
        rtol=1e-9, atol=1e-9,
    )
    np.testing.assert_allclose(
        F.segment_max(values, indptr),
        _naive_segment(values, indptr, np.max, 0.0),
        rtol=1e-9, atol=1e-9,
    )
