"""Unit + property tests for the user-CF similarity kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recsys.cf_user import UserBasedCF
from repro.recsys.similarity import pearson_batch

vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=2,
    max_size=20,
)


def pearson(a, b, mask=None):
    """One-row :func:`pearson_batch`: ``(similarity, overlap)`` of a vs b."""
    target = np.array(a, dtype=float)
    candidate = np.array([b], dtype=float)
    if mask is None:
        mask = np.full(candidate.shape, True)
    else:
        mask = np.array([mask], dtype=bool)
    sims, overlaps = pearson_batch(target, candidate, mask)
    return float(sims[0]), int(overlaps[0])


def bob_weight(dataset, **params):
    """alice's weighted similarity to bob in the user-CF neighbor index."""
    weights, _ = UserBasedCF(**params).fit(dataset).neighbor_index("alice")
    return float(weights[dataset.rating_matrix().row_of["bob"]])


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == (pytest.approx(1.0), 3)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == (pytest.approx(-1.0), 3)

    def test_zero_variance_returns_zero(self):
        assert pearson([2, 2, 2], [1, 2, 3]) == (0.0, 3)

    def test_single_point_returns_zero(self):
        assert pearson([1.0, 4.0], [2.0, 5.0], mask=[True, False]) == (
            0.0,
            1,
        )

    def test_masked_columns_not_counted(self):
        masked = pearson(
            [1, 2, 3, 9], [2, 4, 6, -50], mask=[True, True, True, False]
        )
        assert masked == pearson([1, 2, 3], [2, 4, 6])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson_batch(
                np.array([1.0, 2.0]),
                np.array([[1.0, 2.0, 3.0]]),
                np.full((1, 3), True),
            )
        with pytest.raises(ValueError):
            pearson_batch(
                np.array([1.0, 2.0]),
                np.array([[1.0, 2.0]]),
                np.full((1, 3), True),
            )

    @given(vectors)
    @settings(max_examples=50)
    def test_self_similarity_nonnegative(self, values):
        similarity, overlap = pearson(values, values)
        assert similarity >= 0.0
        assert overlap == len(values)

    @given(vectors, vectors)
    @settings(max_examples=50)
    def test_bounded_and_symmetric(self, a, b):
        size = min(len(a), len(b))
        value, _ = pearson(a[:size], b[:size])
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(pearson(b[:size], a[:size])[0])


class TestSignificanceWeight:
    """Herlocker devaluation, as user-CF applies it to the kernel's output."""

    def test_below_gamma_scales_linearly(self, tiny_dataset):
        # alice and bob agree perfectly over 3 co-rated items: 3 / 10.
        assert bob_weight(tiny_dataset, significance_gamma=10) == (
            pytest.approx(0.3)
        )

    def test_at_or_above_gamma_is_one(self, tiny_dataset):
        unweighted = bob_weight(tiny_dataset, significance_gamma=0)
        assert bob_weight(tiny_dataset, significance_gamma=3) == unweighted
        assert bob_weight(tiny_dataset, significance_gamma=2) == unweighted
