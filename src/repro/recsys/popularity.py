"""Non-personalised popularity/recency baseline.

The simplest presentation in the paper offers "the most popular and recent
item from the world cup" (Section 4.1).  This recommender scores items by
a blend of Bayesian-damped mean rating, rating count and recency, and
attaches :class:`~repro.recsys.base.PopularityEvidence` so explainers can
say exactly that.

It also serves as the control condition in studies comparing personalised
against non-personalised recommendations.

Vectorized layout: per-item rating counts fall out of the
:class:`~repro.recsys.data.RatingMatrix` item index pointers, per-item
rating totals out of one guarded segmented reduction, and a whole
candidate pool scores in a handful of elementwise array expressions.
"""

from __future__ import annotations

import numpy as np

from repro.recsys.base import Evidence, PopularityEvidence
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender

__all__ = ["PopularityRecommender"]


class PopularityRecommender(VectorRecommender):
    """Bayesian-damped popularity with an optional recency bonus.

    Parameters
    ----------
    damping:
        Pseudo-count of global-mean ratings blended into each item mean.
    recency_weight:
        Fraction of the score (on the rating scale) granted to the newest
        item; 0 disables recency.
    """

    def __init__(self, damping: float = 5.0, recency_weight: float = 0.25) -> None:
        super().__init__()
        if damping < 0.0:
            raise ValueError(f"damping must be >= 0, got {damping}")
        if not 0.0 <= recency_weight < 1.0:
            raise ValueError(
                f"recency_weight must be in [0, 1), got {recency_weight}"
            )
        self.damping = damping
        self.recency_weight = recency_weight
        self._global_mean = 0.0
        self._recency_low = 0.0
        self._recency_span = 1.0

    def _fit(self, dataset: Dataset) -> None:
        self._global_mean = dataset.global_mean()
        matrix = dataset.rating_matrix()
        if matrix.n_items:
            self._recency_low = float(np.min(matrix.item_recency))
            self._recency_span = max(
                float(np.max(matrix.item_recency)) - self._recency_low,
                1e-12,
            )

    def _item_totals(self, matrix: RatingMatrix) -> np.ndarray:
        """Per-item rating-value totals via one segmented reduction.

        ``reduceat`` runs over the starts of *non-empty* segments only:
        consecutive non-empty starts are exactly the true segment
        boundaries (empty segments contribute nothing between them), and
        every such start is a valid index — no clamping that could eat a
        neighbouring segment's tail.
        """
        totals = np.full(matrix.n_items, 0.0)
        if matrix.i_vals.size == 0:
            return totals
        nonempty = np.flatnonzero(np.diff(matrix.i_indptr) > 0)
        totals[nonempty] = np.add.reduceat(
            matrix.i_vals, matrix.i_indptr[:-1][nonempty]
        )
        return totals

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Damped item mean blended with recency; identical for all users."""
        counts = np.diff(matrix.i_indptr)[cols]
        totals = self._item_totals(matrix)[cols]
        damped = (totals + self.damping * self._global_mean) / (
            counts + self.damping
        )
        scale = matrix.scale
        base = scale.normalize_array(damped)
        recency = matrix.item_recency[cols]
        blended = (1.0 - self.recency_weight) * base + self.recency_weight * (
            (recency - self._recency_low) / self._recency_span
        )
        values = scale.denormalize_array(blended)
        confidences = 1.0 - np.exp(-counts / 10.0)
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=np.full(cols.size, True),
            context={"counts": counts, "damped": damped, "recency": recency},
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        return (
            PopularityEvidence(
                n_ratings=int(scores.context["counts"][idx]),
                mean_rating=float(scores.context["damped"][idx]),
                recency=float(scores.context["recency"][idx]),
            ),
        )
