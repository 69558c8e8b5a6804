"""Vectorized scoring engine shared by the numpy substrates.

:class:`VectorRecommender` is the template base behind the contiguous
rebuild of ``repro.recsys``: substrates implement one batched
``_score_pool`` hook that scores a whole candidate-column array in a
single numpy pass against the dataset's
:class:`~repro.recsys.data.RatingMatrix` snapshot.
:class:`~repro.recsys.base.Recommender` derives ``predict_many``,
``recommend`` and ``recommend_many`` from that pool pass for every
recommender; this base adds ``predict`` as a one-column pass.

Evidence is generated *after* ranking, only for the entries a caller
actually receives, from the batch intermediates ``_score_pool`` stashes
in :class:`~repro.recsys.base.PoolScores` ``context`` — explanation
generation reuses the batch pass instead of recomputing per item.

The numerical contract (see ``docs/vectorization.md`` and
``tests/recsys/test_vectorized_parity.py``): scores match a per-item
reference within 1 ulp (bitwise for the user-CF substrate), rankings
and neighbor orderings never flip, and evidence renders byte-identically.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import PredictionImpossibleError
from repro.recsys.base import Evidence, PoolScores, Prediction, Recommender
from repro.recsys.data import RatingMatrix

__all__ = ["PoolScores", "VectorRecommender", "top_k_segments"]


def top_k_segments(
    sort_cols: np.ndarray, k: int
) -> np.ndarray:
    """Keep the first ``k`` occurrences of each run in a sorted column array.

    ``sort_cols`` must be non-decreasing (the primary key of an already
    sorted entry list).  Returns a boolean keep-mask computed in one
    vectorized pass: position ``p``'s occurrence rank within its run is
    ``p - start_of_run(p)``.
    """
    total = sort_cols.size
    if total == 0:
        return np.full(0, False)
    boundary = np.full(total, False)
    boundary[0] = True
    boundary[1:] = sort_cols[1:] != sort_cols[:-1]
    starts = np.where(boundary, np.arange(total), 0)
    run_start = np.maximum.accumulate(starts)
    occurrence = np.arange(total) - run_start
    return occurrence < k


class VectorRecommender(Recommender):
    """Template base for recommenders that score item pools in one pass.

    Substrates implement ``_score_pool`` (batch scoring over a column
    array, counted by :meth:`~repro.recsys.base.Recommender.score_pool`)
    and :meth:`evidence_for` (evidence for one scored entry, built from
    the batch intermediates) with no per-item Python in the scoring
    path.  Wrappers that delegate a pass to another recommender (the
    resilience wrappers) override ``score_pool`` itself.  Either way
    :meth:`predict` is a one-column pass with the scalar path's
    validation order and failure messages.
    """

    @abc.abstractmethod
    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Evidence tuple for pool entry ``idx``, from batch intermediates."""

    def predict(self, user_id: str, item_id: str) -> Prediction:
        """Single prediction via a one-column batch pass."""
        dataset = self.dataset
        dataset.user(user_id)
        dataset.item(item_id)
        matrix = self._matrix()
        cols = np.empty(1, dtype=np.intp)
        cols[0] = matrix.col_of[item_id]
        scores = self.score_pool(user_id, cols, matrix)
        if not bool(scores.ok[0]):
            raise PredictionImpossibleError(
                self._impossible_message(user_id, item_id, scores, 0)
            ) from scores.context.get("error")
        return Prediction(
            value=float(scores.values[0]),
            confidence=float(scores.confidences[0]),
            evidence=self.evidence_for(user_id, scores, 0, matrix),
        )
