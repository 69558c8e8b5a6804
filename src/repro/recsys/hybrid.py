"""Weighted hybrid recommendation.

Commercial systems in the survey's Table 3 mix knowledge sources —
Amazon explains content-similarly but ranks collaboratively.  The
weighted hybrid blends any number of component recommenders, weighting
each component's prediction by its own confidence as well as its
configured weight, and **concatenates their evidence**, so a single
explanation can honestly draw on every contributing source (the paper's
Section 6 classifies explanation style "regardless of the underlying
algorithm" — the hybrid is where that distinction earns its keep).

Vectorized layout: every component scores the whole candidate pool in
one ``score_pool`` call (scalar components through the per-item adapter
they inherit from :class:`~repro.recsys.base.Recommender`).  The blend
itself is a sequential pass of array expressions over the component
results in configuration order — the same float accumulation order as
blending each item by hand.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.recsys.base import Evidence, Recommender
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender

__all__ = ["HybridRecommender"]


class HybridRecommender(VectorRecommender):
    """Confidence-weighted blend of component recommenders.

    Parameters
    ----------
    components:
        ``(recommender, weight)`` pairs.  Weights must be positive.
    require_all:
        When ``True``, a prediction needs every component to succeed;
        by default any non-empty subset suffices (graceful degradation).
    """

    def __init__(
        self,
        components: Sequence[tuple[Recommender, float]],
        require_all: bool = False,
    ) -> None:
        super().__init__()
        if not components:
            raise ValueError("a hybrid needs at least one component")
        for __, weight in components:
            if weight <= 0.0:
                raise ValueError(f"component weights must be > 0, got {weight}")
        self.components = list(components)
        self.require_all = require_all

    def _fit(self, dataset: Dataset) -> None:
        for recommender, __ in self.components:
            recommender.fit(dataset)

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Blend component predictions, weighting by weight x confidence."""
        size = cols.size
        results = [
            (component, weight, component.score_pool(user_id, cols, matrix))
            for component, weight in self.components
        ]
        total_mass = np.full(size, 0.0)
        value = np.full(size, 0.0)
        confidence = np.full(size, 0.0)
        n_ok = np.full(size, 0)
        v_max = np.full(size, -np.inf)
        v_min = np.full(size, np.inf)
        for __, weight, result in results:
            mass = weight * np.maximum(result.confidences, 0.05)
            total_mass = total_mass + np.where(result.ok, mass, 0.0)
            value = value + np.where(
                result.ok, mass * result.values, 0.0
            )
            confidence = np.where(
                result.ok,
                np.maximum(confidence, result.confidences),
                confidence,
            )
            n_ok = n_ok + result.ok
            v_max = np.where(
                result.ok, np.maximum(v_max, result.values), v_max
            )
            v_min = np.where(
                result.ok, np.minimum(v_min, result.values), v_min
            )
        ok = n_ok > 0
        if self.require_all:
            ok = n_ok == len(results)
        value = value / np.where(total_mass > 0.0, total_mass, 1.0)
        # Agreement between components raises confidence slightly.
        spread = np.where(n_ok > 1, v_max - v_min, 0.0)
        agreement = np.maximum(0.0, 1.0 - spread / matrix.scale.span)
        confidence = np.where(
            n_ok > 1,
            np.minimum(1.0, confidence * (0.8 + 0.4 * agreement)),
            confidence,
        )
        return PoolScores(
            cols=cols,
            values=matrix.scale.clip_array(value),
            confidences=np.where(ok, confidence, 0.0),
            ok=ok,
            context={"results": results, "n_ok": n_ok},
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Concatenate evidence from every contributing component, in order."""
        evidence: list[Evidence] = []
        for component, __, result in scores.context["results"]:
            if bool(result.ok[idx]):
                evidence.extend(
                    component.evidence_for(user_id, result, idx, matrix)
                )
        return tuple(evidence)

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        if self.require_all:
            for component, __, result in scores.context["results"]:
                if not bool(result.ok[idx]):
                    return component._impossible_message(
                        user_id, item_id, result, idx
                    )
        return (
            f"no hybrid component could predict ({user_id!r}, "
            f"{item_id!r})"
        )
