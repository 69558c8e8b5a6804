"""Content-based recommendation over TF-IDF keyword profiles.

The content-based recommender underlies the paper's content-based
explanation style ("We have recommended X because you liked Y", Section 6)
and Amazon-style explanations (Table 3).  It builds TF-IDF vectors from
item keyword bags, forms a user profile as a rating-weighted sum of rated
item vectors, and scores candidates by cosine similarity — exposing both
the matching keywords (:class:`~repro.recsys.base.KeywordEvidence`) and
the liked items most similar to the candidate
(:class:`~repro.recsys.base.SimilarItemEvidence`).

Vectorized layout: the TF-IDF model holds one contiguous
``(n_items, vocabulary)`` matrix whose row order matches the
:class:`~repro.recsys.data.RatingMatrix` column order, so a whole
candidate pool scores as a single masked multiply-and-sum against the
user's profile vector, and keyword/similar-item evidence is derived from
the same rows the score used.
"""

from __future__ import annotations

import math

import numpy as np

from repro.recsys.base import (
    Evidence,
    KeywordEvidence,
    KeywordInfluence,
    SimilarItemEvidence,
)
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender

__all__ = ["TfIdfModel", "ContentBasedRecommender"]


class TfIdfModel:
    """TF-IDF vectors over item keyword bags.

    Keyword bags are sets, so term frequency is binary; IDF is the
    standard smoothed ``log((1 + N) / (1 + df)) + 1``.  Vectors live as
    rows of one contiguous ``(n_items, vocabulary)`` matrix in catalogue
    order; :meth:`vector` returns row views.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.vocabulary: dict[str, int] = {}
        document_frequency: dict[str, int] = {}
        for item in dataset.items.values():
            for keyword in item.keywords:
                if keyword not in self.vocabulary:
                    self.vocabulary[keyword] = len(self.vocabulary)
                document_frequency[keyword] = (
                    document_frequency.get(keyword, 0) + 1
                )
        n_documents = max(1, len(dataset.items))
        width = len(self.vocabulary)
        self.keywords = list(self.vocabulary)
        self.idf = np.full(width, 0.0)
        for keyword, index in self.vocabulary.items():
            self.idf[index] = (
                math.log((1 + n_documents) / (1 + document_frequency[keyword]))
                + 1.0
            )
        self.matrix = np.full((len(dataset.items), width), 0.0)
        self.n_items = len(dataset.items)
        self._row_of: dict[str, int] = {}
        for row, item in enumerate(dataset.items.values()):
            self._row_of[item.item_id] = row
            self._fill_row(self.matrix[row], item.keywords)
        self._vectors: dict[str, np.ndarray] = {
            item_id: self.matrix[row]
            for item_id, row in self._row_of.items()
        }

    def _fill_row(
        self, vector: np.ndarray, keywords: frozenset[str]
    ) -> None:
        for keyword in keywords:
            index = self.vocabulary.get(keyword)
            if index is not None:
                vector[index] = self.idf[index]
        norm = np.linalg.norm(vector)
        if norm > 0.0:
            vector /= norm

    def vector(self, item_id: str) -> np.ndarray:
        """The (L2-normalised) TF-IDF vector of an item (a matrix row view)."""
        return self._vectors[item_id]

    def similarity(self, item_a: str, item_b: str) -> float:
        """Cosine similarity of two items' TF-IDF vectors."""
        return float(
            (self._vectors[item_a] * self._vectors[item_b]).sum()
        )

    def similarities_to(self, item_id: str, rows: np.ndarray) -> np.ndarray:
        """Cosine similarity of one item against many matrix rows at once."""
        return (self.matrix[rows] * self._vectors[item_id]).sum(axis=1)

    def keyword_overlap(
        self, profile: np.ndarray, item_id: str
    ) -> list[KeywordInfluence]:
        """Per-keyword additive contributions to ``profile . item``."""
        contributions = profile * self._vectors[item_id]
        hits = np.flatnonzero(np.abs(contributions) > 1e-12)
        influences = [
            KeywordInfluence(keyword=keyword, weight=weight)
            for keyword, weight in zip(
                map(self.keywords.__getitem__, hits.tolist()),
                contributions[hits].tolist(),
            )
        ]
        influences.sort(key=lambda k: -k.weight)
        return influences


class ContentBasedRecommender(VectorRecommender):
    """Rating-weighted TF-IDF profile matching.

    The user profile is ``sum_j (r(u,j) - midpoint) * v_j`` over rated
    items, so liked items attract and disliked items repel.  The cosine of
    profile and candidate, in [-1, 1], maps linearly onto the rating
    scale.  A candidate pool scores in one ``(pool, vocabulary)``
    multiply-and-sum; per-item cosines are mathematically identical to
    the old scalar path (same elementwise products, one summation pass).

    Parameters
    ----------
    n_evidence_items:
        How many of the user's liked items to cite as similarity evidence.
    """

    def __init__(self, n_evidence_items: int = 3) -> None:
        super().__init__()
        self.n_evidence_items = n_evidence_items
        self._model: TfIdfModel | None = None
        self._profiles: dict[str, np.ndarray] = {}

    def _fit(self, dataset: Dataset) -> None:
        self._model = TfIdfModel(dataset)
        self._profiles = {}

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        self._profiles = {}
        if self._model is not None and self._model.n_items != matrix.n_items:
            self._model = TfIdfModel(self.dataset)

    @property
    def model(self) -> TfIdfModel:
        """The fitted TF-IDF model."""
        if self._model is None:
            self.dataset  # noqa: B018  raises NotFittedError
            raise AssertionError("unreachable")
        return self._model

    def profile(self, user_id: str) -> np.ndarray:
        """The user's (cached) rating-weighted keyword profile vector.

        One weighted row-sum over the TF-IDF matrix — bitwise identical
        to accumulating ``(value - midpoint) * vector`` rating by rating.
        """
        cached = self._profiles.get(user_id)
        if cached is not None:
            return cached
        matrix = self._matrix()
        model = self.model
        row = matrix.row_of.get(user_id)
        rated = matrix.user_cols(row) if row is not None else np.full(0, 0)
        if rated.size == 0:
            vector = np.full(len(model.vocabulary), 0.0)
        else:
            weights = matrix.user_vals(row) - matrix.scale.midpoint
            vector = (weights[:, None] * model.matrix[rated]).sum(axis=0)
        norm = np.linalg.norm(vector)
        if norm > 0.0:
            vector = vector / norm
        self._profiles[user_id] = vector
        return vector

    def invalidate_profile(self, user_id: str) -> None:
        """Drop the cached profile after the user's ratings changed."""
        self._profiles.pop(user_id, None)

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Cosine(profile, item) over the pool, mapped onto the scale."""
        model = self.model
        profile = self.profile(user_id)
        size = cols.size
        if not np.any(profile):
            zero = np.full(size, 0.0)
            return PoolScores(
                cols=cols,
                values=zero,
                confidences=zero,
                ok=np.full(size, False),
                context={},
            )
        match = (model.matrix[cols] * profile).sum(axis=1)
        scale = matrix.scale
        values = scale.denormalize_array((match + 1.0) / 2.0)
        row = matrix.row_of[user_id]
        n_ratings = int(matrix.user_cols(row).size)
        confidences = min(1.0, n_ratings / 10.0) * np.minimum(
            1.0, np.abs(match) + 0.2
        )
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=np.full(size, True),
            context={"profile": profile, "match": match},
        )

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        return f"user {user_id!r} has an empty content profile"

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Keyword overlap plus the liked items most similar to the pick."""
        model = self.model
        item_id = matrix.item_ids[int(scores.cols[idx])]
        keyword_influences = model.keyword_overlap(
            scores.context["profile"], item_id
        )
        evidence: list[Evidence] = [
            KeywordEvidence(influences=tuple(keyword_influences))
        ]
        evidence.extend(self._liked_similar(user_id, item_id, matrix))
        return tuple(evidence)

    def _liked_similar(
        self, user_id: str, item_id: str, matrix: RatingMatrix
    ) -> list[SimilarItemEvidence]:
        """The user's liked items most content-similar to the candidate."""
        model = self.model
        scale = matrix.scale
        row = matrix.row_of[user_id]
        rated = matrix.user_cols(row)
        rated_values = matrix.user_vals(row)
        col = matrix.col_of[item_id]
        assert scale.like_threshold is not None
        liked = np.flatnonzero(
            (rated_values >= scale.like_threshold) & (rated != col)
        )
        if liked.size == 0:
            return []
        liked_cols = rated[liked]
        similarities = model.similarities_to(item_id, liked_cols)
        positive = np.flatnonzero(similarities > 0.0)
        order = positive[
            np.lexsort(
                (
                    matrix.item_rank[liked_cols[positive]],
                    -similarities[positive],
                )
            )
        ][: self.n_evidence_items]
        cited = zip(
            map(matrix.item_ids.__getitem__, liked_cols[order].tolist()),
            similarities[order].tolist(),
            rated_values[liked[order]].tolist(),
        )
        return [
            SimilarItemEvidence(
                item_id=other, similarity=sim, user_rating=rating
            )
            for other, sim, rating in cited
        ]
