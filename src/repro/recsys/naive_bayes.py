"""LIBRA-style naive-Bayes text recommender with influence attribution.

Bilgic & Mooney's LIBRA book recommender (paper reference [5], Figure 3)
classifies items into *like* / *dislike* with a naive-Bayes model over
keyword features, trained on the user's own rated items, and explains a
recommendation by showing **how much each past rating influenced it**.

This module reproduces both halves:

* a weighted Bernoulli naive-Bayes classifier per user, where each rated
  item is a training example weighted by how far its rating sits from the
  scale midpoint; and
* **exact leave-one-out influence attribution**: the influence of a past
  rating is the change in the recommendation's log-odds score when that
  training example is removed.  These influences populate
  :class:`~repro.recsys.base.InfluenceEvidence`, from which the Figure 3
  influence table is rendered.

Vectorized layout: keywords live in a catalogue-wide index aligned with
the :class:`~repro.recsys.data.RatingMatrix` column order (one flat
CSR-style array of per-item keyword ids, in **canonical sorted keyword
order** — a determinism improvement over the old per-``frozenset``
iteration order).  A user's sufficient statistics are two ``bincount``
passes, a candidate pool scores through one shared per-keyword log-odds
term table (:func:`log_odds_terms`), and leave-one-out influences for
one item evaluate as a single ``(examples, keywords)`` array expression.
All transcendentals go through ``np.log``/``np.exp`` (the vectorized
twins of the old ``math.log``/``math.exp`` calls); scores can therefore
drift from the pre-vectorization path by float-ulp amounts, which
``docs/vectorization.md`` documents and the parity suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.recsys.base import (
    Evidence,
    InfluenceEvidence,
    KeywordEvidence,
    KeywordInfluence,
    RatingInfluence,
)
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender

__all__ = ["NaiveBayesRecommender", "log_odds_terms"]

_LIKE = "like"
_DISLIKE = "dislike"


def log_odds_terms(
    alpha: float, class_weight: np.ndarray, feature_weight: np.ndarray
) -> tuple[float, np.ndarray]:
    """The additive pieces of the NB like/dislike log-odds.

    Given class weights ``[dislike, like]`` and per-class keyword weights
    of shape ``(2, vocabulary)``, returns ``(base, terms)`` such that the
    log-odds of an item is ``base + terms[item_keywords].sum()``.  Shared
    by the scoring engine and the parity-test reference so both sides
    use the exact same float operations.
    """
    like = float(class_weight[1])
    dislike = float(class_weight[0])
    base = float(np.log((like + alpha) / (dislike + alpha)))
    p_like = (feature_weight[1] + alpha) / (like + 2.0 * alpha)
    p_dislike = (feature_weight[0] + alpha) / (dislike + 2.0 * alpha)
    return base, np.log(p_like / p_dislike)


@dataclass
class _Catalog:
    """Catalogue-wide keyword index aligned with rating-matrix columns."""

    vocabulary: dict[str, int]
    keywords: list[str]
    kw_flat: np.ndarray  # concatenated per-item keyword ids (canonical order)
    kw_indptr: np.ndarray  # item col -> [start, end) into kw_flat
    n_items: int

    @classmethod
    def build(cls, dataset: Dataset) -> "_Catalog":
        vocabulary: dict[str, int] = {}
        for keyword in sorted(
            {kw for item in dataset.items.values() for kw in item.keywords}
        ):
            vocabulary[keyword] = len(vocabulary)
        rows: list[list[int]] = []
        for item in dataset.items.values():
            rows.append(
                sorted(map(vocabulary.__getitem__, item.keywords))
            )
        lengths = np.full(len(rows), 0)
        lengths[:] = list(map(len, rows))
        kw_indptr = np.full(len(rows) + 1, 0)
        np.cumsum(lengths, out=kw_indptr[1:])
        kw_flat = np.full(int(kw_indptr[-1]), 0)
        kw_flat[:] = [index for row in rows for index in row]
        return cls(
            vocabulary=vocabulary,
            keywords=list(vocabulary),
            kw_flat=kw_flat,
            kw_indptr=kw_indptr,
            n_items=len(rows),
        )

    def item_keywords(self, col: int) -> np.ndarray:
        return self.kw_flat[self.kw_indptr[col] : self.kw_indptr[col + 1]]


@dataclass
class _UserModel:
    """Per-user weighted Bernoulli NB sufficient statistics (arrays)."""

    class_weight: np.ndarray  # (2,)  [dislike, like]
    feature_weight: np.ndarray  # (2, vocabulary)
    example_ids: list[str]  # rated item ids, in rating order
    example_cols: np.ndarray  # matrix columns of the rated items
    example_values: np.ndarray  # rating values
    example_labels: np.ndarray  # 0 = dislike, 1 = like
    example_weights: np.ndarray  # training weights
    kw_mask: np.ndarray  # (examples, vocabulary) keyword membership

    @property
    def examples(self) -> list[tuple[str, float, str, float]]:
        """Legacy-shaped ``(item_id, rating, label, weight)`` tuples."""
        return [
            (item_id, value, _LIKE if label else _DISLIKE, weight)
            for item_id, value, label, weight in zip(
                self.example_ids,
                self.example_values.tolist(),
                self.example_labels.tolist(),
                self.example_weights.tolist(),
            )
        ]


class NaiveBayesRecommender(VectorRecommender):
    """Per-user naive-Bayes like/dislike classifier over item keywords.

    Parameters
    ----------
    alpha:
        Laplace smoothing constant.
    min_examples:
        Minimum rated items before predictions are attempted.
    """

    def __init__(self, alpha: float = 1.0, min_examples: int = 2) -> None:
        super().__init__()
        if alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.min_examples = min_examples
        self._models: dict[str, _UserModel] = {}
        self._catalog: _Catalog | None = None

    def _fit(self, dataset: Dataset) -> None:
        self._models = {}
        self._catalog = _Catalog.build(dataset)

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        self._models = {}
        if self._catalog is None or self._catalog.n_items != matrix.n_items:
            self._catalog = _Catalog.build(self.dataset)

    @property
    def catalog(self) -> _Catalog:
        if self._catalog is None:
            self.dataset  # noqa: B018  raises NotFittedError
            raise AssertionError("unreachable")
        return self._catalog

    def _example_weight(self, rating_value: float) -> float:
        """Training weight: distance from the scale midpoint, min 0.5.

        A 5-of-5 rating teaches the model more than a 4-of-5, mirroring
        LIBRA's strength-weighted training.
        """
        scale = self.dataset.scale
        distance = abs(rating_value - scale.midpoint) / (scale.span / 2.0)
        return max(0.5, distance)

    def _build_model(self, user_id: str) -> _UserModel:
        matrix = self._matrix()
        catalog = self.catalog
        scale = matrix.scale
        width = len(catalog.vocabulary)
        row = matrix.row_of.get(user_id)
        cols = matrix.user_cols(row) if row is not None else np.full(0, 0)
        values = (
            matrix.user_vals(row) if row is not None else np.full(0, 0.0)
        )
        assert scale.like_threshold is not None
        labels = (values >= scale.like_threshold).astype(np.intp)
        weights = np.maximum(
            0.5, np.abs(values - scale.midpoint) / (scale.span / 2.0)
        )
        class_weight = np.bincount(labels, weights=weights, minlength=2)
        positions, owner = RatingMatrix.gather_ranges(
            catalog.kw_indptr, cols
        )
        kw_ids = catalog.kw_flat[positions]
        feature_weight = np.bincount(
            labels[owner] * width + kw_ids,
            weights=weights[owner],
            minlength=2 * width,
        ).reshape(2, width)
        kw_mask = np.full((cols.size, width), False)
        kw_mask[owner, kw_ids] = True
        return _UserModel(
            class_weight=class_weight,
            feature_weight=feature_weight,
            example_ids=list(
                map(matrix.item_ids.__getitem__, cols.tolist())
            ),
            example_cols=cols,
            example_values=values,
            example_labels=labels,
            example_weights=weights,
            kw_mask=kw_mask,
        )

    def model_for(self, user_id: str) -> _UserModel:
        """The user's (cached) NB model; built on first use."""
        model = self._models.get(user_id)
        if model is None:
            model = self._build_model(user_id)
            self._models[user_id] = model
        return model

    def invalidate(self, user_id: str) -> None:
        """Drop the cached model after the user's ratings changed."""
        self._models.pop(user_id, None)

    # -- scoring ----------------------------------------------------------

    def _pool_log_odds(
        self, model: _UserModel, cols: np.ndarray
    ) -> np.ndarray:
        """Log P(like | d) - log P(dislike | d) for a whole item pool."""
        catalog = self.catalog
        if float(model.class_weight.sum()) <= 0.0:
            return np.full(cols.size, 0.0)
        base, terms = log_odds_terms(
            self.alpha, model.class_weight, model.feature_weight
        )
        positions, owner = RatingMatrix.gather_ranges(
            catalog.kw_indptr, cols
        )
        return base + np.bincount(
            owner, weights=terms[catalog.kw_flat[positions]],
            minlength=cols.size,
        )

    def score(self, user_id: str, item_id: str) -> float:
        """Raw like/dislike log-odds for an item under the user's model."""
        matrix = self._matrix()
        col = matrix.col_of[self.dataset.item(item_id).item_id]
        model = self.model_for(user_id)
        pool = np.full(1, col)
        return float(self._pool_log_odds(model, pool)[0])

    def _keyword_contributions(
        self, user_id: str, item_id: str
    ) -> list[KeywordInfluence]:
        """Per-keyword additive log-odds contributions for an item.

        Each delta is computed as ``(base + term) - base`` — the exact
        float expression the one-keyword-document formulation evaluates.
        """
        matrix = self._matrix()
        catalog = self.catalog
        model = self.model_for(user_id)
        col = matrix.col_of[self.dataset.item(item_id).item_id]
        item_kw = catalog.item_keywords(col)
        if float(model.class_weight.sum()) <= 0.0:
            deltas = np.full(item_kw.size, 0.0)
        else:
            base, terms = log_odds_terms(
                self.alpha, model.class_weight, model.feature_weight
            )
            deltas = (base + terms[item_kw]) - base
        contributions = [
            KeywordInfluence(keyword=keyword, weight=delta)
            for keyword, delta in zip(
                map(catalog.keywords.__getitem__, item_kw.tolist()),
                deltas.tolist(),
            )
        ]
        contributions.sort(key=lambda k: -k.weight)
        return contributions

    def rating_influences(
        self, user_id: str, item_id: str
    ) -> list[RatingInfluence]:
        """Exact leave-one-out influence of each past rating on the score.

        ``influence > 0`` means the past rating pushed the recommendation
        up; the magnitudes are what Figure 3 reports as percentages (see
        :meth:`InfluenceEvidence.percentages`).  All leave-one-out scores
        evaluate in one ``(examples, keywords)`` array expression.
        """
        matrix = self._matrix()
        col = matrix.col_of[self.dataset.item(item_id).item_id]
        model = self.model_for(user_id)
        pool = np.full(1, col)
        full_score = float(self._pool_log_odds(model, pool)[0])
        return self._loo_influences(model, col, full_score)

    def _loo_influences(
        self, model: _UserModel, col: int, full_score: float
    ) -> list[RatingInfluence]:
        catalog = self.catalog
        alpha = self.alpha
        item_kw = catalog.item_keywords(col)
        like = model.example_labels.astype(np.float64)
        removed_like = model.example_weights * like
        removed_dislike = model.example_weights * (1.0 - like)
        cw_like = model.class_weight[1] - removed_like
        cw_dislike = model.class_weight[0] - removed_dislike
        member = model.kw_mask[:, item_kw]
        fw_like = (
            model.feature_weight[1][item_kw][None, :]
            - removed_like[:, None] * member
        )
        fw_dislike = (
            model.feature_weight[0][item_kw][None, :]
            - removed_dislike[:, None] * member
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            base = np.log((cw_like + alpha) / (cw_dislike + alpha))
            term_rows = np.log(
                ((fw_like + alpha) / (cw_like[:, None] + 2.0 * alpha))
                / ((fw_dislike + alpha) / (cw_dislike[:, None] + 2.0 * alpha))
            )
        reduced = np.where(
            cw_like + cw_dislike > 0.0,
            base + term_rows.sum(axis=1),
            0.0,
        )
        influences = [
            RatingInfluence(
                item_id=example_id, rating=value, influence=influence
            )
            for example_id, value, influence in zip(
                model.example_ids,
                model.example_values.tolist(),
                (full_score - reduced).tolist(),
            )
        ]
        influences.sort(key=lambda r: -abs(r.influence))
        return influences

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """P(like | item) over the pool, mapped onto the rating scale."""
        model = self.model_for(user_id)
        size = cols.size
        n_examples = len(model.example_ids)
        if n_examples < self.min_examples:
            zero = np.full(size, 0.0)
            return PoolScores(
                cols=cols,
                values=zero,
                confidences=zero,
                ok=np.full(size, False),
                context={"n_examples": n_examples},
            )
        log_odds = self._pool_log_odds(model, cols)
        probability_like = 1.0 / (1.0 + np.exp(-log_odds))
        values = matrix.scale.denormalize_array(probability_like)
        confidences = min(1.0, n_examples / 10.0) * np.minimum(
            1.0, np.abs(log_odds) / 2.0 + 0.2
        )
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=np.full(size, True),
            context={
                "model": model,
                "log_odds": log_odds,
                "n_examples": n_examples,
            },
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Leave-one-out influences plus per-keyword contributions."""
        model = scores.context["model"]
        col = int(scores.cols[idx])
        full_score = float(scores.context["log_odds"][idx])
        item_id = matrix.item_ids[col]
        influence_evidence = InfluenceEvidence(
            influences=tuple(
                self._loo_influences(model, col, full_score)
            )
        )
        keyword_evidence = KeywordEvidence(
            influences=tuple(
                self._keyword_contributions(user_id, item_id)
            )
        )
        return (influence_evidence, keyword_evidence)

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        n_examples = int(scores.context["n_examples"])
        return (
            f"user {user_id!r} has only {n_examples} rated "
            f"items; {self.min_examples} required"
        )
