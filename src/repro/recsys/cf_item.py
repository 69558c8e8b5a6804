"""Item-based k-nearest-neighbour collaborative filtering.

Item-based CF is the engine behind "People who liked X also liked Y"
(the paper's collaborative explanation style, Tables 3–4) and behind
"You might also like ... Oliver Twist" similar-to-top presentations
(Section 4.3): every prediction carries
:class:`~repro.recsys.base.SimilarItemEvidence` pointing at the user's own
rated items that drove the score.

The implementation runs on the vectorized engine: the full item-item
adjusted-cosine index is built in a few chunked matrix products over the
user-centred rating matrix (numerators, pair-restricted norms and
co-rater counts each fall out of one gram-style product), then a whole
candidate pool is scored against a user's rated items with stable
top-k selection and slot-ordered accumulation that preserves the scalar
path's ``(-similarity, item_id)`` neighbour ordering exactly.  Pairwise
similarity *values* may differ from the old per-pair path by float
summation order (documented in ``docs/vectorization.md``); rankings and
evidence orderings are pinned by the parity suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.recsys.base import Evidence, SimilarItemEvidence
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender
from repro.recsys.neighbors import ItemNeighborhood

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eventlog.events import InteractionEvent

__all__ = ["ItemBasedCF"]

_RATING_KINDS = ("rate", "re-rate", "correct-prediction", "undo", "rate-batch")

_EPSILON = 1e-12

#: User rows per chunk when accumulating the item-item gram products.
_GRAM_CHUNK = 8192


class ItemBasedCF(VectorRecommender):
    """Item-kNN with adjusted-cosine similarities.

    Parameters mirror :class:`~repro.recsys.cf_user.UserBasedCF`, but the
    neighbourhood is over items the target user has already rated.
    ``neighbor_index_size`` optionally prunes each item's similarity row
    to its strongest entries (an explicit accuracy/speed trade);
    ``None`` keeps the index exact.
    """

    def __init__(
        self,
        k: int = 20,
        min_overlap: int = 2,
        significance_gamma: int = 8,
        confidence_gamma: int = 8,
        neighbor_index_size: int | None = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if neighbor_index_size is not None and neighbor_index_size < 1:
            raise ValueError(
                f"neighbor_index_size must be >= 1, got {neighbor_index_size}"
            )
        self.k = k
        self.min_overlap = min_overlap
        self.significance_gamma = significance_gamma
        self.confidence_gamma = max(1, confidence_gamma)
        self.neighbor_index_size = neighbor_index_size
        self._neighborhood: ItemNeighborhood | None = None
        self._sims: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    # -- lifecycle ---------------------------------------------------------

    def _fit(self, dataset: Dataset) -> None:
        self._neighborhood = None
        self._sims = None
        self._counts = None

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        self._sims = None
        self._counts = None

    @property
    def neighborhood(self) -> ItemNeighborhood:
        """A lazily built scalar neighbourhood over the fitted dataset.

        Kept for API compatibility with pre-vectorization callers; the
        scoring path no longer goes through it.
        """
        dataset = self.dataset
        if self._neighborhood is None or (
            self._neighborhood.dataset is not dataset
        ):
            self._neighborhood = ItemNeighborhood(
                dataset,
                min_overlap=self.min_overlap,
                significance_gamma=self.significance_gamma,
            )
        return self._neighborhood

    def absorb(self, event: "InteractionEvent") -> bool:
        """Consume one rating event incrementally — no full refit.

        Scoring reads the dataset's current rating-matrix snapshot and
        the similarity index is rebuilt from it lazily, so the next
        prediction after an absorbed rating event is exactly what a
        freshly fitted model would produce.  Returns ``False`` when the
        model is unfitted or the event carries no rating write.
        """
        if not self.is_fitted:
            return False
        if event.kind not in _RATING_KINDS:
            return False
        if self._neighborhood is not None:
            extra = [item for item in (event.item_id,) if item is not None]
            extra.extend(event.ratings)
            self._neighborhood.invalidate_user(
                event.user_id, extra_items=extra
            )
        return True

    # -- similarity index --------------------------------------------------

    def similarity_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The full ``(sims, co_rater_counts)`` item-item index.

        Adjusted cosine with per-pair norms restricted to *common*
        raters, built in chunked matrix products:

        * ``numerators = Xᵀ X`` where ``X`` holds user-mean-centred
          ratings (zero where unrated);
        * ``sq[i, j] = Σ_u x(u,i)² · rated(u,j)`` — item ``i``'s squared
          norm over the raters it shares with ``j`` — from ``(X·X)ᵀ M``;
        * ``counts = Mᵀ M`` over the rated-mask ``M``.

        Minimum-overlap zeroing and Herlocker significance weighting are
        applied exactly as in the scalar path; optional
        ``neighbor_index_size`` pruning zeroes all but each row's
        strongest entries.
        """
        matrix = self._matrix()
        if self._sims is not None and self._counts is not None:
            return self._sims, self._counts
        m = matrix.n_items
        numerators = np.full((m, m), 0.0)
        sq_given = np.full((m, m), 0.0)
        counts = np.full((m, m), 0.0)
        for start in range(0, matrix.n_users, _GRAM_CHUNK):
            rows = np.arange(
                start, min(start + _GRAM_CHUNK, matrix.n_users)
            )
            dense, mask = matrix.raters_dense(rows)
            centered = np.where(
                mask.T, dense.T - matrix.user_means[rows][:, None], 0.0
            )
            flags = mask.T.astype(np.float64)
            numerators += centered.T @ centered
            sq_given += (centered * centered).T @ flags
            counts += flags.T @ flags
        denominators = np.sqrt(sq_given) * np.sqrt(sq_given.T)
        valid = denominators >= _EPSILON
        sims = np.where(
            valid, numerators / np.where(valid, denominators, 1.0), 0.0
        )
        sims = np.clip(sims, -1.0, 1.0)
        overlaps = counts.astype(np.intp)
        sims = np.where(overlaps >= self.min_overlap, sims, 0.0)
        if self.significance_gamma > 0:
            sims = sims * (
                np.minimum(overlaps, self.significance_gamma)
                / self.significance_gamma
            )
        np.fill_diagonal(sims, 0.0)
        limit = self.neighbor_index_size
        if limit is not None and m > limit:
            order = np.argsort(-sims, axis=1, kind="stable")
            cut = order[:, limit:]
            np.put_along_axis(sims, cut, 0.0, axis=1)
        self._sims = sims
        self._counts = overlaps
        return sims, overlaps

    def similar_items(
        self, item_id: str, n: int = 5
    ) -> list[tuple[str, float]]:
        """Catalogue-wide most-similar items, for "similar to top item" lists."""
        matrix = self._matrix()
        sims, overlaps = self.similarity_index()
        col = matrix.col_of[self.dataset.item(item_id).item_id]
        row = sims[col]
        counts = overlaps[col]
        usable = np.flatnonzero(
            (row > 0.0) & (counts >= self.min_overlap)
        )
        usable = usable[usable != col]
        order = usable[
            np.lexsort((matrix.item_rank[usable], -row[usable]))
        ][:n]
        return [
            (other, value)
            for other, value in zip(
                map(matrix.item_ids.__getitem__, order.tolist()),
                row[order].tolist(),
            )
        ]

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Score a candidate pool against the user's rated items.

        prediction(u, i) = sum_j sim(i,j) * r(u,j) / sum_j |sim(i,j)|
        over the k items j most similar to i among those u rated,
        accumulated in ``(-similarity, item_id)`` neighbour order via a
        stable top-k selection and slot-sequential adds.
        """
        sims, overlaps = self.similarity_index()
        row = matrix.row_of[user_id]
        rated = matrix.user_cols(row)
        rated_order = np.argsort(matrix.item_rank[rated], kind="stable")
        rated = rated[rated_order]
        rated_values = matrix.user_vals(row)[rated_order]
        size = cols.size
        if rated.size == 0:
            zero = np.full(size, 0.0)
            return PoolScores(
                cols=cols,
                values=zero,
                confidences=zero,
                ok=np.full(size, False),
                context={"support": np.full(size, 0)},
            )
        pool_sims = sims[np.ix_(cols, rated)]
        pool_counts = overlaps[np.ix_(cols, rated)]
        usable = (
            (pool_sims > 0.0)
            & (pool_counts >= self.min_overlap)
            & (rated[None, :] != cols[:, None])
        )
        masked = np.where(usable, pool_sims, -np.inf)
        width = min(self.k, rated.size)
        slot_order = np.argsort(-masked, axis=1, kind="stable")[:, :width]
        slot_sims = np.take_along_axis(masked, slot_order, axis=1)
        slot_values = rated_values[slot_order]
        slot_ok = slot_sims > 0.0
        numerator = np.full(size, 0.0)
        denominator = np.full(size, 0.0)
        for t in range(width):
            live = slot_ok[:, t]
            gain = slot_sims[:, t]
            numerator = numerator + np.where(
                live, gain * slot_values[:, t], 0.0
            )
            denominator = denominator + np.where(
                live, np.abs(gain), 0.0
            )
        support = slot_ok.sum(axis=1)
        ok = (support > 0) & (denominator > 0.0)
        values = matrix.scale.clip_array(
            numerator / np.where(ok, denominator, 1.0)
        )
        confidences = np.minimum(
            1.0, support / self.confidence_gamma
        ) * np.minimum(1.0, denominator)
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=ok,
            context={
                "rated": rated,
                "slot_order": slot_order,
                "slot_sims": slot_sims,
                "slot_values": slot_values,
                "slot_ok": slot_ok,
                "support": support,
            },
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Similar-item evidence, one record per cited neighbour in order."""
        rated = scores.context["rated"]
        neighbor_cols = rated[scores.context["slot_order"][idx]]
        cited = zip(
            scores.context["slot_ok"][idx].tolist(),
            map(matrix.item_ids.__getitem__, neighbor_cols.tolist()),
            scores.context["slot_sims"][idx].tolist(),
            scores.context["slot_values"][idx].tolist(),
        )
        return tuple(
            SimilarItemEvidence(
                item_id=item_id, similarity=sim, user_rating=rating
            )
            for live, item_id, sim, rating in cited
            if live
        )

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        if int(scores.context["support"][idx]) == 0:
            return (
                f"user {user_id!r} rated no items similar to {item_id!r}"
            )
        return f"no positively-similar rated items for {item_id!r}"
