"""User-based k-nearest-neighbour collaborative filtering.

This is the MovieLens-style recommender behind the paper's collaborative
explanation style ("People like you liked ...") and the Herlocker
histogram interface (Section 3.4): every prediction carries
:class:`~repro.recsys.base.NeighborRatingsEvidence` listing which similar
users rated the item and how.

The implementation runs on the vectorized engine
(:class:`~repro.recsys.engine.VectorRecommender`): a target user's
similarities to every overlapping candidate are computed in one masked
:func:`~repro.recsys.similarity.pearson_batch` pass against the
:class:`~repro.recsys.data.RatingMatrix` snapshot, and the
positive-weight neighbours with their weights are cached as that user's
neighbour row; a whole candidate-item pool is then scored with
a handful of array passes (gather raters, rank by similarity, segmented
top-k, ``bincount`` accumulation) that reproduce the per-item scalar
path bit for bit — the parity suite in
``tests/recsys/test_vectorized_parity.py`` pins this down.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.recsys.base import (
    Evidence,
    NeighborRating,
    NeighborRatingsEvidence,
)
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender, top_k_segments
from repro.recsys.similarity import pearson_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eventlog.events import InteractionEvent

__all__ = ["UserBasedCF"]

#: Rating-event kinds that carry a rating write a CF model can absorb.
_RATING_KINDS = ("rate", "re-rate", "correct-prediction", "undo", "rate-batch")

#: Neighbour rows kept before the oldest is evicted (bounds memory on
#: 100k-user worlds without changing results).
_SIM_CACHE_LIMIT = 512


class UserBasedCF(VectorRecommender):
    """Resnick-style user-kNN with mean-centred weighted aggregation.

    Parameters
    ----------
    k:
        Neighbourhood size.
    min_overlap:
        Minimum co-rated items for a neighbour to count.
    significance_gamma:
        Herlocker significance-weighting constant (0 disables).  Herlocker
        used 50 on MovieLens-scale data; the default of 10 suits the
        smaller synthetic worlds in :mod:`repro.domains`.
    confidence_gamma:
        Neighbour count at which prediction confidence saturates at 1.0.
    neighbor_index_size:
        When set, each user's neighbor index keeps only this many
        strongest candidates — an explicit accuracy/speed trade for very
        large worlds.  ``None`` (default) keeps the index exact.
    """

    def __init__(
        self,
        k: int = 20,
        min_overlap: int = 2,
        significance_gamma: int = 10,
        confidence_gamma: int = 10,
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
        #: Per user row: sorted positive-weight neighbour rows, weights.
        self._index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: Serialises evictions and inserts into ``_index``; concurrent
        #: readers of one model share it.
        self._index_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def _fit(self, dataset: Dataset) -> None:
        self._index = {}

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        self._index = {}

    def absorb(self, event: "InteractionEvent") -> bool:
        """Consume one rating event incrementally — no full refit.

        Scoring always reads the dataset's current
        :class:`~repro.recsys.data.RatingMatrix` snapshot, which the
        dataset rebuilds after any mutation — so absorbing a rating
        event only needs to acknowledge it; the next prediction is
        *exactly* what a freshly fitted model would produce.  Returns
        ``False`` (no-op) when the model is unfitted or the event
        carries no rating write.
        """
        if not self.is_fitted:
            return False
        return event.kind in _RATING_KINDS

    # -- neighbor index ----------------------------------------------------

    def neighbor_index(
        self, user_id: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The user's ``(weighted_sims, overlaps)`` full-length index.

        Computed fresh in one batched similarity pass over candidates
        sharing at least one rated item (provably the only users with
        non-zero similarity).  Scoring caches only the positive-weight
        part of it.
        """
        matrix = self._matrix()
        row = matrix.row_of[self.dataset.user(user_id).user_id]
        cand, weighted, overlaps = self._similarities(row, matrix)
        wsims = np.full(matrix.n_users, 0.0)
        cnts = np.full(matrix.n_users, 0)
        wsims[cand] = weighted
        cnts[cand] = overlaps
        return wsims, cnts

    def build_neighbor_index(self, user_ids: list[str] | None = None) -> int:
        """Precompute neighbour rows (all users by default); returns count."""
        matrix = self._matrix()
        if user_ids is None:
            rows = list(range(matrix.n_users))
        else:
            rows = list(map(matrix.row_of.__getitem__, user_ids))
        for row in rows:
            self._neighbors(row, matrix)
        return len(rows)

    def _similarities(
        self, row: int, matrix: RatingMatrix
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate rows with their weighted similarities and overlaps."""
        cand = np.full(0, 0)
        weighted = np.full(0, 0.0)
        overlaps = np.full(0, 0)
        ucols = matrix.user_cols(row)
        if ucols.size:
            positions, _owner = matrix.gather_ranges(matrix.i_indptr, ucols)
            corated = np.bincount(
                matrix.i_rows[positions], minlength=matrix.n_users
            )
            floor = max(self.min_overlap, 1)
            cand = np.flatnonzero(corated >= floor)
            cand = cand[cand != row]
        if cand.size:
            cand_values, cand_mask = matrix.columns_dense(ucols, rows=cand)
            sims, overlaps = pearson_batch(
                matrix.user_vals(row), cand_values, cand_mask
            )
            weighted = np.where(overlaps >= self.min_overlap, sims, 0.0)
            if self.significance_gamma > 0:
                weighted = weighted * (
                    np.minimum(overlaps, self.significance_gamma)
                    / self.significance_gamma
                )
            limit = self.neighbor_index_size
            if limit is not None and cand.size > limit:
                order = np.lexsort((matrix.user_rank[cand], -weighted))
                weighted[order[limit:]] = 0.0
        return cand, weighted, overlaps

    def _neighbors(
        self, row: int, matrix: RatingMatrix
    ) -> tuple[np.ndarray, np.ndarray]:
        """The user's positive-weight neighbour rows and weights, cached.

        Only what the scorer reads is kept: the rows come back sorted,
        and on sparse worlds they are a small share of all users.  The
        cache is bound once per call, and eviction and insert run under
        a lock so concurrent readers never iterate a dict another one
        is resizing; the similarity pass itself runs unlocked.
        """
        index = self._index
        cached = index.get(row)
        if cached is not None:
            return cached
        cand, weighted, _overlaps = self._similarities(row, matrix)
        positive = weighted > 0.0
        result = (cand[positive], weighted[positive])
        with self._index_lock:
            while len(index) >= _SIM_CACHE_LIMIT:
                index.pop(next(iter(index)))
            index[row] = result
        return result

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Score a candidate-item pool in one pass.

        prediction(u, i) = mean(u) + sum_v sim(u,v) * (r(v,i) - mean(v))
                                      / sum_v |sim(u,v)|

        over the k most similar raters of each item — accumulated in
        ``(-similarity, user_id)`` order, exactly like the scalar path,
        so the floats match bit for bit.
        """
        row = matrix.row_of[user_id]
        neighbors, neighbor_weights = self._neighbors(row, matrix)
        item_side = int(
            (matrix.i_indptr[cols + 1] - matrix.i_indptr[cols]).sum()
        )
        neighbor_side = int(
            (
                matrix.u_indptr[neighbors + 1] - matrix.u_indptr[neighbors]
            ).sum()
        )
        if neighbor_side < item_side:
            # Walk the (few) positive-weight neighbors' rating runs and
            # map their columns back into the pool: identical (owner,
            # rater, weight, rating) tuples as the item-side gather,
            # and the lexsort below has no full ties (user_rank is
            # unique per segment), so the two sides sort — and score —
            # bit-identically.
            positions, nbr_idx = matrix.gather_ranges(
                matrix.u_indptr, neighbors
            )
            pool_pos = np.full(matrix.n_items, -1)
            pool_pos[cols] = np.arange(cols.size)
            owner = pool_pos[matrix.u_cols[positions]]
            sel = np.flatnonzero(owner >= 0)
            owner = owner[sel]
            raters = neighbors[nbr_idx[sel]]
            weights = neighbor_weights[nbr_idx[sel]]
            ratings = matrix.u_vals[positions[sel]]
        else:
            positions, owner = matrix.gather_ranges(matrix.i_indptr, cols)
            raters = matrix.i_rows[positions]
            # Keep the raters that are positive-weight neighbours (never
            # the user): binary search in the sorted neighbour rows.
            slot = np.searchsorted(neighbors, raters)
            found = slot < neighbors.size
            found[found] = neighbors[slot[found]] == raters[found]
            sel = np.flatnonzero(found)
            raters = raters[sel]
            weights = neighbor_weights[slot[sel]]
            ratings = matrix.i_vals[positions[sel]]
            owner = owner[sel]
        order = np.lexsort((matrix.user_rank[raters], -weights, owner))
        owner = owner[order]
        keep = top_k_segments(owner, self.k)
        owner = owner[keep]
        kept_raters = raters[order][keep]
        kept_weights = weights[order][keep]
        kept_ratings = ratings[order][keep]
        deviations = kept_weights * (
            kept_ratings - matrix.user_means[kept_raters]
        )
        numerator = np.bincount(
            owner, weights=deviations, minlength=cols.size
        )
        denominator = np.bincount(
            owner, weights=np.abs(kept_weights), minlength=cols.size
        )
        support = np.bincount(owner, minlength=cols.size)
        ok = (support > 0) & (denominator > 0.0)
        user_mean = matrix.user_means[row]
        values = matrix.scale.clip_array(
            user_mean + numerator / np.where(ok, denominator, 1.0)
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
                "owner": owner,
                "raters": kept_raters,
                "weights": kept_weights,
                "ratings": kept_ratings,
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
        """Neighbor-ratings evidence from the batch intermediates.

        The kept entries are already in ``(-similarity, user_id)``
        order within each pool segment — the exact neighbour order the
        scalar path cited.
        """
        owner = scores.context["owner"]
        lo = int(np.searchsorted(owner, idx, side="left"))
        hi = int(np.searchsorted(owner, idx, side="right"))
        cited = zip(
            map(
                matrix.user_ids.__getitem__,
                scores.context["raters"][lo:hi].tolist(),
            ),
            scores.context["weights"][lo:hi].tolist(),
            scores.context["ratings"][lo:hi].tolist(),
        )
        neighbors = tuple(
            NeighborRating(user_id=uid, similarity=sim, rating=rating)
            for uid, sim, rating in cited
        )
        return (NeighborRatingsEvidence(neighbors=neighbors),)

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        if int(scores.context["support"][idx]) == 0:
            return (
                f"user {user_id!r} has no usable neighbours who rated "
                f"item {item_id!r}"
            )
        return (
            f"no positively-similar raters of item {item_id!r} "
            f"for user {user_id!r}"
        )
