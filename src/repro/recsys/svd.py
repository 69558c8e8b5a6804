"""Matrix-factorisation recommender (randomized truncated SVD).

Era-appropriate for the paper (latent-factor models are the 2006 Netflix
Prize workhorse): users and items get latent-factor vectors, here fitted
spectrally — damped user/item biases absorb the rating means, and a
seeded Halko-style randomized SVD factors the sparse residual matrix in
a handful of sparse matrix products.  Fitting a world that took the old
stochastic-gradient loop seconds now takes milliseconds, and stays
deterministic under ``seed``.

New or changed users after ``fit`` do not need a refit: a **ridge
fold-in** (:meth:`SVDRecommender.fold_in_user`) projects the user's
current residual ratings onto the fitted item factors, which is also how
:meth:`absorb`-ed rating events take effect lazily.

Latent factors are the survey's cautionary tale about transparency: the
model's own internals are uninterpretable, so honest explanations must
be **post-hoc**.  Predictions therefore attach
:class:`~repro.recsys.base.SimilarItemEvidence` computed in latent space
(the user's liked items whose factor vectors are closest to the
candidate's), which the content-based explainer can verbalise — and the
ablation benchmark measures what that indirection costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from repro.recsys.base import Evidence, SimilarItemEvidence
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import PoolScores, VectorRecommender

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eventlog.events import InteractionEvent

__all__ = ["SVDRecommender"]

_RATING_KINDS = ("rate", "re-rate", "correct-prediction", "undo", "rate-batch")

#: Pseudo-count of global-mean observations damping the per-user and
#: per-item bias estimates.
_BIAS_DAMPING = 10.0

#: Extra sketch columns beyond the requested rank (Halko oversampling).
_OVERSAMPLE = 8

#: Power iterations sharpening the randomized range finder.
_POWER_ITERATIONS = 4

_EPSILON = 1e-12


class SVDRecommender(VectorRecommender):
    """Biased matrix factorisation fitted by randomized truncated SVD.

    prediction(u, i) = mu + b_u + b_i + p_u . q_i

    Parameters
    ----------
    n_factors:
        Latent dimensionality.
    regularization:
        Ridge strength for folding in new or changed users.
    n_evidence_items:
        Liked items cited as latent-space similarity evidence.
    seed:
        Sketch seed (fitting is deterministic given it).
    """

    def __init__(
        self,
        n_factors: int = 12,
        regularization: float = 0.05,
        n_evidence_items: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_factors < 1:
            raise ValueError(f"n_factors must be >= 1, got {n_factors}")
        self.n_factors = n_factors
        self.regularization = regularization
        self.n_evidence_items = n_evidence_items
        self.seed = seed
        self._fit_matrix: RatingMatrix | None = None
        self._user_factors: np.ndarray | None = None
        self._item_factors: np.ndarray | None = None
        self._user_bias: np.ndarray | None = None
        self._item_bias: np.ndarray | None = None
        self._global_mean = 0.0
        self._folded: dict[str, tuple[np.ndarray, float]] = {}

    # -- fitting -----------------------------------------------------------

    def _fit(self, dataset: Dataset) -> None:
        matrix = dataset.rating_matrix()
        self._fit_matrix = matrix
        self._folded = {}
        self._global_mean = dataset.global_mean()
        n_users, n_items = matrix.n_users, matrix.n_items
        self._user_factors = np.full((n_users, self.n_factors), 0.0)
        self._item_factors = np.full((n_items, self.n_factors), 0.0)
        self._user_bias = np.full(n_users, 0.0)
        self._item_bias = np.full(n_items, 0.0)
        if matrix.u_vals.size == 0 or n_users == 0 or n_items == 0:
            return
        mu = self._global_mean
        item_counts = np.diff(matrix.i_indptr)
        self._item_bias = np.bincount(
            matrix.u_cols, weights=matrix.u_vals - mu, minlength=n_items
        ) / (_BIAS_DAMPING + item_counts)
        owners = np.repeat(np.arange(n_users), np.diff(matrix.u_indptr))
        user_counts = np.diff(matrix.u_indptr)
        deviations = matrix.u_vals - mu - self._item_bias[matrix.u_cols]
        self._user_bias = np.bincount(
            owners, weights=deviations, minlength=n_users
        ) / (_BIAS_DAMPING + user_counts)
        residuals = deviations - self._user_bias[owners]
        sparse = csr_matrix(
            (residuals, matrix.u_cols, matrix.u_indptr),
            shape=(n_users, n_items),
        )
        rank = min(self.n_factors, n_users, n_items)
        sketch = min(rank + _OVERSAMPLE, n_users, n_items)
        rng = np.random.default_rng(self.seed)
        omega = rng.standard_normal((n_items, sketch))
        q, _ = np.linalg.qr(sparse @ omega)
        for __ in range(_POWER_ITERATIONS):
            q, _ = np.linalg.qr(sparse.T @ q)
            q, _ = np.linalg.qr(sparse @ q)
        b = (sparse.T @ q).T
        u_b, singular, vt = np.linalg.svd(b, full_matrices=False)
        self._user_factors[:, :rank] = (q @ u_b[:, :rank]) * singular[:rank]
        self._item_factors[:, :rank] = vt[:rank].T

    def absorb(self, event: "InteractionEvent") -> bool:
        """Consume one rating event incrementally — no full refit.

        The absorbed user's next prediction re-derives their bias and
        latent vector from their *current* ratings by ridge fold-in
        against the fitted item factors.  Returns ``False`` when the
        model is unfitted or the event carries no rating write.
        """
        if not self.is_fitted:
            return False
        if event.kind not in _RATING_KINDS:
            return False
        self._folded.pop(event.user_id, None)
        return True

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        self._folded = {}

    # -- per-user factors --------------------------------------------------

    def _fit_cols(
        self, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map current matrix columns onto fitted factor rows.

        Items added after ``fit`` have no factors; they come back masked
        out (zero factor row, zero bias).
        """
        assert self._item_factors is not None
        known = cols < self._item_factors.shape[0]
        safe = np.where(known, cols, 0)
        return safe, known

    def fold_in_user(self, user_id: str) -> tuple[np.ndarray, float]:
        """Latent vector and bias for a user's *current* ratings.

        Re-derives the damped user bias, then ridge-solves
        ``(F'F + lambda I) p = F' r`` over the user's rated item factors
        — the classic fold-in, so new users (or users whose ratings
        changed since ``fit``) get predictions without a refit.
        """
        assert self._item_factors is not None
        assert self._item_bias is not None
        matrix = self._matrix()
        cached = self._folded.get(user_id)
        if cached is not None:
            return cached
        row = matrix.row_of.get(user_id)
        factors = np.full(self._item_factors.shape[1], 0.0)
        bias = 0.0
        if row is not None and matrix.user_cols(row).size:
            cols = matrix.user_cols(row)
            values = matrix.user_vals(row)
            safe, known = self._fit_cols(cols)
            item_bias = np.where(known, self._item_bias[safe], 0.0)
            deviations = values - self._global_mean - item_bias
            bias = float(
                deviations.sum() / (_BIAS_DAMPING + cols.size)
            )
            rated_factors = self._item_factors[safe] * known[:, None]
            residuals = deviations - bias
            gram = rated_factors.T @ rated_factors
            ridge = self.regularization * max(1.0, float(cols.size))
            gram[np.diag_indices_from(gram)] += ridge
            factors = np.linalg.solve(gram, rated_factors.T @ residuals)
        result = (factors, bias)
        self._folded[user_id] = result
        return result

    def _user_vector(
        self, user_id: str, matrix: RatingMatrix
    ) -> tuple[np.ndarray, float]:
        """The fitted factors if the user's ratings are unchanged, else fold-in."""
        assert self._fit_matrix is not None
        assert self._user_factors is not None
        assert self._user_bias is not None
        fit = self._fit_matrix
        if matrix is fit:
            row = fit.row_of.get(user_id)
            if row is not None:
                return self._user_factors[row], float(self._user_bias[row])
        else:
            row = fit.row_of.get(user_id)
            current = matrix.row_of.get(user_id)
            if (
                row is not None
                and current is not None
                and np.array_equal(
                    matrix.user_cols(current), fit.user_cols(row)
                )
                and np.array_equal(
                    matrix.user_vals(current), fit.user_vals(row)
                )
            ):
                return self._user_factors[row], float(self._user_bias[row])
        return self.fold_in_user(user_id)

    # -- latent-space evidence ---------------------------------------------

    def latent_similarity(self, item_a: str, item_b: str) -> float:
        """Cosine similarity of two items' learned factor vectors."""
        assert self._item_factors is not None
        matrix = self._matrix()
        cols = np.full(2, 0)
        cols[0] = matrix.col_of[item_a]
        cols[1] = matrix.col_of[item_b]
        safe, known = self._fit_cols(cols)
        a = self._item_factors[safe[0]] * known[0]
        b = self._item_factors[safe[1]] * known[1]
        denominator = float(np.linalg.norm(a) * np.linalg.norm(b))
        if denominator < _EPSILON:
            return 0.0
        return float(np.clip((a * b).sum() / denominator, -1.0, 1.0))

    def _liked_cosines(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cosines between each pool item and the user's liked items.

        Returns ``(liked_cols, liked_values, cosines)`` with ``cosines``
        of shape ``(pool, liked)``.
        """
        assert self._item_factors is not None
        scale = matrix.scale
        row = matrix.row_of[user_id]
        rated = matrix.user_cols(row)
        rated_values = matrix.user_vals(row)
        assert scale.like_threshold is not None
        liked = np.flatnonzero(rated_values >= scale.like_threshold)
        liked_cols = rated[liked]
        liked_values = rated_values[liked]
        pool_safe, pool_known = self._fit_cols(cols)
        liked_safe, liked_known = self._fit_cols(liked_cols)
        pool_factors = self._item_factors[pool_safe] * pool_known[:, None]
        liked_factors = self._item_factors[liked_safe] * liked_known[:, None]
        numerators = (
            pool_factors[:, None, :] * liked_factors[None, :, :]
        ).sum(axis=2)
        denominators = np.sqrt((pool_factors * pool_factors).sum(axis=1))[
            :, None
        ] * np.sqrt((liked_factors * liked_factors).sum(axis=1))[None, :]
        valid = denominators >= _EPSILON
        cosines = np.clip(
            np.where(valid, numerators / np.where(valid, denominators, 1.0), 0.0),
            -1.0,
            1.0,
        )
        return liked_cols, liked_values, cosines

    # -- engine hooks ------------------------------------------------------

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Factor-model scores for a pool, plus latent evidence cosines."""
        assert self._user_factors is not None
        assert self._item_bias is not None
        size = cols.size
        if self._fit_matrix is None or self._fit_matrix.n_users == 0:
            zero = np.full(size, 0.0)
            return PoolScores(
                cols=cols,
                values=zero,
                confidences=zero,
                ok=np.full(size, False),
                context={"reason": "untrained"},
            )
        row = matrix.row_of[user_id]
        n_ratings = int(matrix.user_cols(row).size)
        if n_ratings == 0:
            zero = np.full(size, 0.0)
            return PoolScores(
                cols=cols,
                values=zero,
                confidences=zero,
                ok=np.full(size, False),
                context={"reason": "cold-user"},
            )
        factors, bias = self._user_vector(user_id, matrix)
        safe, known = self._fit_cols(cols)
        item_bias = np.where(known, self._item_bias[safe], 0.0)
        interaction = (
            (self._item_factors[safe] * known[:, None]) * factors
        ).sum(axis=1)
        raw = self._global_mean + bias + item_bias + interaction
        values = matrix.scale.clip_array(raw)
        liked_cols, liked_values, cosines = self._liked_cosines(
            user_id, cols, matrix
        )
        not_self = liked_cols[None, :] != cols[:, None]
        citable = (cosines > 0.0) & not_self
        has_evidence = citable.any(axis=1)
        confidences = min(1.0, n_ratings / 15.0) * np.where(
            has_evidence, 0.8, 0.4
        )
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=np.full(size, True),
            context={
                "liked_cols": liked_cols,
                "liked_values": liked_values,
                "cosines": cosines,
                "citable": citable,
            },
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Post-hoc evidence: liked items nearest in latent space."""
        liked_cols = scores.context["liked_cols"]
        liked_values = scores.context["liked_values"]
        cosines = scores.context["cosines"][idx]
        keep = np.flatnonzero(scores.context["citable"][idx])
        order = keep[
            np.lexsort((matrix.item_rank[liked_cols[keep]], -cosines[keep]))
        ][: self.n_evidence_items]
        cited = zip(
            map(matrix.item_ids.__getitem__, liked_cols[order].tolist()),
            cosines[order].tolist(),
            liked_values[order].tolist(),
        )
        return tuple(
            SimilarItemEvidence(
                item_id=item_id, similarity=similarity, user_rating=rating
            )
            for item_id, similarity, rating in cited
        )

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        if scores.context.get("reason") == "untrained":
            return "model trained on no ratings"
        return f"user {user_id!r} has no training ratings"
