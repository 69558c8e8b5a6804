"""Recommender protocol, prediction objects and the evidence model.

The paper stresses that "explanations are not independent of the
recommendation process" (Section 4): an explanation is only honest if it
is generated from the same evidence the recommender used.  Every
:class:`Prediction` therefore carries a tuple of typed
:class:`Evidence` records describing *why* the score is what it is —
neighbour ratings, similar liked items, keyword influences, attribute
utilities.  The explainers in :mod:`repro.core.explainers` consume these
records; they never re-derive reasons of their own.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import NotFittedError, PredictionImpossibleError
from repro.recsys.data import Dataset, RatingMatrix

__all__ = [
    "Evidence",
    "EvidenceItem",
    "NoEvidence",
    "NeighborRating",
    "NeighborRatingsEvidence",
    "SimilarItemEvidence",
    "KeywordInfluence",
    "KeywordEvidence",
    "RatingInfluence",
    "InfluenceEvidence",
    "AttributeScore",
    "UtilityEvidence",
    "PopularityEvidence",
    "ProfileAttributeEvidence",
    "Prediction",
    "PoolScores",
    "Recommendation",
    "Recommender",
]


@dataclass(frozen=True)
class EvidenceItem:
    """One atom of explanation support, normalised for quality metrics.

    ``kind`` is the support namespace (``"user"`` for cited neighbours,
    ``"item"`` for cited catalogue items, ``"keyword"`` for cited
    themes, ``"attribute"`` for cited preference attributes) and
    ``ref`` the identifier within it.  ``weight`` carries the record's
    own notion of strength (similarity, influence share, keyword
    weight) so fidelity metrics can reconstruct scores without parsing
    rendered text.
    """

    kind: str
    ref: str
    weight: float = 1.0

    @property
    def key(self) -> str:
        """The namespaced identity used for overlap/coverage counting."""
        return f"{self.kind}:{self.ref}"


class Evidence:
    """Marker base class for typed recommendation evidence."""

    kind: str = "generic"

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """The structured support atoms this record contributes.

        The quality-metrics layer consumes these instead of parsing
        rendered explanation text; the base record contributes nothing.
        """
        return ()


@dataclass(frozen=True)
class NoEvidence(Evidence):
    """An explicit empty-evidence marker.

    Attached by the degradation fallback (:class:`GenericExplainer`) so
    downstream consumers can distinguish "this explanation *declares*
    it has no evidence" from "nobody recorded any" — quality metrics
    exclude the former from fidelity/coverage instead of miscounting
    it as a zero.
    """

    reason: str = "degraded"
    kind: str = field(default="no_evidence", init=False)


@dataclass(frozen=True)
class NeighborRating:
    """One neighbour's rating of the target item."""

    user_id: str
    similarity: float
    rating: float


@dataclass(frozen=True)
class NeighborRatingsEvidence(Evidence):
    """How similar users rated the item (user-based CF).

    This is the raw material of the Herlocker histogram explanation: the
    "good" and "bad" neighbour ratings cluster into the bars users found
    most persuasive (paper Section 3.4).
    """

    neighbors: tuple[NeighborRating, ...]
    kind: str = field(default="neighbor_ratings", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """One ``user`` item per cited neighbour, weighted by similarity."""
        return tuple(
            EvidenceItem(
                kind="user", ref=neighbor.user_id,
                weight=neighbor.similarity,
            )
            for neighbor in self.neighbors
        )

    def histogram(self, scale_min: int = 1, scale_max: int = 5) -> dict[int, int]:
        """Count neighbour ratings per integer rating bucket."""
        counts = {level: 0 for level in range(scale_min, scale_max + 1)}
        for neighbor in self.neighbors:
            bucket = int(round(neighbor.rating))
            bucket = min(scale_max, max(scale_min, bucket))
            counts[bucket] += 1
        return counts


@dataclass(frozen=True)
class SimilarItemEvidence(Evidence):
    """An item the user already liked that is similar to the recommended one.

    Powers "You might also like ... because you liked Great Expectations"
    (paper Section 4.3) and Amazon-style content explanations (Table 3).
    """

    item_id: str
    similarity: float
    user_rating: float
    kind: str = field(default="similar_item", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """The cited liked item, weighted by its similarity."""
        return (
            EvidenceItem(kind="item", ref=self.item_id, weight=self.similarity),
        )


@dataclass(frozen=True)
class KeywordInfluence:
    """One keyword's additive contribution to a content-based score."""

    keyword: str
    weight: float


@dataclass(frozen=True)
class KeywordEvidence(Evidence):
    """Keywords in the recommended item that matched the user's profile."""

    influences: tuple[KeywordInfluence, ...]
    kind: str = field(default="keywords", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """One ``keyword`` item per influence, weighted by its weight."""
        return tuple(
            EvidenceItem(
                kind="keyword", ref=influence.keyword,
                weight=influence.weight,
            )
            for influence in self.influences
        )

    def top(self, n: int = 5) -> tuple[KeywordInfluence, ...]:
        """The ``n`` strongest positive keyword influences."""
        ranked = sorted(self.influences, key=lambda k: -k.weight)
        return tuple(ranked[:n])


@dataclass(frozen=True)
class RatingInfluence:
    """Influence of one of the user's own past ratings on a recommendation.

    ``influence`` is the additive share of the recommendation score that
    this past rating is responsible for; shares across all past ratings
    sum to (approximately) the full personalised score.  This reproduces
    the LIBRA influence table of the paper's Figure 3.
    """

    item_id: str
    rating: float
    influence: float


@dataclass(frozen=True)
class InfluenceEvidence(Evidence):
    """Per-past-rating influence attribution (Bilgic & Mooney / LIBRA)."""

    influences: tuple[RatingInfluence, ...]
    kind: str = field(default="rating_influence", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """One ``item`` entry per cited past rating, weighted by influence."""
        return tuple(
            EvidenceItem(
                kind="item", ref=influence.item_id,
                weight=influence.influence,
            )
            for influence in self.influences
        )

    def top(self, n: int = 5) -> tuple[RatingInfluence, ...]:
        """The ``n`` most influential past ratings (by absolute share)."""
        ranked = sorted(self.influences, key=lambda r: -abs(r.influence))
        return tuple(ranked[:n])

    def percentages(self) -> dict[str, float]:
        """Influence shares normalised to percentages of total |influence|."""
        total = sum(abs(r.influence) for r in self.influences)
        if total <= 0.0:
            return {r.item_id: 0.0 for r in self.influences}
        return {r.item_id: 100.0 * r.influence / total for r in self.influences}


@dataclass(frozen=True)
class AttributeScore:
    """One attribute's contribution inside a MAUT utility."""

    name: str
    value: object
    weight: float
    score: float

    @property
    def weighted_score(self) -> float:
        """The attribute's weighted contribution to the total utility."""
        return self.weight * self.score


@dataclass(frozen=True)
class UtilityEvidence(Evidence):
    """Attribute-by-attribute utility breakdown (knowledge-based CF).

    Feeds structured-overview categories and trade-off explanations like
    "Less Memory and Lower Resolution and Cheaper" (paper Sections 4.5,
    5.2).
    """

    scores: tuple[AttributeScore, ...]
    kind: str = field(default="utility", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """One ``attribute`` item per scored attribute (weighted score)."""
        return tuple(
            EvidenceItem(
                kind="attribute", ref=score.name,
                weight=score.weighted_score,
            )
            for score in self.scores
        )

    def total(self) -> float:
        """Weighted utility total."""
        return sum(score.weighted_score for score in self.scores)


@dataclass(frozen=True)
class PopularityEvidence(Evidence):
    """Popularity/recency support for a non-personalised recommendation.

    Powers "This is the most popular and recent item from the world cup"
    (paper Section 4.1).
    """

    n_ratings: int
    mean_rating: float
    recency: float
    kind: str = field(default="popularity", init=False)


@dataclass(frozen=True)
class ProfileAttributeEvidence(Evidence):
    """A stated or inferred profile attribute that drove the recommendation.

    Powers preference-based explanations ("Your interests suggest that you
    would like X") and scrutable "why" answers (paper Sections 2.2, 6).
    """

    attribute: str
    value: object
    provenance: str  # "volunteered" or "inferred"
    weight: float = 1.0
    kind: str = field(default="profile_attribute", init=False)

    def support_items(self) -> tuple[EvidenceItem, ...]:
        """The cited profile attribute, at its stated weight."""
        return (
            EvidenceItem(kind="attribute", ref=self.attribute, weight=self.weight),
        )


@dataclass(frozen=True)
class Prediction:
    """A predicted rating with confidence and supporting evidence.

    ``confidence`` is the recommender's self-assessed reliability in
    [0, 1] — the second of the two "often conflicting dimensions" of a
    recommendation the paper discusses in Section 4.6 (strength vs.
    confidence).  Frank recommender personalities surface it; bold ones
    hide it.
    """

    value: float
    confidence: float = 0.5
    evidence: tuple[Evidence, ...] = ()

    def find_evidence(self, kind: str) -> Evidence | None:
        """First evidence record of the given kind, or ``None``."""
        for record in self.evidence:
            if record.kind == kind:
                return record
        return None


@dataclass(frozen=True)
class Recommendation:
    """A ranked recommendation for one user."""

    item_id: str
    score: float
    rank: int
    prediction: Prediction

    @property
    def confidence(self) -> float:
        """Shortcut for the underlying prediction confidence."""
        return self.prediction.confidence


@dataclass
class PoolScores:
    """One pool pass over a candidate column array.

    ``values``/``confidences``/``ok`` align with the ``cols`` the pool
    was scored for; entries with ``ok`` false have no personalised
    prediction (the batch analogue of
    :class:`~repro.errors.PredictionImpossibleError`).  ``context``
    carries what :meth:`Recommender.evidence_for` needs for the few
    entries that survive ranking: batch intermediates (neighbor
    segments, factor contributions, keyword tables) for the numpy
    substrates, the per-item predictions for scalar ones.  A
    ``context["error"]``, when set, is the error behind the entries
    left not ``ok``; a one-column ``predict`` chains it.
    """

    cols: np.ndarray
    values: np.ndarray
    confidences: np.ndarray
    ok: np.ndarray
    context: dict = field(default_factory=dict)


class Recommender(abc.ABC):
    """Abstract base for all recommender substrates.

    One primitive scores: :meth:`score_pool` scores a whole candidate
    pool for one user, and :meth:`evidence_for` turns a scored entry
    into evidence.  :meth:`predict_many`, :meth:`recommend` and
    :meth:`recommend_many` are derived from that pair here, once, for
    every recommender.  Scalar substrates implement :meth:`predict`
    and inherit a per-item adapter as their pool pass; the numpy
    substrates (:class:`~repro.recsys.engine.VectorRecommender`)
    implement the pass itself.  Items the user already rated are
    excluded unless ``exclude_rated=False`` — except that an
    *affirming* recommender personality may deliberately re-surface
    known items (see :mod:`repro.presentation.personality`).

    Every substrate is observable for free: ``fit`` and ``recommend``
    run inside ``recsys.fit`` / ``recsys.recommend`` spans with
    per-substrate latency histograms, and every pool pass is counted
    and timed under the substrate that scored it.
    """

    def __init__(self) -> None:
        self._dataset: Dataset | None = None
        self._engine_matrix: RatingMatrix | None = None

    @property
    def dataset(self) -> Dataset:
        """The fitted dataset; raises :class:`NotFittedError` before fit."""
        if self._dataset is None:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before use"
            )
        return self._dataset

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._dataset is not None

    def fit(self, dataset: Dataset) -> "Recommender":
        """Train on ``dataset`` and return ``self`` (for chaining)."""
        substrate = type(self).__name__
        with obs.span(
            "recsys.fit",
            substrate=substrate,
            n_users=len(dataset.users),
            n_items=len(dataset.items),
        ):
            with obs.timed(
                "repro_fit_seconds",
                "Latency of Recommender.fit per substrate.",
                substrate=substrate,
            ):
                self._dataset = dataset
                self._fit(dataset)
        return self

    def _fit(self, dataset: Dataset) -> None:
        """Subclass hook: build model state from the dataset."""

    # -- snapshot tracking -------------------------------------------------

    def _matrix(self, snapshot: RatingMatrix | None = None) -> RatingMatrix:
        """The rating-matrix snapshot (current by default), caches refreshed.

        Model state derived from the rating relation is keyed to one
        snapshot: when ``snapshot`` is not the one last seen,
        :meth:`_on_matrix_change` drops what was derived from the old
        one, so absorbed interaction events are visible on the next
        pass exactly as a full refit would make them.
        """
        dataset = self.dataset  # raises NotFittedError before fit
        if snapshot is None:
            snapshot = dataset.rating_matrix()
        if snapshot is not self._engine_matrix:
            self._engine_matrix = snapshot
            self._on_matrix_change(snapshot)
        return snapshot

    def _on_matrix_change(self, matrix: RatingMatrix) -> None:
        """Subclass hook: drop caches derived from an older snapshot."""

    # -- the scoring primitive ---------------------------------------------

    @abc.abstractmethod
    def predict(self, user_id: str, item_id: str) -> Prediction:
        """Predict the user's rating of the item, with evidence.

        Raises :class:`PredictionImpossibleError` when no personalised
        prediction can be made.
        """

    #: Error types the derived paths degrade on.  The base class
    #: absorbs only the semantic miss (no personalised prediction
    #: exists); resilience wrappers widen this to exhausted retries,
    #: open breakers, spent deadlines and injected faults.  An unfitted
    #: model must never appear here — there is no item mean to fall
    #: back to before ``fit``.
    degrade_on: tuple[type[BaseException], ...] = (PredictionImpossibleError,)

    def score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Score every candidate column for one user in a single pass.

        The one scoring primitive.  It never raises for one item:
        entries without a personalised prediction come back with
        ``ok`` false.  Substrates implement :meth:`_score_pool`; this
        entry point refreshes their snapshot-derived state and counts
        and times the pass under the substrate's name.  Wrappers that
        only delegate a pass override this method itself, so an item
        is counted once, under the substrate that scored it.
        """
        self._matrix(matrix)
        substrate = type(self).__name__
        with obs.timed(
            "repro_predict_seconds",
            "Latency of one pool pass per substrate.",
            substrate=substrate,
        ):
            scores = self._score_pool(user_id, cols, matrix)
        registry = obs.get_registry()
        scored = int(np.count_nonzero(scores.ok))
        if scored:
            registry.counter(
                "repro_predictions_total",
                "Items a substrate scored, counted per pool pass.",
                labelnames=("substrate",),
            ).inc(scored, substrate=substrate)
        if scored < cols.size:
            registry.counter(
                "repro_prediction_failures_total",
                "Items a substrate had no personalised prediction for.",
                labelnames=("substrate",),
            ).inc(cols.size - scored, substrate=substrate)
        return scores

    def _score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """Per-item adapter: the pool pass of a scalar substrate.

        Calls :meth:`predict` once per column.  An error in
        :attr:`degrade_on` leaves that column not ``ok`` and keeps its
        message for :meth:`_impossible_message`; the predictions are
        kept for :meth:`evidence_for`.
        """
        size = cols.size
        values = np.full(size, 0.0)
        confidences = np.full(size, 0.0)
        ok = np.full(size, False)
        predictions: list[Prediction | None] = [None] * size
        messages: list[str | None] = [None] * size
        for position, item_id in enumerate(
            map(matrix.item_ids.__getitem__, cols.tolist())
        ):
            try:
                prediction = self.predict(user_id, item_id)
            except self.degrade_on as error:
                messages[position] = str(error)
                continue
            predictions[position] = prediction
            values[position] = prediction.value
            confidences[position] = prediction.confidence
            ok[position] = True
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=ok,
            context={"predictions": predictions, "messages": messages},
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """Evidence for the ``ok`` pool entry ``idx`` of :meth:`score_pool`.

        The adapter's evidence is what its prediction carried.
        """
        return scores.context["predictions"][idx].evidence

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        """Why pool entry ``idx`` has no personalised prediction."""
        messages = scores.context.get("messages")
        if messages is not None and messages[idx] is not None:
            return messages[idx]
        return (
            f"no personalised prediction for ({user_id!r}, {item_id!r})"
        )

    # -- derived surface ---------------------------------------------------

    def predict_or_default(self, user_id: str, item_id: str) -> Prediction:
        """Like :meth:`predict` but degrade to the item mean on failure.

        Failure means any error in :attr:`degrade_on`.  The fallback
        prediction carries zero confidence and no evidence, so a frank
        personality will present it as a guess.
        """
        try:
            return self.predict(user_id, item_id)
        except self.degrade_on:
            return Prediction(
                value=self.dataset.item_mean(item_id), confidence=0.0
            )

    def _pool_or_default(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> tuple[PoolScores, np.ndarray]:
        """:meth:`score_pool` and each column's value (item mean if not ok).

        The pool form of :meth:`predict_or_default`: a pass failing with
        :attr:`degrade_on` (a resilient wrapper's exhausted retries, say)
        leaves every column to its item mean.
        """
        try:
            scores = self.score_pool(user_id, cols, matrix)
        except self.degrade_on:
            zeros = np.full(cols.size, 0.0)
            scores = PoolScores(cols, zeros, zeros, zeros > 0.0)
        fallback = matrix.item_means[cols]
        return scores, np.where(scores.ok, scores.values, fallback)

    def _predictions(
        self,
        user_id: str,
        scores: PoolScores,
        values: np.ndarray,
        picks: np.ndarray,
        matrix: RatingMatrix,
    ) -> list[Prediction]:
        """Predictions for the pool entries ``picks``.

        A scored entry cites its evidence; the others carry the item-mean
        guess with zero confidence and no evidence.
        """
        entries = zip(
            picks.tolist(),
            values[picks].tolist(),
            scores.confidences[picks].tolist(),
            scores.ok[picks].tolist(),
        )
        return [
            Prediction(
                value=value,
                confidence=confidence,
                evidence=self.evidence_for(user_id, scores, idx, matrix),
            )
            if is_ok
            else Prediction(value=value, confidence=0.0)
            for idx, value, confidence, is_ok in entries
        ]

    def predict_many(
        self, user_id: str, item_ids: Sequence[str]
    ) -> list[Prediction]:
        """Batched :meth:`predict_or_default` over one user's item list.

        One pool pass; entries without a personalised prediction
        degrade to the item mean with zero confidence.  Unknown users
        and items raise.
        """
        dataset = self.dataset
        dataset.user(user_id)
        wanted = list(item_ids)
        for item_id in wanted:
            dataset.item(item_id)
        matrix = self._matrix()
        if not wanted:
            return []
        cols = np.empty(len(wanted), dtype=np.intp)
        cols[:] = list(map(matrix.col_of.__getitem__, wanted))
        scores, values = self._pool_or_default(user_id, cols, matrix)
        return self._predictions(
            user_id, scores, values, np.arange(cols.size), matrix
        )

    def recommend(
        self,
        user_id: str,
        n: int = 10,
        exclude_rated: bool = True,
        candidates: Iterable[str] | None = None,
    ) -> list[Recommendation]:
        """Top-``n`` recommendations for ``user_id``, from one pool pass.

        ``candidates`` restricts the pool (e.g. to one topic); by default
        every catalogue item is considered.  Ties break on item id so the
        ranking is deterministic.
        """
        substrate = type(self).__name__
        with obs.span(
            "recsys.recommend", substrate=substrate, user=user_id, n=n
        ) as span, obs.timed(
            "repro_recommend_seconds",
            "Latency of Recommender.recommend per substrate.",
            substrate=substrate,
        ):
            results = self._recommend_one(
                user_id, n, exclude_rated, candidates, span
            )
            obs.get_registry().counter(
                "repro_recommendations_total",
                "Recommendation lists produced per substrate.",
                labelnames=("substrate",),
            ).inc(substrate=substrate)
            return results

    def recommend_many(
        self,
        user_ids: Sequence[str],
        n: int = 10,
        exclude_rated: bool = True,
        candidates: Iterable[str] | None = None,
    ) -> list[list[Recommendation]]:
        """Batched :meth:`recommend` sharing one span and one model snapshot.

        The result list aligns with ``user_ids``; duplicate users cost
        one computation.  Each user's list is identical to what
        :meth:`recommend` returns for that user.
        """
        substrate = type(self).__name__
        batch = list(user_ids)
        wanted = list(candidates) if candidates is not None else None
        with obs.span(
            "recsys.recommend_many",
            substrate=substrate,
            users=len(batch),
            n=n,
        ), obs.timed(
            "repro_recommend_many_seconds",
            "Latency of Recommender.recommend_many per substrate.",
            substrate=substrate,
        ):
            unique: dict[str, list[Recommendation]] = {}
            for user_id in batch:
                if user_id not in unique:
                    unique[user_id] = self._recommend_one(
                        user_id, n, exclude_rated, wanted, None
                    )
            obs.get_registry().counter(
                "repro_recommendations_total",
                "Recommendation lists produced per substrate.",
                labelnames=("substrate",),
            ).inc(len(unique), substrate=substrate)
            return list(map(unique.__getitem__, batch))

    def _recommend_one(
        self,
        user_id: str,
        n: int,
        exclude_rated: bool,
        candidates: Iterable[str] | None,
        span: object,
    ) -> list[Recommendation]:
        """One user's ranked list: pool-score, rank, explain the top."""
        dataset = self.dataset
        if candidates is None:
            pool: list[str] = list(dataset.items)
        else:
            wanted = candidates
            pool = [
                item_id for item_id in wanted if item_id in dataset.items
            ]
        if exclude_rated:
            rated = set(dataset.ratings_by(user_id))
            pool = [item_id for item_id in pool if item_id not in rated]
        if span is not None:
            span.set("candidates", len(pool))
        if not pool:
            return []
        dataset.user(user_id)
        matrix = self._matrix()
        cols = np.empty(len(pool), dtype=np.intp)
        cols[:] = list(map(matrix.col_of.__getitem__, pool))
        scores, values = self._pool_or_default(user_id, cols, matrix)
        top = np.lexsort((matrix.item_rank[cols], -values))[:n]
        predictions = self._predictions(user_id, scores, values, top, matrix)
        ranked = zip(map(pool.__getitem__, top.tolist()), predictions)
        return [
            Recommendation(
                item_id=item_id,
                score=prediction.value,
                rank=rank,
                prediction=prediction,
            )
            for rank, (item_id, prediction) in enumerate(ranked, start=1)
        ]
