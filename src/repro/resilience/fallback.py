"""Graceful degradation: resilient wrappers and fallback chains.

Two layers, composed freely:

* :class:`ResilientRecommender` wraps **one** substrate with the
  :mod:`repro.resilience.policies` mechanisms — retry/backoff around
  every pool pass, a per-substrate circuit breaker, an optional
  per-call deadline;
* :class:`FallbackChain` lines up **several** substrates (typically
  personalised first, popularity last) and degrades across them: the
  columns a component could not score, or all of them when it failed
  degradably, go to the next component, exactly the hybrid shape the
  survey describes (collaborative evidence first, content-based when
  neighbours are missing, non-personalised last).

Both wrap only the scoring primitive,
:meth:`~repro.recsys.base.Recommender.score_pool`; ``predict``,
``recommend`` and the batch calls derive from it as for any recommender.

:class:`FallbackExplainer` does the same for explanation generation,
ending at :class:`~repro.core.explainers.base.GenericExplainer` so an
explanation facility never takes a batch down — a degraded generic
explanation beats an error page.
"""

from __future__ import annotations

import contextvars
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.explainers.base import Explainer, GenericExplainer
from repro.core.explanation import Explanation
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    NotFittedError,
    PredictionImpossibleError,
    ReproError,
    RetryExhaustedError,
)
from repro.recsys.base import (
    Evidence,
    PoolScores,
    Prediction,
    Recommendation,
    Recommender,
)
from repro.recsys.data import Dataset, RatingMatrix
from repro.recsys.engine import VectorRecommender
from repro.resilience.policies import BreakerPolicy, CircuitBreaker, Deadline, Retry

__all__ = [
    "ResilientRecommender",
    "FallbackChain",
    "FallbackExplainer",
    "DegradationTracker",
    "track_degradation",
    "mark_degraded",
    "substrate_name",
]

#: Component errors a :class:`FallbackChain` degrades across by default.
DEGRADABLE_ERRORS: tuple[type[ReproError], ...] = (
    PredictionImpossibleError,
    NotFittedError,
    CircuitOpenError,
    RetryExhaustedError,
    DeadlineExceededError,
    InjectedFaultError,
)


def substrate_name(recommender: Recommender) -> str:
    """The wrapped substrate's class name, unwrapping chaos/resilient shells."""
    seen: set[int] = set()
    current = recommender
    while hasattr(current, "inner") and id(current) not in seen:
        seen.add(id(current))
        current = current.inner
    return type(current).__name__


@dataclass
class DegradationTracker:
    """Records substrate fallbacks observed during one tracked call.

    Before PR 5, a :class:`FallbackChain` result reached callers with
    no marker distinguishing it from a primary result — the serving
    boundary reported ``outcome="served"`` for a popularity-fallback
    answer, and caches pinned it for the full TTL.  The tracker is the
    channel that carries "a fallback happened" out of the chain's pool
    pass up to the list that contains it.
    """

    events: list[tuple[str, str]] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        """Whether any fallback happened inside the tracked scope."""
        return bool(self.events)

    def record(self, substrate: str, reason: str) -> None:
        """Note one fallback decision (substrate that failed, reason)."""
        self.events.append((substrate, reason))


_degradation_tracker: contextvars.ContextVar[DegradationTracker | None] = (
    contextvars.ContextVar("repro_degradation_tracker", default=None)
)


@contextmanager
def track_degradation() -> Iterator[DegradationTracker]:
    """Collect fallback events from everything called inside the block.

    Contextvar-based, so it is safe under the serving layer's worker
    threads: each tracked call sees only its own fallbacks.
    """
    tracker = DegradationTracker()
    token = _degradation_tracker.set(tracker)
    try:
        yield tracker
    finally:
        _degradation_tracker.reset(token)


def mark_degraded(substrate: str, reason: str) -> None:
    """Report a fallback to the active tracker, if any."""
    tracker = _degradation_tracker.get()
    if tracker is not None:
        tracker.record(substrate, reason)


def _count_fallback(substrate: str, reason: str, items: int = 1) -> None:
    obs.get_registry().counter(
        "repro_fallbacks_total",
        "Items a component failed on and handed to the next one.",
        labelnames=("substrate", "reason"),
    ).inc(items, substrate=substrate, reason=reason)


class _InnerWrapper(VectorRecommender):
    """A wrapper around one ``inner`` recommender's pool pass.

    Fitting, the dataset and evidence are the inner recommender's:
    subclasses override only :meth:`score_pool` to act around the
    inner pass.
    """

    inner: Recommender

    def fit(self, dataset: Dataset) -> "_InnerWrapper":
        self.inner.fit(dataset)
        return self

    @property
    def dataset(self) -> Dataset:
        return self.inner.dataset

    @property
    def is_fitted(self) -> bool:
        return self.inner.is_fitted

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """The inner recommender's evidence for its own pass."""
        return self.inner.evidence_for(user_id, scores, idx, matrix)

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        return self.inner._impossible_message(user_id, item_id, scores, idx)


class ResilientRecommender(_InnerWrapper):
    """One substrate under retry, breaker, and deadline policies.

    Parameters
    ----------
    inner:
        The wrapped recommender (possibly a chaos wrapper).
    retry:
        Retry policy applied around every protected call (one pool
        pass, or one forwarded call); ``None`` disables retries.
    breaker:
        Either a ready :class:`CircuitBreaker` or a
        :class:`BreakerPolicy` from which one is built, keyed by the
        wrapped substrate's class name; ``None`` disables the breaker.
    deadline_seconds:
        Per-call wall-clock budget shared across that call's retries;
        ``None`` disables the deadline.
    protect:
        Extra method names (beyond the pool pass) guarded with the same
        policies when reached through attribute forwarding — e.g.
        ``("rank",)`` for a knowledge-based substrate driving a
        critiquing session.
    """

    def __init__(
        self,
        inner: Recommender,
        retry: Retry | None = None,
        breaker: CircuitBreaker | BreakerPolicy | None = None,
        deadline_seconds: float | None = None,
        protect: Sequence[str] = (),
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        self.protect = frozenset(protect)
        self._clock = clock
        name = substrate_name(inner)
        self._substrate = name
        if isinstance(breaker, BreakerPolicy):
            breaker = breaker.build(name)
        self.breaker = breaker

    # -- policy engine ----------------------------------------------------

    def _count_retry(self, attempt: int, delay: float, error: BaseException) -> None:
        obs.get_registry().counter(
            "repro_retries_total",
            "Retries scheduled by resilience policies per substrate.",
            labelnames=("substrate",),
        ).inc(substrate=self._substrate)

    def guard(self, operation: Callable[[], object], name: str) -> object:
        """Run one call under breaker + deadline + retry.

        Raises :class:`~repro.errors.CircuitOpenError` without touching
        the substrate when the breaker is open; otherwise failures are
        recorded on the breaker (every :class:`ReproError` except a
        rejection by another breaker counts as a substrate failure).
        """
        if self.breaker is not None:
            self.breaker.check()
        deadline = None
        if self.deadline_seconds is not None:
            clock = self._clock
            deadline = (
                Deadline(self.deadline_seconds, clock=clock)
                if clock is not None
                else Deadline(self.deadline_seconds)
            )
        try:
            if self.retry is not None:
                result = self.retry.call(
                    operation,
                    name=f"{self._substrate}.{name}",
                    deadline=deadline,
                    on_retry=self._count_retry,
                )
            else:
                if deadline is not None:
                    deadline.require()
                result = operation()
        except ReproError as error:
            if self.breaker is not None and not isinstance(
                error, CircuitOpenError
            ):
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    # -- Recommender protocol --------------------------------------------

    #: A resilient substrate's derived paths also degrade on exhausted
    #: retries, open breakers, spent deadlines and injected faults.
    degrade_on = DEGRADABLE_ERRORS

    def predict(self, user_id: str, item_id: str) -> Prediction:
        """One forwarded prediction under one :meth:`guard` call."""
        return self.guard(
            lambda: self.inner.predict(user_id, item_id), "predict"
        )

    def score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """The inner pool pass under one :meth:`guard` call.

        A semantic miss is an entry left not ``ok``, not an error: it is
        never retried and never counts as a breaker failure.
        """
        return self.guard(
            lambda: self.inner.score_pool(user_id, cols, matrix), "predict"
        )

    def __getattr__(self, name: str):
        inner = object.__getattribute__(self, "inner")
        attribute = getattr(inner, name)
        if callable(attribute) and name in self.protect:
            def guarded(*args, **kwargs):
                return self.guard(lambda: attribute(*args, **kwargs), name)

            return guarded
        return attribute


class FallbackChain(VectorRecommender):
    """Degrade scoring across an ordered list of substrates.

    ``FallbackChain([cf_user, hybrid, popularity])`` scores the pool
    with the first component and hands the next one only the columns
    left not ``ok`` — or all of them when the call raised one of
    ``degrade_on``.  Every hand-off is a fill: counted per column in
    ``repro_fallbacks_total`` (a miss under the reason
    ``PredictionImpossibleError``), emitted as a ``resilience.fallback``
    event and marked on the ambient degradation tracker.  Each column
    cites the evidence of the component that scored it; a column no
    component scores falls back to the item mean, so a chain's
    recommendation list never comes back short.
    """

    def __init__(
        self,
        components: Sequence[Recommender],
        degrade_on: tuple[type[BaseException], ...] = DEGRADABLE_ERRORS,
    ) -> None:
        super().__init__()
        if not components:
            raise ValueError("a fallback chain needs at least one component")
        self.components = list(components)
        self.degrade_on = degrade_on

    def _fit(self, dataset: Dataset) -> None:
        for component in self.components:
            component.fit(dataset)

    def predict(self, user_id: str, item_id: str) -> Prediction:
        """A one-column pool pass (the chain's own attribute, which
        ``perfbench/tracing.py`` patches by name)."""
        return super().predict(user_id, item_id)

    def score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """One pass per component touched, over the columns still open."""
        size = cols.size
        values = np.full(size, 0.0)
        confidences = np.full(size, 0.0)
        ok = np.full(size, False)
        # Per column: the index into ``parts`` of the pass that scored it.
        source = np.full(size, -1)
        parts: list[tuple[Recommender, PoolScores, np.ndarray]] = []
        error: BaseException | None = None
        pending = np.arange(size)
        for component in self.components:
            if not pending.size:
                break
            try:
                scores = component.score_pool(user_id, cols[pending], matrix)
            except self.degrade_on as caught:
                error = caught
                reason = type(caught).__name__
            else:
                hit = np.flatnonzero(scores.ok)
                scored = pending[hit]
                values[scored] = scores.values[hit]
                confidences[scored] = scores.confidences[hit]
                ok[scored] = True
                source[scored] = len(parts)
                parts.append((component, scores, pending))
                pending = pending[~scores.ok]
                reason = "PredictionImpossibleError"
            if pending.size:
                name = substrate_name(component)
                _count_fallback(name, reason, int(pending.size))
                mark_degraded(name, reason)
                obs.event(
                    "resilience.fallback",
                    substrate=name,
                    reason=reason,
                    user=user_id,
                    items=int(pending.size),
                )
        return PoolScores(
            cols=cols,
            values=values,
            confidences=confidences,
            ok=ok,
            context={"parts": parts, "source": source, "error": error},
        )

    def evidence_for(
        self,
        user_id: str,
        scores: PoolScores,
        idx: int,
        matrix: RatingMatrix,
    ) -> tuple[Evidence, ...]:
        """The evidence of the component that scored column ``idx``."""
        component, part, positions = scores.context["parts"][
            int(scores.context["source"][idx])
        ]
        position = int(np.searchsorted(positions, idx))
        return component.evidence_for(user_id, part, position, matrix)

    def _impossible_message(
        self, user_id: str, item_id: str, scores: PoolScores, idx: int
    ) -> str:
        return (
            f"all {len(self.components)} chain components failed for "
            f"({user_id!r}, {item_id!r})"
        )


class FallbackExplainer(Explainer):
    """Try each explainer in turn; never leave a recommendation bare.

    The chain implicitly ends at
    :class:`~repro.core.explainers.base.GenericExplainer` unless
    ``terminal=False``, so :meth:`explain` only raises when explicitly
    configured as non-terminal (useful for composing chains).
    """

    def __init__(
        self, explainers: Sequence[Explainer], terminal: bool = True
    ) -> None:
        if not explainers:
            raise ValueError("a fallback explainer needs at least one stage")
        self.explainers = list(explainers)
        if terminal and not isinstance(self.explainers[-1], GenericExplainer):
            self.explainers.append(GenericExplainer())
        self.style = self.explainers[0].style
        self.default_aims = self.explainers[0].default_aims

    def explain(
        self, user_id: str, recommendation: Recommendation, dataset: Dataset
    ) -> Explanation:
        last_error: BaseException | None = None
        for explainer in self.explainers:
            try:
                return explainer.explain(user_id, recommendation, dataset)
            except ReproError as error:
                last_error = error
                name = type(explainer).__name__
                _count_fallback(name, type(error).__name__)
                obs.event(
                    "resilience.fallback",
                    substrate=name,
                    reason=type(error).__name__,
                    user=user_id,
                    item=recommendation.item_id,
                )
        assert last_error is not None
        raise last_error
