"""Resilient wrappers, fallback chains, and the degraded pipeline path."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import (
    ExplainedRecommender,
    GenericExplainer,
    NeighborHistogramExplainer,
)
from repro.core.explainers.base import Explainer
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    PredictionImpossibleError,
    RetryExhaustedError,
)
from repro.recsys import PopularityRecommender, UserBasedCF
from repro.recsys.base import Prediction, Recommender
from repro.resilience import (
    DEGRADABLE_ERRORS,
    BreakerPolicy,
    ChaosExplainer,
    ChaosRecommender,
    CircuitBreaker,
    FallbackChain,
    FallbackExplainer,
    ResilientExplainedRecommender,
    ResilientRecommender,
    Retry,
    substrate_name,
)


class FlakyRecommender(Recommender):
    """Fails the first ``failures`` predict calls, then answers 4.0."""

    def __init__(self, failures=0, error=InjectedFaultError):
        super().__init__()
        self.failures = failures
        self.error = error
        self.calls = 0

    def predict(self, user_id, item_id):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error("flaky")
        return Prediction(value=4.0, confidence=0.9)


class ExplodingExplainer(Explainer):
    """Raises on a chosen item; otherwise delegates to the histogram."""

    def __init__(self, bad_items=()):
        self.bad_items = set(bad_items)
        self.inner = NeighborHistogramExplainer()
        self.style = self.inner.style
        self.default_aims = self.inner.default_aims

    def explain(self, user_id, recommendation, dataset):
        if not self.bad_items or recommendation.item_id in self.bad_items:
            raise PredictionImpossibleError(
                f"no explanation for {recommendation.item_id}"
            )
        return self.inner.explain(user_id, recommendation, dataset)


class TestSubstrateName:
    def test_unwraps_nested_wrappers(self):
        inner = PopularityRecommender()
        wrapped = ResilientRecommender(
            ChaosRecommender(inner, failure_rate=0.5)
        )
        assert substrate_name(wrapped) == "PopularityRecommender"
        assert substrate_name(inner) == "PopularityRecommender"


class TestResilientRecommender:
    def test_no_policies_is_transparent(self, movie_world):
        bare = UserBasedCF().fit(movie_world.dataset)
        wrapped = ResilientRecommender(UserBasedCF()).fit(movie_world.dataset)
        assert (
            [r.item_id for r in wrapped.recommend("user_000", n=5)]
            == [r.item_id for r in bare.recommend("user_000", n=5)]
        )
        assert obs.get_registry().get("repro_retries_total") is None
        assert obs.get_registry().get("repro_fallbacks_total") is None

    def test_retry_recovers_and_counts(self, movie_world):
        flaky = FlakyRecommender(failures=2).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky, retry=Retry(max_attempts=3, base_delay=0.0)
        )
        prediction = wrapped.predict("user_000", "item_000")
        assert prediction.value == 4.0
        counter = obs.get_registry().get("repro_retries_total")
        assert counter.labels(substrate="FlakyRecommender").value == 2

    def test_retry_exhaustion_surfaces(self, movie_world):
        flaky = FlakyRecommender(failures=99).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky, retry=Retry(max_attempts=2, base_delay=0.0)
        )
        with pytest.raises(RetryExhaustedError):
            wrapped.predict("user_000", "item_000")
        assert flaky.calls == 2

    def test_breaker_opens_and_stops_hammering(self, movie_world):
        flaky = FlakyRecommender(failures=99).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky,
            breaker=CircuitBreaker("flaky", failure_threshold=3),
        )
        for __ in range(3):
            with pytest.raises(InjectedFaultError):
                wrapped.predict("user_000", "item_000")
        calls_when_tripped = flaky.calls
        with pytest.raises(CircuitOpenError):
            wrapped.predict("user_000", "item_000")
        assert flaky.calls == calls_when_tripped

    def test_breaker_policy_keyed_by_inner_class(self, movie_world):
        wrapped = ResilientRecommender(
            ChaosRecommender(PopularityRecommender(), failure_rate=0.0),
            breaker=BreakerPolicy(failure_threshold=2),
        )
        assert wrapped.breaker.name == "PopularityRecommender"

    def test_deadline_enforced_with_fake_clock(self, movie_world):
        class Clock:
            now = 0.0

            def __call__(self):
                Clock.now += 10.0
                return Clock.now

        flaky = FlakyRecommender(failures=0).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky, deadline_seconds=5.0, clock=Clock()
        )
        with pytest.raises(DeadlineExceededError):
            wrapped.predict("user_000", "item_000")

    def test_degrade_on_widened_beyond_base(self, movie_world):
        flaky = FlakyRecommender(failures=99).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky, retry=Retry(max_attempts=2, base_delay=0.0)
        ).fit(movie_world.dataset)
        # RetryExhaustedError is degradable here, so predict_or_default
        # falls back to the item mean instead of raising.
        item_id = next(iter(movie_world.dataset.items))
        prediction = wrapped.predict_or_default("user_000", item_id)
        assert prediction.confidence == 0.0
        assert wrapped.degrade_on == DEGRADABLE_ERRORS

    def test_failed_pool_pass_degrades_the_whole_list(self, movie_world):
        flaky = FlakyRecommender(failures=10**9).fit(movie_world.dataset)
        wrapped = ResilientRecommender(
            flaky, retry=Retry(max_attempts=2, base_delay=0.0)
        )
        recommendations = wrapped.recommend("user_000", n=5)
        assert len(recommendations) == 5
        assert all(r.confidence == 0.0 for r in recommendations)
        # Retries act per pool pass: one call per attempt, not per item.
        assert flaky.calls == 2

    def test_protected_methods_guarded_through_forwarding(self, camera_world):
        from repro.recsys import KnowledgeBasedRecommender, UserRequirements

        dataset, catalog = camera_world
        chaos = ChaosRecommender(
            KnowledgeBasedRecommender(catalog).fit(dataset),
            failure_rate=1.0,
            seed=0,
            fail_on=("rank",),
        )
        wrapped = ResilientRecommender(
            chaos,
            retry=Retry(max_attempts=2, base_delay=0.0),
            protect=("rank",),
        )
        with pytest.raises(RetryExhaustedError):
            wrapped.rank(UserRequirements())
        counter = obs.get_registry().get("repro_retries_total")
        assert counter.labels(
            substrate="KnowledgeBasedRecommender"
        ).value == 1


class TestFallbackChain:
    def test_first_healthy_component_answers(self, movie_world):
        chain = FallbackChain(
            [UserBasedCF(), PopularityRecommender()]
        ).fit(movie_world.dataset)
        item_id = next(iter(movie_world.dataset.items))
        prediction = chain.predict("user_000", item_id)
        assert prediction.value > 0
        assert obs.get_registry().get("repro_fallbacks_total") is None

    def test_failure_degrades_to_next_component(self, movie_world):
        chain = FallbackChain(
            [FlakyRecommender(failures=99), PopularityRecommender()]
        ).fit(movie_world.dataset)
        item_id = next(iter(movie_world.dataset.items))
        prediction = chain.predict("user_000", item_id)
        assert prediction.value > 0
        counter = obs.get_registry().get("repro_fallbacks_total")
        assert counter.labels(
            substrate="FlakyRecommender", reason="InjectedFaultError"
        ).value == 1

    def test_all_components_failing_raises_prediction_impossible(
        self, movie_world
    ):
        chain = FallbackChain(
            [FlakyRecommender(failures=99), FlakyRecommender(failures=99)]
        ).fit(movie_world.dataset)
        item_id = next(iter(movie_world.dataset.items))
        with pytest.raises(PredictionImpossibleError) as excinfo:
            chain.predict("user_000", item_id)
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

    def test_recommend_list_never_comes_back_short(self, movie_world):
        chain = FallbackChain(
            [FlakyRecommender(failures=10**9), FlakyRecommender(failures=10**9)]
        ).fit(movie_world.dataset)
        recommendations = chain.recommend("user_000", n=10)
        assert len(recommendations) == 10
        assert all(r.confidence == 0.0 for r in recommendations)

    def test_unfitted_component_is_degradable(self, movie_world):
        fitted = PopularityRecommender().fit(movie_world.dataset)
        chain = FallbackChain([UserBasedCF(), fitted])
        chain._dataset = movie_world.dataset  # chain fitted, component not
        item_id = next(iter(movie_world.dataset.items))
        prediction = chain.predict("user_000", item_id)
        assert prediction.value > 0
        counter = obs.get_registry().get("repro_fallbacks_total")
        assert counter.labels(
            substrate="UserBasedCF", reason="NotFittedError"
        ).value == 1

    def test_each_column_cites_the_component_that_scored_it(
        self, movie_world
    ):
        dataset = movie_world.dataset
        chain = FallbackChain(
            [UserBasedCF(), PopularityRecommender()]
        ).fit(dataset)
        primary, fill = chain.components
        items = list(dataset.items)
        sources = set()
        for user_id in dataset.users:
            cited = chain.predict_many(user_id, items)
            first = primary.predict_many(user_id, items)
            second = fill.predict_many(user_id, items)
            for got, mine, filled in zip(cited, first, second):
                source = "primary" if mine.evidence else "fill"
                sources.add(source)
                assert got == (mine if mine.evidence else filled)
        assert sources == {"primary", "fill"}

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackChain([])


class TestFallbackExplainer:
    def test_appends_generic_terminus(self):
        chain = FallbackExplainer([NeighborHistogramExplainer()])
        assert isinstance(chain.explainers[-1], GenericExplainer)

    def test_degrades_to_generic(self, movie_world):
        pipeline = ExplainedRecommender(
            UserBasedCF(), NeighborHistogramExplainer()
        ).fit(movie_world.dataset)
        recommendation = pipeline.recommender.recommend("user_000", n=1)[0]
        chain = FallbackExplainer([ExplodingExplainer()])
        explanation = chain.explain(
            "user_000", recommendation, movie_world.dataset
        )
        assert "recommended for you" in explanation.text

    def test_non_terminal_chain_reraises(self, movie_world):
        pipeline = ExplainedRecommender(
            UserBasedCF(), NeighborHistogramExplainer()
        ).fit(movie_world.dataset)
        recommendation = pipeline.recommender.recommend("user_000", n=1)[0]
        chain = FallbackExplainer([ExplodingExplainer()], terminal=False)
        with pytest.raises(PredictionImpossibleError):
            chain.explain("user_000", recommendation, movie_world.dataset)


class TestPipelineDegradedPath:
    def test_mid_batch_explainer_failure_keeps_every_item(self, movie_world):
        """The per-item catch: one bad explanation never loses the batch."""
        pipeline = ExplainedRecommender(
            UserBasedCF(), NeighborHistogramExplainer()
        ).fit(movie_world.dataset)
        ranked = pipeline.recommender.recommend("user_000", n=5)
        bad_item = ranked[2].item_id

        pipeline = ExplainedRecommender(
            UserBasedCF(), ExplodingExplainer(bad_items={bad_item})
        ).fit(movie_world.dataset)
        explained = pipeline.recommend("user_000", n=5)
        assert len(explained) == 5
        by_item = {entry.item_id: entry for entry in explained}
        assert by_item[bad_item].degraded
        assert "recommended for you" in by_item[bad_item].explanation.text
        healthy = [e for e in explained if e.item_id != bad_item]
        assert not any(entry.degraded for entry in healthy)
        counter = obs.get_registry().get(
            "repro_degraded_explanations_total"
        )
        assert counter.labels(explainer="ExplodingExplainer").value == 1

    def test_custom_fallback_explainer_used(self, movie_world):
        pipeline = ExplainedRecommender(
            UserBasedCF(),
            ExplodingExplainer(),
            fallback_explainer=NeighborHistogramExplainer(),
        ).fit(movie_world.dataset)
        explained = pipeline.recommend("user_000", n=3)
        assert all(entry.degraded for entry in explained)
        assert all(
            "recommended for you" not in entry.explanation.text
            for entry in explained
        )


class TestResilientExplainedRecommender:
    def test_no_policy_single_substrate_stays_bare(self, movie_world):
        substrate = UserBasedCF()
        pipeline = ResilientExplainedRecommender(
            substrate, NeighborHistogramExplainer()
        )
        assert pipeline.recommender is substrate
        assert pipeline.chain is None

    def test_multiple_substrates_form_a_chain(self, movie_world):
        pipeline = ResilientExplainedRecommender(
            [UserBasedCF(), PopularityRecommender()],
            NeighborHistogramExplainer(),
            retry=Retry(max_attempts=2, base_delay=0.0),
        ).fit(movie_world.dataset)
        assert pipeline.chain is not None
        assert all(
            isinstance(component, ResilientRecommender)
            for component in pipeline.chain.components
        )

    def test_prebuilt_chain_used_as_is(self, movie_world):
        chain = FallbackChain([UserBasedCF(), PopularityRecommender()])
        pipeline = ResilientExplainedRecommender(
            chain,
            NeighborHistogramExplainer(),
            retry=Retry(max_attempts=2, base_delay=0.0),
        )
        assert pipeline.recommender is chain

    def test_rejects_empty_substrate_list(self):
        with pytest.raises(ValueError):
            ResilientExplainedRecommender([], NeighborHistogramExplainer())

    def test_full_stack_under_chaos_serves_complete_lists(self, movie_world):
        pipeline = ResilientExplainedRecommender(
            [
                ChaosRecommender(UserBasedCF(), failure_rate=0.3, seed=1),
                PopularityRecommender(),
            ],
            ChaosExplainer(
                NeighborHistogramExplainer(), failure_rate=0.3, seed=2
            ),
            retry=Retry(max_attempts=3, base_delay=0.0, seed=1),
            breaker=BreakerPolicy(failure_threshold=10, reset_timeout=0.01),
        ).fit(movie_world.dataset)
        for user_id in list(movie_world.dataset.users)[:8]:
            explained = pipeline.recommend(user_id, n=5)
            assert len(explained) == 5
            for entry in explained:
                assert entry.explanation.text
        registry = obs.get_registry()
        assert registry.get("repro_retries_total").value > 0
        assert registry.get("repro_degraded_explanations_total").value > 0
