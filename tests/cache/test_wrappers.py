"""Tests for the caching wrappers and the scrutability wiring."""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cache import (
    CachedExplainedRecommender,
    CachedRecommender,
    ShardedTTLCache,
    wire_invalidation,
)
from repro.interaction.profile import ScrutableProfile
from repro.interaction.ratings import RatingChannel
from repro.recsys.base import Prediction, Recommendation, Recommender


class ProbeRecommender(Recommender):
    """Counts every substrate call so tests can prove caching happened."""

    def __init__(self) -> None:
        super().__init__()
        self._calls_lock = threading.Lock()
        self.predict_calls = 0
        self.pool_calls = 0

    def predict(self, user_id: str, item_id: str) -> Prediction:
        with self._calls_lock:
            self.predict_calls += 1
        return Prediction(value=3.0, confidence=0.9)

    def score_pool(self, user_id, cols, matrix):
        with self._calls_lock:
            self.pool_calls += 1
        return super().score_pool(user_id, cols, matrix)


@dataclass
class FakeExplained:
    """The duck-typed surface CachedExplainedRecommender cares about."""

    item_id: str
    degraded: bool = False


@dataclass(frozen=True)
class FakeRec:
    item_id: str


class ProbePipeline:
    """A counting stand-in for an explained-recommendation pipeline."""

    def __init__(self, degraded: bool = False) -> None:
        self.degraded = degraded
        self.recommend_calls = 0
        self.explain_calls = 0
        self.fit_calls = 0

    def fit(self, dataset) -> "ProbePipeline":
        self.fit_calls += 1
        return self

    def recommend(self, user_id, n=10, exclude_rated=True, candidates=None):
        self.recommend_calls += 1
        return [
            FakeExplained(item_id=f"item{i}", degraded=self.degraded)
            for i in range(n)
        ]

    def explain_or_degrade(self, user_id, recommendation):
        self.explain_calls += 1
        return (f"because {recommendation.item_id}", self.degraded)


class TestCachedRecommender:
    def wrap(self, tiny_dataset, **cache_kwargs):
        inner = ProbeRecommender().fit(tiny_dataset)
        cache = ShardedTTLCache(name="probe", **cache_kwargs)
        return CachedRecommender(inner, cache), inner

    def test_predict_is_cached(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        first = cached.predict("alice", "i3")
        second = cached.predict("alice", "i3")
        assert first == second
        assert inner.predict_calls == 1
        cached.predict("alice", "i5")
        assert inner.predict_calls == 2

    def test_recommend_is_cached(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        first = cached.recommend("alice", n=3)
        second = cached.recommend("alice", n=3)
        assert first == second
        assert inner.pool_calls == 1
        cached.recommend("alice", n=2)  # different key -> recompute
        assert inner.pool_calls == 2

    def test_recommend_many_deduplicates_users(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        results = cached.recommend_many(
            ["alice", "bob", "alice", "bob", "alice"], n=3
        )
        assert inner.pool_calls == 2
        assert len(results) == 5
        assert results[0] == results[2] == results[4]
        assert results[1] == results[3]

    def test_fit_invalidates_everything(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        cached.recommend("alice", n=3)
        cached.fit(tiny_dataset)
        cached.recommend("alice", n=3)
        assert inner.pool_calls == 2

    def test_invalidate_user_forces_recompute(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        cached.recommend("alice", n=3)
        cached.recommend("bob", n=3)
        cached.invalidate_user("alice")
        cached.recommend("alice", n=3)  # recomputed
        cached.recommend("bob", n=3)  # still cached
        assert inner.pool_calls == 3

    def test_attribute_access_forwards_to_inner(self, tiny_dataset):
        cached, inner = self.wrap(tiny_dataset)
        assert cached.is_fitted is True
        assert cached.predict_calls == inner.predict_calls


class TestCachedExplainedRecommender:
    def test_recommend_and_many_are_cached(self):
        pipeline = ProbePipeline()
        cached = CachedExplainedRecommender(pipeline)
        first = cached.recommend("alice", n=3)
        assert cached.recommend("alice", n=3) == first
        assert pipeline.recommend_calls == 1
        cached.recommend_many(["alice", "bob", "alice"], n=3)
        assert pipeline.recommend_calls == 2

    def test_explain_and_many_are_cached(self):
        pipeline = ProbePipeline()
        cached = CachedExplainedRecommender(pipeline)
        explanation = cached.explain("alice", FakeRec("i1"))
        assert explanation == "because i1"
        cached.explain("alice", FakeRec("i1"))
        assert pipeline.explain_calls == 1
        recs = [FakeRec("i1"), FakeRec("i2"), FakeRec("i1")]
        explanations = cached.explain_many("alice", recs)
        assert pipeline.explain_calls == 2
        assert explanations[0] == explanations[2] == "because i1"

    def test_degraded_batch_lives_on_the_short_ttl(self):
        clock_now = [0.0]
        cache = ShardedTTLCache(
            name="degraded", ttl_seconds=10.0, degraded_ttl_seconds=1.0,
            clock=lambda: clock_now[0],
        )
        pipeline = ProbePipeline(degraded=True)
        cached = CachedExplainedRecommender(pipeline, cache)
        cached.recommend("alice", n=2)
        cached.recommend("alice", n=2)
        assert pipeline.recommend_calls == 1
        clock_now[0] += 1.5  # past the degraded TTL, well under the full one
        # The pipeline recovered; recompute replaces the degraded batch.
        pipeline.degraded = False
        fresh = cached.recommend("alice", n=2)
        assert pipeline.recommend_calls == 2
        assert not any(item.degraded for item in fresh)
        clock_now[0] += 1.5  # healthy entries outlive the degraded TTL
        cached.recommend("alice", n=2)
        assert pipeline.recommend_calls == 2

    def test_degraded_explanation_lives_on_the_short_ttl(self):
        clock_now = [0.0]
        cache = ShardedTTLCache(
            name="degraded", ttl_seconds=10.0, degraded_ttl_seconds=1.0,
            clock=lambda: clock_now[0],
        )
        pipeline = ProbePipeline(degraded=True)
        cached = CachedExplainedRecommender(pipeline, cache)
        cached.explain("alice", FakeRec("i1"))
        clock_now[0] += 1.5
        cached.explain("alice", FakeRec("i1"))
        assert pipeline.explain_calls == 2

    def test_fit_forwards_and_invalidates(self, tiny_dataset):
        pipeline = ProbePipeline()
        cached = CachedExplainedRecommender(pipeline)
        cached.recommend("alice", n=2)
        cached.fit(tiny_dataset)
        assert pipeline.fit_calls == 1
        cached.recommend("alice", n=2)
        assert pipeline.recommend_calls == 2


class TestWireInvalidation:
    """The acceptance criterion: after a re-rate / profile edit, the next
    recommend provably bypasses the cache — zero stale reads."""

    def test_rating_channel_invalidates_on_rate(self, tiny_dataset):
        inner = ProbeRecommender().fit(tiny_dataset)
        cached = CachedRecommender(inner)
        channel = RatingChannel(tiny_dataset)
        wire_invalidation(cached, channel)

        stale = cached.recommend("alice", n=3)
        assert cached.recommend("alice", n=3) == stale
        assert inner.pool_calls == 1

        channel.rate("alice", "i3", 5.0)  # the user corrects the system

        fresh = cached.recommend("alice", n=3)
        assert inner.pool_calls == 2
        # i3 is now rated, so it left the candidate pool: the fresh
        # answer is visibly different from the stale one.
        assert "i3" not in [item.item_id for item in fresh]
        assert "i3" in [item.item_id for item in stale]

    def test_profile_edit_invalidates(self, tiny_dataset):
        inner = ProbeRecommender().fit(tiny_dataset)
        cached = CachedRecommender(inner)
        profile = ScrutableProfile("alice")
        wire_invalidation(cached, profile)

        cached.recommend("alice", n=3)
        profile.volunteer("genre", "scifi")
        cached.recommend("alice", n=3)
        assert inner.pool_calls == 2

    def test_critique_session_invalidates(self, camera_world):
        from repro.interaction.critiques import UnitCritique
        from repro.interaction.session import CritiqueSession
        from repro.recsys.knowledge import (
            KnowledgeBasedRecommender,
            Preference,
            UserRequirements,
        )

        dataset, catalog = camera_world
        recommender = KnowledgeBasedRecommender(catalog).fit(dataset)
        session = CritiqueSession(
            recommender,
            UserRequirements(preferences=[Preference("resolution")]),
            user_id="alice",
        )
        cache = ShardedTTLCache(name="session")
        wire_invalidation(cache, session)

        cache.put("alice", "answer", "pre-critique")
        session.critique(UnitCritique("price", "less"))
        assert cache.lookup("alice", "answer") is None

    def test_multiple_channels_one_call(self, tiny_dataset):
        cache = ShardedTTLCache(name="multi")
        channel = RatingChannel(tiny_dataset)
        profile = ScrutableProfile("bob")
        wire_invalidation(cache, channel, profile)

        cache.put("bob", "k", "stale")
        profile.volunteer("likes", "space")
        assert cache.lookup("bob", "k") is None
        assert cache.generation("bob") == 1
        channel.rate("bob", "i3", 4.0)
        assert cache.generation("bob") == 2


def test_cached_recommendations_are_real_recommendations(tiny_dataset):
    """Sanity: the wrapper returns the substrate's actual objects."""
    cached = CachedRecommender(ProbeRecommender().fit(tiny_dataset))
    result = cached.recommend("alice", n=2)
    assert all(isinstance(item, Recommendation) for item in result)
    assert [item.rank for item in result] == [1, 2]
