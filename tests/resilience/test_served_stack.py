"""The served collaborative lane at a 0% fault rate.

The ``serve`` CLI's collaborative lane wraps ``UserBasedCF`` and
popularity in retry and breaker policies.  At 0% faults those policies
must be invisible: the lane answers exactly like the policy-free chain,
a list served as primary answers exactly like bare ``UserBasedCF``, and
one read costs one guarded pool pass per chain component it touches.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cli import _build_serving_lanes
from repro.core import ExplainedRecommender, NeighborHistogramExplainer
from repro.recsys import PopularityRecommender, UserBasedCF
from repro.recsys.engine import VectorRecommender
from repro.resilience import (
    FallbackChain,
    ResilientRecommender,
    track_degradation,
)

TOP_N = 5


def _answer(explained):
    return [
        (
            entry.item_id,
            entry.score,
            entry.explanation.render(include_details=True),
        )
        for entry in explained
    ]


@pytest.fixture(scope="module")
def lane_world():
    world, lanes = _build_serving_lanes(0.0, 0)
    return world, lanes["collaborative"]


class TestLaneEqualsChain:
    def test_every_user_matches_chain_and_primary_matches_bare(
        self, lane_world
    ):
        world, lane = lane_world
        chain = ExplainedRecommender(
            FallbackChain([UserBasedCF(), PopularityRecommender()]),
            NeighborHistogramExplainer(),
        ).fit(world.dataset)
        bare = ExplainedRecommender(
            UserBasedCF(), NeighborHistogramExplainer()
        ).fit(world.dataset)
        outcomes = set()
        for user_id in world.dataset.users:
            served = lane.recommend(user_id, n=TOP_N)
            with track_degradation() as tracker:
                reference = chain.recommend(user_id, n=TOP_N)
            assert _answer(served) == _answer(reference), user_id
            assert [entry.degraded for entry in served] == [
                tracker.fired or entry.degraded for entry in reference
            ], user_id
            degraded = any(entry.degraded for entry in served)
            outcomes.add(degraded)
            if not degraded:
                assert _answer(served) == _answer(
                    bare.recommend(user_id, n=TOP_N)
                ), user_id
        # The world has users with and without semantic misses.
        assert outcomes == {True, False}


class TestOneReadOnePoolPass:
    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = {"guard": [], "predict": 0}
        guard = ResilientRecommender.guard

        def counting_guard(self, operation, name):
            calls["guard"].append(self._substrate)
            return guard(self, operation, name)

        def counting(original):
            def wrapper(*args, **kwargs):
                calls["predict"] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ResilientRecommender, "guard", counting_guard)
        for owner in (VectorRecommender, FallbackChain, ResilientRecommender):
            monkeypatch.setattr(
                owner, "predict", counting(owner.__dict__["predict"])
            )
        return calls

    def test_guards_misses_and_item_accounting(self, lane_world, counted):
        world, lane = lane_world
        obs.reset()
        dataset = world.dataset
        primary = lane.chain.components[0]
        total_items = 0
        total_misses = 0
        for user_id in dataset.users:
            counted["guard"].clear()
            before = obs.get_registry().get("repro_prediction_failures_total")
            misses_before = before.value if before is not None else 0
            lane.recommend(user_id, n=TOP_N)
            after = obs.get_registry().get("repro_prediction_failures_total")
            misses = (after.value if after is not None else 0) - misses_before
            # One guarded pass by the primary; popularity is touched
            # (one more pass) only when the primary left columns open.
            expected = ["UserBasedCF"] + (
                ["PopularityRecommender"] if misses else []
            )
            assert counted["guard"] == expected, user_id
            rated = len(dataset.ratings_by(user_id))
            total_items += len(dataset.items) - rated
            total_misses += misses
        assert counted["predict"] == 0
        assert total_misses > 0

        registry = obs.get_registry()
        # A miss is a fill: handed on, never retried, never a breaker
        # failure.
        assert registry.get("repro_retries_total") is None
        assert registry.get("repro_breaker_transitions_total") is None
        assert primary.breaker.state == "closed"
        fallbacks = registry.get("repro_fallbacks_total")
        assert fallbacks.value == total_misses
        assert fallbacks.labels(
            substrate="UserBasedCF", reason="PredictionImpossibleError"
        ).value == total_misses
        # Every candidate is scored exactly once, by a substrate.
        predictions = registry.get("repro_predictions_total")
        labels = {
            series["labels"]["substrate"]
            for series in predictions.as_dict()["series"]
        }
        assert labels == {"UserBasedCF", "PopularityRecommender"}
        assert predictions.value == total_items
        assert predictions.labels(
            substrate="PopularityRecommender"
        ).value == total_misses
