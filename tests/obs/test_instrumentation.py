"""The woven-in instrumentation: substrates, pipeline, sessions, harness."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import PredictionImpossibleError
from repro.recsys.base import Prediction, Recommender


class _AlwaysThree(Recommender):
    """Minimal substrate for instrumentation assertions."""

    def predict(self, user_id, item_id):
        return Prediction(value=3.0, confidence=0.9)


class _Impossible(Recommender):
    def predict(self, user_id, item_id):
        raise PredictionImpossibleError("never")


@pytest.fixture()
def tiny_dataset():
    from repro.recsys import Dataset, Item, Rating, RatingScale, User

    return Dataset(
        users=[User("alice"), User("bob")],
        items=[Item(f"i{k}", title=f"Item {k}") for k in range(4)],
        ratings=[
            Rating("alice", "i0", 5.0),
            Rating("alice", "i1", 4.0),
            Rating("bob", "i0", 5.0),
            Rating("bob", "i2", 2.0),
        ],
        scale=RatingScale(1.0, 5.0),
    )


class TestSubstrateMetrics:
    def test_predict_counted_per_substrate(self, tiny_dataset):
        recommender = _AlwaysThree().fit(tiny_dataset)
        recommender.predict_many("alice", ["i2", "i3"])
        registry = obs.get_registry()
        counter = registry.get("repro_predictions_total")
        assert counter.labels(substrate="_AlwaysThree").value == 2
        seconds = registry.get("repro_predict_seconds")
        assert seconds.labels(substrate="_AlwaysThree").count == 1

    def test_predict_failures_counted(self, tiny_dataset):
        recommender = _Impossible().fit(tiny_dataset)
        predictions = recommender.predict_many("alice", ["i2"])
        assert predictions[0].confidence == 0.0
        failures = obs.get_registry().get("repro_prediction_failures_total")
        assert failures.labels(substrate="_Impossible").value == 1
        assert obs.get_registry().get("repro_predictions_total") is None

    def test_pass_counted_once_under_the_subclass(self, tiny_dataset):
        class Child(_AlwaysThree):
            pass

        recommender = Child().fit(tiny_dataset)
        recommender.recommend("alice", n=2)
        counter = obs.get_registry().get("repro_predictions_total")
        assert counter.labels(substrate="Child").value == 2
        assert counter.value == 2

    def test_fit_and_recommend_timed(self, tiny_dataset):
        recommender = _AlwaysThree().fit(tiny_dataset)
        recommender.recommend("alice", n=2)
        registry = obs.get_registry()
        assert (
            registry.get("repro_fit_seconds")
            .labels(substrate="_AlwaysThree").count == 1
        )
        assert (
            registry.get("repro_recommend_seconds")
            .labels(substrate="_AlwaysThree").count == 1
        )
        assert (
            registry.get("repro_recommendations_total")
            .labels(substrate="_AlwaysThree").value == 1
        )

    def test_recommend_span_nests_fit_free(self, tiny_dataset):
        sink = obs.InMemorySink()
        obs.configure(sink=sink)
        recommender = _AlwaysThree().fit(tiny_dataset)
        recommender.recommend("alice", n=2)
        names = [event["name"] for event in sink.spans()]
        assert names == ["recsys.fit", "recsys.recommend"]
        recommend = sink.spans("recsys.recommend")[0]
        assert recommend["attrs"]["substrate"] == "_AlwaysThree"
        assert recommend["attrs"]["candidates"] == 2  # 4 items - 2 rated


class TestPipelineInstrumentation:
    def _pipeline(self, dataset):
        from repro.core import ExplainedRecommender
        from repro.core.explainers import NoExplanationExplainer

        return ExplainedRecommender(
            _AlwaysThree(), NoExplanationExplainer()
        ).fit(dataset)

    def test_recommend_explain_span_parentage(self, tiny_dataset):
        sink = obs.InMemorySink()
        obs.configure(sink=sink)
        pipeline = self._pipeline(tiny_dataset)
        pipeline.recommend("alice", n=2)
        outer = sink.spans("pipeline.recommend")[0]
        explains = sink.spans("pipeline.explain")
        assert len(explains) == 2
        assert all(e["parent_id"] == outer["span_id"] for e in explains)
        inner_recommend = sink.spans("recsys.recommend")[0]
        assert inner_recommend["parent_id"] == outer["span_id"]

    def test_explanations_counted_by_explainer(self, tiny_dataset):
        pipeline = self._pipeline(tiny_dataset)
        pipeline.recommend("alice", n=2)
        counter = obs.get_registry().get("repro_explanations_total")
        assert counter.labels(explainer="NoExplanationExplainer").value == 2

    def test_zero_events_when_tracing_disabled(self, tiny_dataset):
        pipeline = self._pipeline(tiny_dataset)
        pipeline.recommend("alice", n=2)
        pipeline.predict_and_explain("alice", "i3")
        # attach a sink only now: nothing may have been buffered or leaked
        sink = obs.InMemorySink()
        obs.configure(sink=sink)
        assert sink.events == []

    def test_predict_and_explain_unranked_sentinel(self, tiny_dataset):
        from repro.core import UNRANKED

        pipeline = self._pipeline(tiny_dataset)
        explained = pipeline.predict_and_explain("alice", "i3")
        assert explained.recommendation.rank == UNRANKED
        ranked = pipeline.recommend("alice", n=1)
        assert ranked[0].recommendation.rank == 1  # genuine top-1 unharmed


class TestSessionInstrumentation:
    def _session(self, offer_compound=True):
        from repro.domains import make_cameras
        from repro.interaction import CritiqueSession
        from repro.recsys import (
            KnowledgeBasedRecommender,
            Preference,
            UserRequirements,
        )

        dataset, catalog = make_cameras(n_items=30, seed=5)
        recommender = KnowledgeBasedRecommender(catalog).fit(dataset)
        requirements = UserRequirements(
            preferences=[Preference(attribute="price", weight=1.0)]
        )
        return CritiqueSession(
            recommender, requirements, offer_compound=offer_compound
        )

    def test_interaction_cycles_counter(self):
        from repro.interaction.critiques import UnitCritique

        session = self._session()
        counter = obs.get_registry().get("repro_interaction_cycles_total")
        assert counter.value == 1  # the initial show
        session.critique(UnitCritique("price", "more"))
        assert counter.value == 2

    def test_critiques_counted_by_kind(self):
        from repro.interaction.critiques import UnitCritique

        session = self._session()
        session.critique(UnitCritique("price", "more"))
        counter = obs.get_registry().get("repro_critiques_total")
        assert counter.labels(kind="unit").value == 1

    def test_rolled_back_critique_counts_as_repair(self):
        from repro.interaction.critiques import UnitCritique

        session = self._session()
        # the preference-ranked reference is already the cheapest item,
        # so asking for cheaper empties the pool and rolls back
        session.critique(UnitCritique("price", "less"))
        registry = obs.get_registry()
        assert registry.get("repro_repairs_total").value == 1
        assert registry.get("repro_critiques_total") is None

    def test_accept_observes_session_histograms(self):
        session = self._session()
        session.accept()
        registry = obs.get_registry()
        assert registry.get("repro_session_cycles").count == 1
        assert registry.get("repro_session_sim_seconds").count == 1

    def test_cycle_events_traced_when_enabled(self):
        sink = obs.InMemorySink()
        obs.configure(sink=sink)
        self._session()
        cycle_events = [
            event for event in sink.events
            if event["event"] == "point" and event["name"] == "session.cycle"
        ]
        assert len(cycle_events) == 1
        assert cycle_events[0]["attrs"]["cycle"] == 1
        assert sink.spans("critiques.mine")


class TestHarnessInstrumentation:
    def test_per_aim_timers_recorded(self):
        from repro.domains import make_movies
        from repro.evaluation.harness import (
            ExplanationConfiguration,
            evaluate_configuration,
        )

        world = make_movies(n_users=12, n_items=20, seed=3, density=0.3)
        evaluate_configuration(
            ExplanationConfiguration("probe"),
            world,
            n_users=6,
            items_per_user=2,
            seed=1,
        )
        histogram = obs.get_registry().get("repro_eval_aim_seconds")
        aims = {key[0] for key, __ in histogram._series_items()}
        assert {
            "simulate", "effectiveness", "persuasiveness", "trust",
            "transparency", "efficiency", "scrutability", "satisfaction",
        } <= aims

    def test_configuration_span_emitted(self):
        from repro.domains import make_movies
        from repro.evaluation.harness import (
            ExplanationConfiguration,
            evaluate_configuration,
        )

        sink = obs.InMemorySink()
        obs.configure(sink=sink)
        world = make_movies(n_users=12, n_items=20, seed=3, density=0.3)
        evaluate_configuration(
            ExplanationConfiguration("probe"),
            world,
            n_users=4,
            items_per_user=2,
        )
        spans = sink.spans("eval.configuration")
        assert len(spans) == 1
        assert spans[0]["attrs"]["configuration"] == "probe"
