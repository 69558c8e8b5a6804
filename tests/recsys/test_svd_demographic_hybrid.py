"""Tests for the SVD, demographic and hybrid recommenders."""

from __future__ import annotations

import pytest

from repro.errors import PredictionImpossibleError
from repro.recsys.base import Prediction, Recommender
from repro.recsys.cf_user import UserBasedCF
from repro.recsys.content import ContentBasedRecommender
from repro.recsys.data import Rating, User, train_test_split
from repro.recsys.demographic import DemographicRecommender
from repro.recsys.hybrid import HybridRecommender
from repro.recsys.metrics import mae
from repro.recsys.svd import SVDRecommender


class TestSVD:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SVDRecommender(n_factors=0)

    def test_predictions_on_scale(self, movie_world):
        recommender = SVDRecommender().fit(movie_world.dataset)
        for recommendation in recommender.recommend("user_000", n=10):
            assert 1.0 <= recommendation.score <= 5.0

    def test_deterministic_under_seed(self, movie_world):
        a = SVDRecommender(seed=3).fit(movie_world.dataset)
        b = SVDRecommender(seed=3).fit(movie_world.dataset)
        item_id = next(iter(movie_world.dataset.items))
        assert a.predict("user_000", item_id).value == pytest.approx(
            b.predict("user_000", item_id).value
        )

    def test_beats_global_mean(self):
        from repro.domains import make_movies

        world = make_movies(n_users=80, n_items=60, density=0.4, noise=0.35,
                            seed=7)
        train, test = train_test_split(world.dataset, 0.2)
        recommender = SVDRecommender().fit(train)
        global_mean = train.global_mean()
        predicted, baseline, actual = [], [], []
        for rating in test:
            prediction = recommender.predict_or_default(
                rating.user_id, rating.item_id
            )
            predicted.append(prediction.value)
            baseline.append(global_mean)
            actual.append(rating.value)
        assert mae(predicted, actual) < mae(baseline, actual)

    def test_posthoc_latent_evidence(self, movie_world):
        recommender = SVDRecommender().fit(movie_world.dataset)
        item_id = movie_world.dataset.unrated_items("user_000")[0]
        prediction = recommender.predict("user_000", item_id)
        for record in prediction.evidence:
            assert record.kind == "similar_item"
            # cited items were genuinely liked by the user
            rating = movie_world.dataset.rating("user_000", record.item_id)
            assert rating is not None
            assert movie_world.dataset.scale.is_positive(rating.value)

    def test_latent_similarity_bounded(self, movie_world):
        recommender = SVDRecommender().fit(movie_world.dataset)
        items = list(movie_world.dataset.items)[:5]
        for a in items:
            for b in items:
                assert -1.0 <= recommender.latent_similarity(a, b) <= 1.0

    def test_user_without_ratings_rejected(self, movie_world):
        dataset = movie_world.dataset.copy()
        dataset.add_user(User("stranger"))
        recommender = SVDRecommender().fit(dataset)
        with pytest.raises(PredictionImpossibleError):
            recommender.predict("stranger", next(iter(dataset.items)))


class TestDemographic:
    def test_group_mean_prediction(self, movie_world):
        recommender = DemographicRecommender("favorite_genre").fit(
            movie_world.dataset
        )
        made = 0
        for user_id in list(movie_world.dataset.users)[:5]:
            for item_id in movie_world.dataset.unrated_items(user_id)[:20]:
                try:
                    prediction = recommender.predict(user_id, item_id)
                except PredictionImpossibleError:
                    continue
                made += 1
                assert 1.0 <= prediction.value <= 5.0
                evidence = prediction.find_evidence("profile_attribute")
                assert evidence is not None
                assert evidence.attribute == "favorite_genre"
        assert made > 0

    def test_missing_attribute_rejected(self, movie_world):
        dataset = movie_world.dataset.copy()
        dataset.add_user(User("anon"))  # no attributes
        dataset.add_rating(
            Rating("anon", next(iter(dataset.items)), 4.0)
        )
        recommender = DemographicRecommender("favorite_genre").fit(dataset)
        with pytest.raises(PredictionImpossibleError):
            recommender.predict("anon", next(iter(dataset.items)))

    def test_sparse_group_rejected(self, movie_world):
        recommender = DemographicRecommender(
            "favorite_genre", min_group_ratings=10_000
        ).fit(movie_world.dataset)
        with pytest.raises(PredictionImpossibleError):
            recommender.predict(
                "user_000", next(iter(movie_world.dataset.items))
            )

    def test_group_explanation_sentence(self, movie_world):
        recommender = DemographicRecommender("favorite_genre").fit(
            movie_world.dataset
        )
        user_id = "user_000"
        group = recommender.group_of(user_id)
        for item_id in movie_world.dataset.items:
            try:
                recommender.predict(user_id, item_id)
            except PredictionImpossibleError:
                continue
            sentence = recommender.group_explanation(user_id, item_id)
            assert str(group) in sentence
            assert "rated this" in sentence
            return
        pytest.skip("no predictable item for user_000")


class _AlwaysFails(Recommender):
    def predict(self, user_id: str, item_id: str) -> Prediction:
        raise PredictionImpossibleError("never")


class _Constant(Recommender):
    def __init__(self, value: float, confidence: float = 0.5) -> None:
        super().__init__()
        self.value = value
        self.conf = confidence

    def predict(self, user_id: str, item_id: str) -> Prediction:
        return Prediction(value=self.value, confidence=self.conf)


class TestHybrid:
    def test_needs_components(self):
        with pytest.raises(ValueError):
            HybridRecommender([])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            HybridRecommender([(_Constant(3.0), 0.0)])

    def test_blends_by_weight_and_confidence(self, tiny_dataset):
        hybrid = HybridRecommender(
            [(_Constant(5.0, confidence=0.8), 1.0),
             (_Constant(1.0, confidence=0.8), 1.0)]
        ).fit(tiny_dataset)
        prediction = hybrid.predict("alice", "i1")
        assert prediction.value == pytest.approx(3.0)

    def test_confidence_weights_dominate(self, tiny_dataset):
        hybrid = HybridRecommender(
            [(_Constant(5.0, confidence=0.9), 1.0),
             (_Constant(1.0, confidence=0.05), 1.0)]
        ).fit(tiny_dataset)
        prediction = hybrid.predict("alice", "i1")
        assert prediction.value > 4.0

    def test_graceful_degradation(self, tiny_dataset):
        hybrid = HybridRecommender(
            [(_AlwaysFails(), 1.0), (_Constant(4.0), 1.0)]
        ).fit(tiny_dataset)
        assert hybrid.predict("alice", "i1").value == pytest.approx(4.0)

    def test_require_all_propagates_failure(self, tiny_dataset):
        hybrid = HybridRecommender(
            [(_AlwaysFails(), 1.0), (_Constant(4.0), 1.0)],
            require_all=True,
        ).fit(tiny_dataset)
        with pytest.raises(PredictionImpossibleError):
            hybrid.predict("alice", "i1")

    def test_all_components_fail(self, tiny_dataset):
        hybrid = HybridRecommender([(_AlwaysFails(), 1.0)]).fit(tiny_dataset)
        with pytest.raises(PredictionImpossibleError):
            hybrid.predict("alice", "i1")

    def test_evidence_concatenated(self, movie_world):
        hybrid = HybridRecommender(
            [(UserBasedCF(), 1.0), (ContentBasedRecommender(), 1.0)]
        ).fit(movie_world.dataset)
        for item_id in movie_world.dataset.unrated_items("user_000")[:20]:
            try:
                prediction = hybrid.predict("user_000", item_id)
            except PredictionImpossibleError:
                continue
            kinds = {record.kind for record in prediction.evidence}
            if {"neighbor_ratings", "keywords"} <= kinds:
                return
        pytest.skip("no item with both evidence kinds in this seed")

    def test_agreement_raises_confidence(self, tiny_dataset):
        agreeing = HybridRecommender(
            [(_Constant(4.0, 0.6), 1.0), (_Constant(4.0, 0.6), 1.0)]
        ).fit(tiny_dataset)
        disagreeing = HybridRecommender(
            [(_Constant(5.0, 0.6), 1.0), (_Constant(1.0, 0.6), 1.0)]
        ).fit(tiny_dataset)
        assert (
            agreeing.predict("alice", "i1").confidence
            > disagreeing.predict("alice", "i1").confidence
        )
