"""Tests for the collaborative filtering substrates (user and item kNN)."""

from __future__ import annotations

import pytest

from repro.errors import (
    NotFittedError,
    PredictionImpossibleError,
    UnknownItemError,
)
from repro.recsys.base import NeighborRatingsEvidence, SimilarItemEvidence
from repro.recsys.cf_item import ItemBasedCF
from repro.recsys.cf_user import UserBasedCF


def user_weights(dataset, user_id, **params):
    """``{other_user: (weight, overlap)}`` from a user's neighbor index."""
    model = UserBasedCF(**params).fit(dataset)
    weights, overlaps = model.neighbor_index(user_id)
    rows = dataset.rating_matrix().row_of
    return {
        other: (float(weights[row]), int(overlaps[row]))
        for other, row in rows.items()
    }


def item_similarity(dataset, item_a, item_b, **params):
    """``(similarity, co_raters)`` of two items in the item-item index."""
    sims, overlaps = ItemBasedCF(**params).fit(dataset).similarity_index()
    cols = dataset.rating_matrix().col_of
    a, b = cols[item_a], cols[item_b]
    return float(sims[a, b]), int(overlaps[a, b])


class TestUserNeighborhood:
    def test_agreeing_users_are_similar(self, tiny_dataset):
        weights = user_weights(tiny_dataset, "alice", significance_gamma=0)
        assert weights["bob"] == (pytest.approx(1.0), 3)

    def test_disagreeing_users_are_dissimilar(self, tiny_dataset):
        weights = user_weights(tiny_dataset, "alice", significance_gamma=0)
        assert weights["carol"] == (pytest.approx(-1.0), 3)

    def test_insufficient_overlap_is_zero(self, tiny_dataset):
        weights = user_weights(tiny_dataset, "alice", min_overlap=4)
        assert weights["bob"][0] == 0.0

    def test_neighbors_exclude_self_and_negatives(self, tiny_dataset):
        weights = user_weights(tiny_dataset, "alice", significance_gamma=0)
        assert weights["alice"] == (0.0, 0)
        positive = {uid for uid, (weight, _) in weights.items() if weight > 0}
        assert positive == {"bob"}  # carol's negative correlation filtered

    def test_item_restriction(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        prediction = recommender.predict("alice", "i5")
        # only bob and carol rated i5; carol is negative.
        (evidence,) = prediction.evidence
        assert [n.user_id for n in evidence.neighbors] == ["bob"]

    def test_cache_symmetry(self, tiny_dataset):
        users = list(tiny_dataset.users)
        index = {
            uid: user_weights(tiny_dataset, uid, significance_gamma=0)
            for uid in users
        }
        for a in users:
            for b in users:
                assert index[a][b] == (
                    pytest.approx(index[b][a][0]),
                    index[b][a][1],
                )


class TestUserBasedCF:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            UserBasedCF().predict("alice", "i1")

    def test_fit_returns_self(self, tiny_dataset):
        recommender = UserBasedCF()
        assert recommender.fit(tiny_dataset) is recommender
        assert recommender.is_fitted

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            UserBasedCF(k=0)

    def test_prediction_follows_like_minded_neighbor(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        # bob rated i5 low (1.5); alice agrees with bob.
        prediction = recommender.predict("alice", "i5")
        assert prediction.value < 3.0

    def test_prediction_carries_neighbor_evidence(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        prediction = recommender.predict("alice", "i5")
        evidence = prediction.find_evidence("neighbor_ratings")
        assert isinstance(evidence, NeighborRatingsEvidence)
        assert {n.user_id for n in evidence.neighbors} == {"bob"}

    def test_no_neighbors_raises(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        # nobody else rated i3 except dave (zero-variance profile).
        with pytest.raises(PredictionImpossibleError):
            recommender.predict("alice", "i3")

    def test_unknown_item_raises(self, tiny_dataset):
        recommender = UserBasedCF().fit(tiny_dataset)
        with pytest.raises(UnknownItemError):
            recommender.predict("alice", "nope")

    def test_predict_or_default_falls_back(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        prediction = recommender.predict_or_default("alice", "i3")
        assert prediction.confidence == 0.0
        assert prediction.value == tiny_dataset.item_mean("i3")

    def test_recommend_excludes_rated(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        recommendations = recommender.recommend("alice", n=5)
        rated = set(tiny_dataset.ratings_by("alice"))
        assert all(r.item_id not in rated for r in recommendations)

    def test_recommend_ranks_are_sequential(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        recommendations = recommender.recommend("alice", n=5)
        assert [r.rank for r in recommendations] == list(
            range(1, len(recommendations) + 1)
        )

    def test_recommend_with_candidates(self, tiny_dataset):
        recommender = UserBasedCF(significance_gamma=0).fit(tiny_dataset)
        recommendations = recommender.recommend(
            "alice", n=5, candidates=["i5", "nonexistent"]
        )
        assert [r.item_id for r in recommendations] == ["i5"]

    def test_values_on_scale(self, movie_world):
        recommender = UserBasedCF().fit(movie_world.dataset)
        for recommendation in recommender.recommend("user_000", n=10):
            assert 1.0 <= recommendation.score <= 5.0
            assert 0.0 <= recommendation.confidence <= 1.0

    def test_predictions_beat_global_mean_baseline(self):
        """Personalised CF should out-predict the constant global mean.

        Needs a reasonably dense world: with only a couple of co-rated
        items per user pair, Pearson neighbourhoods are noise.
        """
        from repro.domains import make_movies
        from repro.recsys.data import train_test_split
        from repro.recsys.metrics import mae

        world = make_movies(n_users=80, n_items=60, density=0.4, noise=0.35,
                            seed=7)
        train, test = train_test_split(world.dataset, 0.2)
        recommender = UserBasedCF().fit(train)
        global_mean = train.global_mean()
        cf_predictions = []
        baseline_predictions = []
        actuals = []
        for rating in test:
            prediction = recommender.predict_or_default(
                rating.user_id, rating.item_id
            )
            cf_predictions.append(prediction.value)
            baseline_predictions.append(global_mean)
            actuals.append(rating.value)
        assert mae(cf_predictions, actuals) < mae(
            baseline_predictions, actuals
        )


class TestItemNeighborhood:
    def test_corated_items_similar(self, tiny_dataset):
        similarity, overlap = item_similarity(
            tiny_dataset, "i1", "i2", significance_gamma=0
        )
        assert overlap == 4
        assert similarity == pytest.approx(0.999, abs=1e-3)

    def test_opposed_items_dissimilar(self, tiny_dataset):
        similarity, __ = item_similarity(
            tiny_dataset, "i1", "i4", significance_gamma=0
        )
        assert similarity < 0.0

    def test_rated_by_restriction(self, tiny_dataset):
        recommender = ItemBasedCF(significance_gamma=0).fit(tiny_dataset)
        prediction = recommender.predict("alice", "i5")
        ids = {record.item_id for record in prediction.evidence}
        assert ids
        assert ids <= {"i1", "i2", "i4"}


class TestItemBasedCF:
    def test_prediction_from_similar_rated_items(self, tiny_dataset):
        recommender = ItemBasedCF(significance_gamma=0).fit(tiny_dataset)
        # i5 is similar to i4 (carol/bob agree); alice hated i4.
        prediction = recommender.predict("alice", "i5")
        assert prediction.value < 3.0
        evidence = [
            record
            for record in prediction.evidence
            if isinstance(record, SimilarItemEvidence)
        ]
        assert evidence
        assert all(record.similarity > 0 for record in evidence)

    def test_no_similar_items_raises(self, tiny_dataset):
        recommender = ItemBasedCF(significance_gamma=0).fit(tiny_dataset)
        with pytest.raises(PredictionImpossibleError):
            recommender.predict("dave", "i4")

    def test_similar_items_listing(self, movie_world):
        recommender = ItemBasedCF().fit(movie_world.dataset)
        item_id = next(iter(movie_world.dataset.items))
        similar = recommender.similar_items(item_id, n=3)
        assert len(similar) <= 3
        assert all(other != item_id for other, __ in similar)
        # sorted descending by similarity
        values = [value for __, value in similar]
        assert values == sorted(values, reverse=True)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ItemBasedCF(k=-1)
