"""Recommender substrates: the algorithms explanations are generated from.

The paper classifies explanation styles by the knowledge source behind
them (content-based, collaborative-based, preference-based — Section 6);
this package implements one substrate per source plus the shared data
model, the user-CF similarity kernel, accuracy/beyond-accuracy metrics
and Ziegler-style diversification.
"""

from repro.recsys.base import (
    AttributeScore,
    Evidence,
    InfluenceEvidence,
    KeywordEvidence,
    KeywordInfluence,
    NeighborRating,
    NeighborRatingsEvidence,
    PopularityEvidence,
    Prediction,
    ProfileAttributeEvidence,
    RatingInfluence,
    Recommendation,
    Recommender,
    SimilarItemEvidence,
    UtilityEvidence,
)
from repro.recsys.cf_item import ItemBasedCF
from repro.recsys.cf_user import UserBasedCF
from repro.recsys.content import ContentBasedRecommender, TfIdfModel
from repro.recsys.data import (
    Dataset,
    Item,
    Rating,
    RatingMatrix,
    RatingScale,
    User,
    train_test_split,
)
from repro.recsys.diversify import diversify
from repro.recsys.engine import PoolScores, VectorRecommender
from repro.recsys.knowledge import (
    AttributeSpec,
    Catalog,
    Constraint,
    KnowledgeBasedRecommender,
    Preference,
    Relaxation,
    TradeoffDelta,
    UserRequirements,
    compare_items,
)
from repro.recsys.demographic import DemographicRecommender
from repro.recsys.group import (
    STRATEGIES,
    GroupRecommendation,
    GroupRecommender,
)
from repro.recsys.hybrid import HybridRecommender
from repro.recsys.io import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)
from repro.recsys.naive_bayes import NaiveBayesRecommender
from repro.recsys.popularity import PopularityRecommender
from repro.recsys.svd import SVDRecommender

__all__ = [
    # data
    "Dataset",
    "Item",
    "User",
    "Rating",
    "RatingMatrix",
    "RatingScale",
    "train_test_split",
    # vectorized engine
    "VectorRecommender",
    "PoolScores",
    # protocol & evidence
    "Recommender",
    "Prediction",
    "Recommendation",
    "Evidence",
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
    # algorithms
    "UserBasedCF",
    "ItemBasedCF",
    "ContentBasedRecommender",
    "TfIdfModel",
    "NaiveBayesRecommender",
    "KnowledgeBasedRecommender",
    "PopularityRecommender",
    "SVDRecommender",
    "DemographicRecommender",
    "HybridRecommender",
    "GroupRecommender",
    "GroupRecommendation",
    "STRATEGIES",
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset",
    "load_dataset",
    # knowledge-based vocabulary
    "AttributeSpec",
    "Catalog",
    "Constraint",
    "Preference",
    "UserRequirements",
    "TradeoffDelta",
    "compare_items",
    "Relaxation",
    # post-processing
    "diversify",
]
