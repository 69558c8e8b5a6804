"""Loop-shaped reference predictors for the vectorized engine.

Every function here scores one ``(user, item)`` pair with plain Python
loops — the shape the scalar substrates had before the contiguous
rebuild — while sharing the engine's *leaf* primitives (the batched
similarity kernels, :func:`repro.recsys.naive_bayes.log_odds_terms`,
the :class:`~repro.recsys.data.RatingMatrix` accessors and scale
arithmetic).  Any difference between a reference score and an engine
score is therefore the vectorization itself, never a different formula.

The parity suite (``test_vectorized_parity.py``) pins the contract:

* scores match within 1 ulp (bitwise for most substrates),
* rankings and neighbour orderings never flip,
* evidence renders byte-identically.
"""

from __future__ import annotations

import numpy as np

from repro.recsys.base import (
    NeighborRating,
    NeighborRatingsEvidence,
    SimilarItemEvidence,
)
from repro.recsys.naive_bayes import log_odds_terms
from repro.recsys.similarity import pearson_batch

#: Sentinel distinguishing "no personalised prediction" from a score.
IMPOSSIBLE = object()


def user_cf_weights(rec, user_id):
    """Per-candidate weighted similarities, one batch-kernel call each.

    Loops over every other user, running :func:`pearson_batch` on a
    single-candidate dense slab — the same kernel the neighbor index
    runs once over all candidates — then applies overlap gating,
    significance weighting and optional index pruning step by step.
    """
    matrix = rec._matrix()
    row = matrix.row_of[user_id]
    weighted = np.zeros(matrix.n_users)
    overlaps = np.zeros(matrix.n_users, dtype=np.intp)
    ucols = matrix.user_cols(row)
    if ucols.size == 0:
        return weighted, overlaps
    target_vals = matrix.user_vals(row)
    rated = set(ucols.tolist())
    candidates = []
    for other in range(matrix.n_users):
        if other == row:
            continue
        corated = sum(
            1 for c in matrix.user_cols(other).tolist() if c in rated
        )
        if corated < max(rec.min_overlap, 1):
            continue
        candidates.append(other)
        values, mask = matrix.columns_dense(
            ucols, rows=np.array([other])
        )
        sims, counts = pearson_batch(target_vals, values, mask)
        sim, count = float(sims[0]), int(counts[0])
        weight = sim if count >= rec.min_overlap else 0.0
        if rec.significance_gamma > 0:
            weight = weight * (
                min(count, rec.significance_gamma)
                / rec.significance_gamma
            )
        weighted[other] = weight
        overlaps[other] = count
    limit = rec.neighbor_index_size
    if limit is not None and len(candidates) > limit:
        candidates.sort(
            key=lambda other: (-weighted[other], matrix.user_ids[other])
        )
        for other in candidates[limit:]:
            weighted[other] = 0.0
    return weighted, overlaps


def user_cf_predict(rec, user_id, item_id):
    """Resnick prediction by explicit neighbour iteration.

    Returns ``(value, confidence, evidence)`` or :data:`IMPOSSIBLE`.
    """
    matrix = rec._matrix()
    row = matrix.row_of[user_id]
    col = matrix.col_of[item_id]
    wsims, _counts = rec.neighbor_index(user_id)
    neighbors = []
    for rater, rating in zip(
        matrix.item_rows(col).tolist(), matrix.item_vals(col).tolist()
    ):
        weight = float(wsims[rater])
        if rater == row or weight <= 0.0:
            continue
        neighbors.append((rater, weight, rating))
    neighbors.sort(
        key=lambda entry: (-entry[1], matrix.user_ids[entry[0]])
    )
    neighbors = neighbors[: rec.k]
    if not neighbors:
        return IMPOSSIBLE
    numerator = 0.0
    denominator = 0.0
    for rater, weight, rating in neighbors:
        numerator += weight * (rating - float(matrix.user_means[rater]))
        denominator += abs(weight)
    if denominator <= 0.0:
        return IMPOSSIBLE
    value = matrix.scale.clip(
        float(matrix.user_means[row]) + numerator / denominator
    )
    confidence = min(1.0, len(neighbors) / rec.confidence_gamma) * min(
        1.0, denominator
    )
    evidence = (
        NeighborRatingsEvidence(
            neighbors=tuple(
                NeighborRating(
                    user_id=matrix.user_ids[rater],
                    similarity=weight,
                    rating=rating,
                )
                for rater, weight, rating in neighbors
            )
        ),
    )
    return value, confidence, evidence


def item_cf_predict(rec, user_id, item_id):
    """Item-kNN prediction by explicit neighbour iteration."""
    matrix = rec._matrix()
    row = matrix.row_of[user_id]
    col = matrix.col_of[item_id]
    sims, overlaps = rec.similarity_index()
    rated = sorted(
        zip(
            matrix.user_cols(row).tolist(),
            matrix.user_vals(row).tolist(),
        ),
        key=lambda entry: matrix.item_ids[entry[0]],
    )
    if not rated:
        return IMPOSSIBLE
    slots = []
    for other, rating in rated:
        sim = float(sims[col, other])
        usable = (
            sim > 0.0
            and int(overlaps[col, other]) >= rec.min_overlap
            and other != col
        )
        slots.append((sim if usable else -np.inf, other, rating))
    slots.sort(key=lambda entry: -entry[0])
    slots = slots[: min(rec.k, len(rated))]
    live = [entry for entry in slots if entry[0] > 0.0]
    if not live:
        return IMPOSSIBLE
    numerator = 0.0
    denominator = 0.0
    for sim, _other, rating in slots:
        if sim > 0.0:
            numerator += sim * rating
            denominator += abs(sim)
    if denominator <= 0.0:
        return IMPOSSIBLE
    value = matrix.scale.clip(numerator / denominator)
    confidence = min(1.0, len(live) / rec.confidence_gamma) * min(
        1.0, denominator
    )
    evidence = (
        tuple(
            SimilarItemEvidence(
                item_id=matrix.item_ids[other],
                similarity=sim,
                user_rating=rating,
            )
            for sim, other, rating in slots
            if sim > 0.0
        )
    )
    return value, confidence, evidence


def content_profile(rec, user_id):
    """User profile by rating-at-a-time accumulation."""
    matrix = rec._matrix()
    model = rec.model
    row = matrix.row_of.get(user_id)
    vector = np.zeros(len(model.vocabulary))
    if row is not None:
        midpoint = matrix.scale.midpoint
        for col, value in zip(
            matrix.user_cols(row).tolist(),
            matrix.user_vals(row).tolist(),
        ):
            vector = vector + (value - midpoint) * model.matrix[col]
    norm = np.linalg.norm(vector)
    if norm > 0.0:
        vector = vector / norm
    return vector


def content_predict(rec, user_id, item_id):
    """Profile-to-item cosine, one item at a time."""
    matrix = rec._matrix()
    model = rec.model
    profile = content_profile(rec, user_id)
    if not np.any(profile):
        return IMPOSSIBLE
    row = matrix.row_of[user_id]
    col = matrix.col_of[item_id]
    match = float((model.matrix[col] * profile).sum())
    value = float(
        matrix.scale.denormalize_array(np.array([(match + 1.0) / 2.0]))[0]
    )
    n_ratings = int(matrix.user_cols(row).size)
    confidence = min(1.0, n_ratings / 10.0) * min(1.0, abs(match) + 0.2)
    return value, confidence, match


def naive_bayes_predict(rec, user_id, item_id):
    """NB log-odds by keyword-at-a-time summation over shared terms."""
    matrix = rec._matrix()
    model = rec.model_for(user_id)
    n_examples = len(model.example_ids)
    if n_examples < rec.min_examples:
        return IMPOSSIBLE
    col = matrix.col_of[item_id]
    if float(model.class_weight.sum()) <= 0.0:
        log_odds = 0.0
    else:
        base, terms = log_odds_terms(
            rec.alpha, model.class_weight, model.feature_weight
        )
        # Terms accumulate into their own bucket first (as bincount
        # does), then the base is added — association matters at the
        # ulp level.
        total = 0.0
        for kw in rec.catalog.item_keywords(col).tolist():
            total += float(terms[kw])
        log_odds = base + total
    probability = 1.0 / (1.0 + float(np.exp(np.float64(-log_odds))))
    value = float(
        matrix.scale.denormalize_array(np.array([probability]))[0]
    )
    confidence = min(1.0, n_examples / 10.0) * min(
        1.0, abs(log_odds) / 2.0 + 0.2
    )
    return value, confidence, log_odds


def popularity_predict(rec, item_id):
    """Damped popularity score recomputed from one item's rating run."""
    matrix = rec._matrix()
    col = matrix.col_of[item_id]
    start = int(matrix.i_indptr[col])
    end = int(matrix.i_indptr[col + 1])
    count = end - start
    # reduceat applies the ufunc element by element; a sequential sum
    # over the segment reproduces it exactly (np.sum would go pairwise).
    total = 0.0
    for value in matrix.i_vals[start:end].tolist():
        total += value
    damped = (total + rec.damping * rec._global_mean) / (
        count + rec.damping
    )
    scale = matrix.scale
    base = float(scale.normalize_array(np.array([damped]))[0])
    recency = float(matrix.item_recency[col])
    blended = (1.0 - rec.recency_weight) * base + rec.recency_weight * (
        (recency - rec._recency_low) / rec._recency_span
    )
    value = float(scale.denormalize_array(np.array([blended]))[0])
    confidence = 1.0 - float(np.exp(np.float64(-count / 10.0)))
    return value, confidence, damped


def svd_predict(rec, user_id, item_id):
    """Factor-model prediction recomposed term by term."""
    matrix = rec._matrix()
    row = matrix.row_of[user_id]
    if rec._fit_matrix is None or rec._fit_matrix.n_users == 0:
        return IMPOSSIBLE
    if matrix.user_cols(row).size == 0:
        return IMPOSSIBLE
    factors, bias = rec._user_vector(user_id, matrix)
    col = matrix.col_of[item_id]
    safe, known = rec._fit_cols(np.array([col]))
    item_bias = float(rec._item_bias[safe[0]]) if known[0] else 0.0
    item_factors = rec._item_factors[safe[0]] * known[0]
    raw = (
        rec._global_mean
        + bias
        + item_bias
        + float((item_factors * factors).sum())
    )
    return matrix.scale.clip(raw), None, raw


def reference_ranking(predict_one, matrix, pool, n):
    """``(-score, item_id)`` ranking with item-mean fallback, by sort.

    ``predict_one`` maps an item id to a reference result (or
    :data:`IMPOSSIBLE`); the ranking mirrors the engine's fallback to
    the item mean for entries without a personalised prediction.
    """
    entries = []
    for item_id in pool:
        result = predict_one(item_id)
        if result is IMPOSSIBLE:
            value = float(matrix.item_means[matrix.col_of[item_id]])
        else:
            value = result[0]
        entries.append((item_id, value))
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    return entries[:n]
