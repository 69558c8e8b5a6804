"""The similarity kernel behind user-based collaborative filtering.

:func:`pearson_batch` scores one user against every candidate in a
single masked pass.  :class:`~repro.recsys.cf_user.UserBasedCF` applies
minimum-overlap zeroing and Herlocker significance weighting on top of
it, and the loop-shaped parity references call the same kernel, so the
neighbours an explanation cites are the ones that scored the item.
Item-based CF builds its adjusted-cosine index in
:meth:`~repro.recsys.cf_item.ItemBasedCF.similarity_index`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pearson_batch"]

_EPSILON = 1e-12


def pearson_batch(
    target: np.ndarray, matrix: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise masked Pearson of one target against ``k`` candidates.

    ``target`` is the anchor entity's float values over its rated axis
    (shape ``(m,)``); ``matrix`` holds each candidate's float values in
    the same column order (shape ``(k, m)``), valid only where the
    boolean ``mask`` is true.  Returns ``(similarities, overlaps)`` of
    shape ``(k,)``.  Rows with fewer than two co-rated columns, or zero
    variance on either side, score 0.0 rather than ``nan``, so "no
    information" reads as "no similarity".
    """
    if matrix.shape != mask.shape or matrix.ndim != 2:
        raise ValueError(
            f"matrix/mask mismatch: {matrix.shape} vs {mask.shape}"
        )
    if target.shape != (matrix.shape[1],):
        raise ValueError(
            f"target {target.shape} does not align with matrix "
            f"{matrix.shape}"
        )
    counts = mask.sum(axis=1)
    rows = np.where(mask, target[None, :], 0.0)
    values = np.where(mask, matrix, 0.0)
    n = np.maximum(counts, 1)
    row_centered = np.where(
        mask, rows - (rows.sum(axis=1) / n)[:, None], 0.0
    )
    value_centered = np.where(
        mask, values - (values.sum(axis=1) / n)[:, None], 0.0
    )
    numerator = (row_centered * value_centered).sum(axis=1)
    denominator = np.sqrt((row_centered**2).sum(axis=1)) * np.sqrt(
        (value_centered**2).sum(axis=1)
    )
    valid = (counts >= 2) & (denominator >= _EPSILON)
    similarities = np.where(
        valid, numerator / np.where(valid, denominator, 1.0), 0.0
    )
    return np.clip(similarities, -1.0, 1.0), counts
