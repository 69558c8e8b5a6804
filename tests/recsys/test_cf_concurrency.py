"""Concurrent readers of one user-CF model share its neighbour-row cache.

``RecommendationServer`` runs several worker threads on one model, so
cache misses from different readers evict and insert concurrently.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.recsys import cf_user
from repro.recsys.cf_user import UserBasedCF


def test_neighbor_cache_eviction_survives_concurrent_readers(
    monkeypatch, movie_world
):
    # Every call is a miss that evicts: a two-row cache, rotating
    # three-user slices, and a constant one-neighbour row so a call is
    # pure cache bookkeeping.
    monkeypatch.setattr(cf_user, "_SIM_CACHE_LIMIT", 2)
    model = UserBasedCF().fit(movie_world.dataset)
    row = (np.array([0]), np.array([1.0]), np.array([3]))
    monkeypatch.setattr(model, "_similarities", lambda _row, _matrix: row)
    users = list(movie_world.dataset.users)
    errors: list[Exception] = []
    deadline = time.monotonic() + 1.0

    def reader(offset: int) -> None:
        step = offset
        try:
            while time.monotonic() < deadline:
                model.build_neighbor_index(
                    [users[(step + j) % len(users)] for j in range(3)]
                )
                step += 1
        except Exception as exc:  # noqa: BLE001 - collected below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(offset * 7,))
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
