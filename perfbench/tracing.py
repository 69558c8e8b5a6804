"""In-memory spans around the public calls of each layer.

The traced run patches class attributes in the runner's own process:
each patched call records ``(span_id, name, start, end, parent_id,
request_id)``.  The parent and the request id travel in contextvars,
which :class:`~repro.serving.server.RecommendationServer` already
copies into its worker threads, so a worker's spans carry the id of the
client request that caused them.  :meth:`SpanRecorder.restore` puts
every original attribute back.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import itertools
import json
import time
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path


class SpanRecorder:
    """Records spans for patched calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_request", default=None)
        )
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._ids = itertools.count(1)
        self._patches: list[tuple[type, str, object]] = []
        self._snapshots: dict[int, object] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, self.request.get())
            )

    def patch(self, owner: type, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` (a function) in a span ``name``.

        Inlined rather than built on :meth:`span`: the wrapper runs
        around every per-item predict, so its own cost is the tracing
        overhead the run reports.
        """
        original = owner.__dict__[attribute]
        current, request, ids = self._current, self.request, self._ids
        record = self.spans.append
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                record((span_id, name, start, end, parent, request.get()))

        self._install(owner, attribute, original, traced)

    def patch_rebuilds(self, owner: type, attribute: str, name: str) -> None:
        """Record a span only when the call returned a new snapshot.

        For ``Dataset.rating_matrix``: most calls return the cached
        snapshot; a different object than the one this dataset last
        returned means this call rebuilt it.  The first call seen per
        dataset only learns the snapshot.
        """
        original = owner.__dict__[attribute]
        snapshots = self._snapshots

        @functools.wraps(original)
        def traced(target, *args, **kwargs):
            previous = snapshots.get(id(target))
            if previous is not None and previous.version == target.version:
                return original(target, *args, **kwargs)
            start = time.perf_counter()
            snapshot = original(target, *args, **kwargs)
            end = time.perf_counter()
            # Another thread may have stored this snapshot meanwhile.
            known = snapshots.get(id(target))
            snapshots[id(target)] = snapshot
            if previous is not None and snapshot is not known:
                self.spans.append(
                    (
                        next(self._ids),
                        name,
                        start,
                        end,
                        self._current.get(),
                        self.request.get(),
                    )
                )
            return snapshot

        self._install(owner, attribute, original, traced)

    def _install(self, owner, attribute, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Patch the public call of every layer the benchmark attributes."""
    from repro.cache import ShardedTTLCache
    from repro.core import ExplainedRecommender
    from repro.eventlog import EventLog
    from repro.interaction import RatingChannel
    from repro.recsys.base import Recommender
    from repro.recsys.data import Dataset
    from repro.recsys.engine import VectorRecommender
    from repro.resilience import FallbackChain, ResilientRecommender
    from repro.serving import RecommendationServer, ShardedServer

    recorder.patch(RecommendationServer, "submit", "serving.submit")
    recorder.patch(ShardedTTLCache, "lookup", "cache.lookup")
    recorder.patch(ShardedTTLCache, "invalidate_user", "cache.invalidate")
    recorder.patch(ResilientRecommender, "guard", "resilience.guard")
    recorder.patch(FallbackChain, "predict", "resilience.chain_predict")
    recorder.patch(Recommender, "recommend", "recsys.recommend")
    recorder.patch(VectorRecommender, "predict", "recsys.predict")
    recorder.patch_rebuilds(Dataset, "rating_matrix", "recsys.matrix_rebuild")
    recorder.patch(ExplainedRecommender, "explain", "core.explain")
    recorder.patch(RatingChannel, "rate", "interaction.rate")
    recorder.patch(EventLog, "append", "eventlog.append")
    recorder.patch(ShardedServer, "submit", "sharding.submit")
    recorder.patch(ShardedServer, "rate", "sharding.rate")


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: count, durations (s) and total self time (s).

    A span's self time is its duration minus the part of its interval
    that its children cover.  Children are clipped to the parent's
    interval: a request's worker-side spans start from the context the
    client copied inside ``submit`` and may outlive it.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for __, __, start, end, parent, __ in spans:
        if parent is not None:
            children[parent].append((start, end))
    summary: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "durations": [], "self_s": 0.0}
    )
    for span_id, name, start, end, __, __ in spans:
        covered = _covered(children.get(span_id, ()), start, end)
        entry = summary[name]
        entry["count"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start) - covered
    return dict(summary)


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
