"""Seeded fault injection for recommenders and explainers.

:class:`ChaosRecommender` and :class:`ChaosExplainer` wrap a real
component and inject failures and latency from a private seeded RNG, so
every retry policy, breaker transition and fallback decision in the
stack can be exercised end-to-end by a *deterministic* test: the same
seed always yields the same fault schedule.

Faults default to :class:`~repro.errors.InjectedFaultError`, which a
plain recommender's derived paths do **not** swallow — an injected
fault is visible to every layer that has not opted into resilience,
which is exactly what makes the chaos tests honest.

Latency is injected through an injectable ``sleep`` so tests can count
the injected seconds without waiting for them.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.explainers.base import Explainer
from repro.core.explanation import Explanation
from repro.errors import EventLogError, InjectedFaultError
from repro.eventlog.storage import FileStorage, SegmentHandle
from repro.recsys.base import PoolScores, Recommendation, Recommender
from repro.recsys.data import Dataset, RatingMatrix
from repro.resilience.fallback import _InnerWrapper

__all__ = [
    "ChaosRecommender",
    "ChaosExplainer",
    "FaultPlan",
    "DiskFaultPlan",
    "ChaosStorage",
    "ShardFaultPlan",
    "ShardFaultSchedule",
]


class FaultPlan:
    """A seeded schedule of failures and latencies.

    One instance is one deterministic stream: the ``n``-th call to
    :meth:`roll` always answers the same for a given seed, regardless of
    wall clock or interleaving with other plans.
    """

    def __init__(
        self,
        failure_rate: float = 0.2,
        latency_seconds: float = 0.0,
        latency_jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(
                f"failure_rate must be in [0, 1], got {failure_rate}"
            )
        if latency_seconds < 0.0 or latency_jitter < 0.0:
            raise ValueError("latencies must be >= 0")
        self.failure_rate = failure_rate
        self.latency_seconds = latency_seconds
        self.latency_jitter = latency_jitter
        self.seed = seed
        self._rng = random.Random(seed)

    def roll(self) -> tuple[bool, float]:
        """``(fail?, latency_seconds)`` for the next call."""
        fail = self._rng.random() < self.failure_rate
        latency = self.latency_seconds
        if self.latency_jitter > 0.0:
            latency += self._rng.random() * self.latency_jitter
        return fail, latency

    def reset(self) -> None:
        """Rewind the stream to the start (same seed, same schedule)."""
        self._rng = random.Random(self.seed)


def _count_injection(target: str, kind: str) -> None:
    obs.get_registry().counter(
        "repro_chaos_injected_total",
        "Faults and latencies injected by the chaos wrappers.",
        labelnames=("target", "kind"),
    ).inc(target=target, kind=kind)


class ChaosRecommender(_InnerWrapper):
    """A recommender whose calls fail and stall on a seeded schedule.

    Parameters
    ----------
    inner:
        The wrapped recommender.  Attributes the wrapper does not define
        (``rank``, ``catalog``, ...) are forwarded, so domain-specific
        substrates keep their extended API.
    failure_rate:
        Probability that an intercepted call raises ``error``.
    error:
        Exception *type* to raise on injected failures.
    fail_on:
        Method names to intercept.  ``predict`` names the pool pass —
        one roll per :meth:`score_pool` call, which every ``predict``,
        ``recommend`` and batch call goes through; any other name is
        intercepted through attribute forwarding.
    latency_seconds / latency_jitter:
        Injected latency per intercepted call (``sleep`` is injectable;
        tests pass a recorder and never wait).
    """

    def __init__(
        self,
        inner: Recommender,
        failure_rate: float = 0.2,
        error: type[Exception] = InjectedFaultError,
        fail_on: Iterable[str] = ("predict",),
        latency_seconds: float = 0.0,
        latency_jitter: float = 0.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.plan = FaultPlan(
            failure_rate=failure_rate,
            latency_seconds=latency_seconds,
            latency_jitter=latency_jitter,
            seed=seed,
        )
        self.error = error
        self.fail_on = frozenset(fail_on)
        self._sleep = sleep

    # -- chaos core -------------------------------------------------------

    def _maybe_inject(self, method: str) -> None:
        if method not in self.fail_on:
            return
        fail, latency = self.plan.roll()
        if latency > 0.0:
            _count_injection(type(self.inner).__name__, "latency")
            self._sleep(latency)
        if fail:
            _count_injection(type(self.inner).__name__, "failure")
            obs.event(
                "chaos.fault",
                target=type(self.inner).__name__,
                method=method,
                error=self.error.__name__,
            )
            raise self.error(
                f"chaos: injected {self.error.__name__} in "
                f"{type(self.inner).__name__}.{method}"
            )

    # -- Recommender protocol --------------------------------------------

    def score_pool(
        self, user_id: str, cols: np.ndarray, matrix: RatingMatrix
    ) -> PoolScores:
        """The inner pool pass, after one fault roll named ``predict``."""
        self._maybe_inject("predict")
        return self.inner.score_pool(user_id, cols, matrix)

    def __getattr__(self, name: str):
        # Only reached for attributes this class does not define; chaos
        # is injected into forwarded *methods* named in ``fail_on``.
        inner = object.__getattribute__(self, "inner")
        attribute = getattr(inner, name)
        if callable(attribute) and name in self.fail_on:
            def chaotic(*args, **kwargs):
                self._maybe_inject(name)
                return attribute(*args, **kwargs)

            return chaotic
        return attribute


class DiskFaultPlan:
    """A seeded schedule of disk faults for the event-log storage layer.

    Like :class:`FaultPlan`, one instance is one deterministic stream —
    the ``n``-th write/fsync/read roll always answers the same for a
    given seed — so a crash-recovery test can "kill the world" at an
    exactly reproducible write boundary.

    Parameters
    ----------
    write_failure_rate:
        Probability an intercepted write raises.  Of those failures,
        ``partial_share`` are *torn*: a seeded prefix of the bytes
        lands on disk before the error (the worst case a real disk
        produces), the rest fail cleanly with nothing written.
    fsync_failure_rate:
        Probability an fsync barrier raises (the write is in the OS
        cache but not durable — the log must roll it back).
    read_corruption_rate:
        Probability a segment read comes back with one seeded byte
        flipped (bit rot / controller corruption on the read path).
    """

    def __init__(
        self,
        write_failure_rate: float = 0.2,
        partial_share: float = 0.5,
        fsync_failure_rate: float = 0.0,
        read_corruption_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        for label, rate in (
            ("write_failure_rate", write_failure_rate),
            ("partial_share", partial_share),
            ("fsync_failure_rate", fsync_failure_rate),
            ("read_corruption_rate", read_corruption_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        self.write_failure_rate = write_failure_rate
        self.partial_share = partial_share
        self.fsync_failure_rate = fsync_failure_rate
        self.read_corruption_rate = read_corruption_rate
        self.seed = seed
        self._rng = random.Random(seed)

    def roll_write(self, n_bytes: int) -> int | None:
        """``None`` = write succeeds; otherwise the torn-prefix length.

        A returned ``0`` is a clean failure (nothing lands); ``k > 0``
        means ``k`` bytes land before the error (a torn write).
        """
        if self._rng.random() >= self.write_failure_rate:
            return None
        if n_bytes > 0 and self._rng.random() < self.partial_share:
            return self._rng.randrange(1, n_bytes + 1)
        return 0

    def roll_fsync(self) -> bool:
        """Whether the next fsync barrier fails."""
        return self._rng.random() < self.fsync_failure_rate

    def roll_read(self, n_bytes: int) -> int | None:
        """``None`` = clean read; otherwise the byte offset to corrupt."""
        if n_bytes == 0 or self._rng.random() >= self.read_corruption_rate:
            return None
        return self._rng.randrange(n_bytes)

    def reset(self) -> None:
        """Rewind the stream to the start (same seed, same schedule)."""
        self._rng = random.Random(self.seed)


class _ChaosHandle:
    """A segment handle whose writes and fsyncs fail on the plan."""

    def __init__(self, inner: SegmentHandle, plan: DiskFaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self.path = inner.path

    def position(self) -> int:
        return self._inner.position()

    def write(self, data: bytes) -> None:
        torn = self._plan.roll_write(len(data))
        if torn is None:
            self._inner.write(data)
            return
        if torn > 0:
            self._inner.write(data[:torn])
            _count_injection("storage", "torn_write")
            obs.event(
                "chaos.disk_fault",
                kind="torn_write",
                segment=self.path.name,
                landed=torn,
                requested=len(data),
            )
            raise EventLogError(
                f"chaos: torn write to {self.path.name} "
                f"({torn}/{len(data)} bytes landed)"
            )
        _count_injection("storage", "write_failure")
        obs.event(
            "chaos.disk_fault", kind="write_failure", segment=self.path.name
        )
        raise EventLogError(
            f"chaos: injected write failure on {self.path.name}"
        )

    def sync(self) -> None:
        if self._plan.roll_fsync():
            _count_injection("storage", "fsync_failure")
            obs.event(
                "chaos.disk_fault",
                kind="fsync_failure",
                segment=self.path.name,
            )
            raise EventLogError(
                f"chaos: injected fsync failure on {self.path.name}"
            )
        self._inner.sync()

    def truncate(self, size: int) -> None:
        # Rollback/repair paths stay reliable: chaos models a flaky
        # disk, not one that blocks recovery itself.
        self._inner.truncate(size)

    def close(self) -> None:
        self._inner.close()


class ChaosStorage(FileStorage):
    """Event-log storage whose writes, fsyncs, and reads fail on a plan.

    Drop-in for :class:`~repro.eventlog.storage.FileStorage` (pass as
    ``EventLog(..., storage=ChaosStorage(plan))``): appends go through
    a :class:`_ChaosHandle` that injects clean failures, torn writes,
    and fsync errors; :meth:`read_bytes` flips seeded bytes to model
    corruption on the read path.  Repair primitives (truncate, remove,
    replace, listing) stay reliable so recovery is always possible —
    the invariant under test is *zero acknowledged-event loss*, which
    only makes sense if recovery itself can run.
    """

    def __init__(
        self,
        plan: DiskFaultPlan | None = None,
        inner: FileStorage | None = None,
    ) -> None:
        self.plan = plan if plan is not None else DiskFaultPlan()
        self.inner = inner if inner is not None else FileStorage()

    def open_append(self, path: Path) -> SegmentHandle:
        handle = _ChaosHandle(self.inner.open_append(path), self.plan)
        return handle  # type: ignore[return-value]

    def read_bytes(self, path: Path) -> bytes:
        data = self.inner.read_bytes(path)
        offset = self.plan.roll_read(len(data))
        if offset is not None:
            _count_injection("storage", "read_corruption")
            obs.event(
                "chaos.disk_fault",
                kind="read_corruption",
                segment=path.name,
                offset=offset,
            )
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            data = bytes(corrupted)
        return data

    def truncate_path(self, path: Path, size: int) -> None:
        self.inner.truncate_path(path, size)

    def remove(self, path: Path) -> None:
        self.inner.remove(path)

    def replace(self, source: Path, destination: Path) -> None:
        self.inner.replace(source, destination)

    def list_segments(self, directory: Path, pattern: str) -> list[Path]:
        return self.inner.list_segments(directory, pattern)


class ChaosExplainer(Explainer):
    """An explainer whose calls fail on a seeded schedule."""

    def __init__(
        self,
        inner: Explainer,
        failure_rate: float = 0.2,
        error: type[Exception] = InjectedFaultError,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.plan = FaultPlan(failure_rate=failure_rate, seed=seed)
        self.error = error
        self.style = inner.style
        self.default_aims = inner.default_aims

    def explain(
        self, user_id: str, recommendation: Recommendation, dataset: Dataset
    ) -> Explanation:
        fail, __ = self.plan.roll()
        if fail:
            _count_injection(type(self.inner).__name__, "failure")
            obs.event(
                "chaos.fault",
                target=type(self.inner).__name__,
                method="explain",
                error=self.error.__name__,
            )
            raise self.error(
                f"chaos: injected {self.error.__name__} in "
                f"{type(self.inner).__name__}.explain"
            )
        return self.inner.explain(user_id, recommendation, dataset)


class ShardFaultSchedule:
    """One worker incarnation's deterministic view of a fault plan.

    Created inside the shard worker process from the
    :class:`ShardFaultPlan` it inherited in its spec; every roll
    happens against a stream seeded by ``(seed, shard_id,
    incarnation)``, so a kill on shard 2's 7th request reproduces
    exactly across runs regardless of fleet interleaving.
    """

    def __init__(
        self,
        shard_id: int,
        incarnation: int,
        *,
        kill_at: int | None,
        hang_at: int | None,
        startup_delay: float,
        kill_rate: float,
        hang_rate: float,
        hang_seconds: float,
        seed: int,
    ) -> None:
        self.shard_id = shard_id
        self.incarnation = incarnation
        self.kill_at = kill_at
        self.hang_at = hang_at
        self.startup_delay = startup_delay
        self.kill_rate = kill_rate
        self.hang_rate = hang_rate
        self.hang_seconds = hang_seconds
        self._requests = 0
        self._rng = random.Random(
            (seed * 1_000_003 + shard_id) * 8191 + incarnation
        )

    def on_request(self) -> str | None:
        """Roll the next request: ``"kill"``, ``"hang"``, or ``None``."""
        index = self._requests
        self._requests += 1
        action: str | None = None
        if self.kill_at is not None and index == self.kill_at:
            action = "kill"
        elif self.hang_at is not None and index == self.hang_at:
            action = "hang"
        elif self.kill_rate > 0.0 and self._rng.random() < self.kill_rate:
            action = "kill"
        elif self.hang_rate > 0.0 and self._rng.random() < self.hang_rate:
            action = "hang"
        if action is not None:
            _count_injection(f"shard:{self.shard_id}", action)
            obs.event(
                "chaos.shard_fault",
                shard=self.shard_id,
                incarnation=self.incarnation,
                request_index=index,
                kind=action,
            )
        return action


class ShardFaultPlan:
    """A seeded schedule of worker-process faults for the shard fleet.

    Three fault shapes, matching the supervisor's failure matrix:

    * **kill** — the worker ``SIGKILL``\\ s itself mid-request (a real
      ``kill -9``: no flush, no goodbye on the pipe);
    * **hang** — the worker sleeps ``hang_seconds`` inside its serving
      loop, so heartbeats stop while the process stays alive;
    * **slow start** — the worker sleeps before opening its event log,
      so no heartbeat arrives within the supervisor's start budget.

    Deterministic triggers (``kill_after={shard: request_index}``,
    ``hang_after``, ``slow_start_seconds``) fire once each; with
    ``first_incarnation_only=True`` (the default) only incarnation 0
    is armed, so a restarted worker converges instead of crash-looping.
    ``kill_rate``/``hang_rate`` add seeded per-request rolls for stress
    runs.  Instances are picklable: they cross the process boundary in
    the shard spec.
    """

    def __init__(
        self,
        *,
        kill_after: "Mapping[int, int] | None" = None,
        hang_after: "Mapping[int, int] | None" = None,
        slow_start_seconds: "Mapping[int, float] | None" = None,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        hang_seconds: float = 30.0,
        first_incarnation_only: bool = True,
        seed: int = 0,
    ) -> None:
        for label, rate in (
            ("kill_rate", kill_rate),
            ("hang_rate", hang_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if hang_seconds < 0.0:
            raise ValueError(
                f"hang_seconds must be >= 0, got {hang_seconds}"
            )
        self.kill_after = dict(kill_after or {})
        self.hang_after = dict(hang_after or {})
        self.slow_start_seconds = dict(slow_start_seconds or {})
        self.kill_rate = kill_rate
        self.hang_rate = hang_rate
        self.hang_seconds = hang_seconds
        self.first_incarnation_only = first_incarnation_only
        self.seed = seed

    def schedule(
        self, shard_id: int, incarnation: int
    ) -> ShardFaultSchedule:
        """The fault stream for one worker incarnation."""
        armed = incarnation == 0 or not self.first_incarnation_only
        return ShardFaultSchedule(
            shard_id,
            incarnation,
            kill_at=self.kill_after.get(shard_id) if armed else None,
            hang_at=self.hang_after.get(shard_id) if armed else None,
            startup_delay=(
                self.slow_start_seconds.get(shard_id, 0.0) if armed else 0.0
            ),
            kill_rate=self.kill_rate if armed else 0.0,
            hang_rate=self.hang_rate if armed else 0.0,
            hang_seconds=self.hang_seconds,
            seed=self.seed,
        )
