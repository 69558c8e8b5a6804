"""The benchmarked serving stack and the seeded inputs that drive it.

Everything here is built from public ``repro`` APIs.  The world, the
collaborative lane and the server settings mirror ``python -m repro
serve`` (its collaborative lane at chaos 0, its worker/queue/bulkhead/
deadline defaults) on a larger world, so the benchmark times the path a
served request takes.  Inputs depend only on the seed: the program
receives the generated op streams and event logs, never the seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

N_USERS = 1000
N_ITEMS = 500
DENSITY = 0.05
#: ``make_movies``' own default seed; every run serves the same world.
WORLD_SEED = 7
TOP_N = 5

#: ``serve`` CLI defaults.
WORKERS = 4
QUEUE_SIZE = 32
BULKHEAD = 2
DEADLINE_S = 2.0

#: Long enough that no entry expires inside a run, including degraded
#: entries (a tenth of this); a hit then never depends on elapsed time.
CACHE_TTL_S = 3600.0
CACHE_CAPACITY = 2048

CLIENTS = 2
HOT_USERS = 128
ZIPF_S = 1.1
#: One write per this many read steps: a fifth of reads recompute.
STEPS_PER_WRITE = 5
LOG_EVENTS = 10_000
SHARDS = 2


# -- the stack -------------------------------------------------------------


def build_world():
    """The benchmark's movie world (deterministic)."""
    from repro.domains import make_movies

    return make_movies(
        n_users=N_USERS, n_items=N_ITEMS, seed=WORLD_SEED, density=DENSITY
    )


def build_lane(dataset):
    """The ``serve`` CLI's collaborative lane at chaos 0, fitted."""
    from repro.core import NeighborHistogramExplainer
    from repro.recsys import PopularityRecommender, UserBasedCF
    from repro.resilience import (
        BreakerPolicy,
        ResilientExplainedRecommender,
        Retry,
    )

    return ResilientExplainedRecommender(
        [UserBasedCF(), PopularityRecommender()],
        NeighborHistogramExplainer(),
        retry=Retry(max_attempts=3, base_delay=0.0),
        breaker=BreakerPolicy(failure_threshold=8, reset_timeout=0.05),
    ).fit(dataset)


def build_bare(dataset):
    """The bare stack a list served as primary must answer identically to."""
    from repro.core import ExplainedRecommender, NeighborHistogramExplainer
    from repro.recsys import UserBasedCF

    return ExplainedRecommender(
        UserBasedCF(), NeighborHistogramExplainer()
    ).fit(dataset)


def build_chain(dataset):
    """The lane's fallback chain with no resilience policies."""
    from repro.core import ExplainedRecommender, NeighborHistogramExplainer
    from repro.recsys import PopularityRecommender, UserBasedCF
    from repro.resilience import FallbackChain

    return ExplainedRecommender(
        FallbackChain([UserBasedCF(), PopularityRecommender()]),
        NeighborHistogramExplainer(),
    ).fit(dataset)


def fleet_world(seed: int) -> tuple[object, dict[str, object]]:
    """Shard world factory: the same world and lane in every shard.

    Module-level so it crosses the ``spawn`` boundary by import path.
    """
    from repro.domains import make_movies

    world = make_movies(
        n_users=N_USERS, n_items=N_ITEMS, seed=seed, density=DENSITY
    )
    return world.dataset, {"collaborative": build_lane(world.dataset)}


def build_cache(name: str):
    from repro.cache import ShardedTTLCache

    return ShardedTTLCache(
        name=name, capacity=CACHE_CAPACITY, ttl_seconds=CACHE_TTL_S
    )


def build_server(lane, *, cache=None, recovery=None):
    """``RecommendationServer`` with the ``serve`` CLI's settings."""
    from repro.serving import DeadlineAwareShedder, RecommendationServer

    return RecommendationServer(
        {"collaborative": lane},
        workers=WORKERS,
        queue_size=QUEUE_SIZE,
        shedder=DeadlineAwareShedder(),
        default_bulkhead=BULKHEAD,
        default_deadline_seconds=DEADLINE_S,
        cache=cache,
        recovery=recovery,
    )


def build_fleet(log_root: Path):
    """A 2-shard fleet over ``log_root`` with the CLI's shard settings.

    ``hang_timeout`` is raised above a slow uncached read: a shard's
    command loop sends no heartbeat while it serves one request, and a
    spurious hang restart would throw away its cache mid-run.
    """
    from repro.serving import ShardedServer

    return ShardedServer(
        fleet_world,
        log_root=log_root,
        shards=SHARDS,
        seed=WORLD_SEED,
        shard_workers=WORKERS,
        queue_size=QUEUE_SIZE,
        default_deadline_seconds=DEADLINE_S,
        cache_capacity=CACHE_CAPACITY,
        cache_ttl_seconds=CACHE_TTL_S,
        hang_timeout=10.0,
        start_timeout=120.0,
    )


# -- seeded inputs ---------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One client operation: a top-N read, or a durable re-rating."""

    kind: str  # "read" | "write"
    user: str
    item: str | None = None
    value: float | None = None


def partition(user_ids, seed: int) -> list[list[str]]:
    """Split the users into one disjoint share per client."""
    users = sorted(user_ids)
    random.Random(f"partition:{seed}").shuffle(users)
    share = len(users) // CLIENTS
    return [users[k * share:(k + 1) * share] for k in range(CLIENTS)]


def hot_users(own: list[str], seed: int, client: int) -> list[str]:
    """The client's hot users, most popular first."""
    rng = random.Random(f"hot:{seed}:{client}")
    return rng.sample(own, HOT_USERS // CLIENTS)


def uncached_stream(own: list[str], seed: int, client: int) -> Iterator[Op]:
    """Reads only, uniform over the client's users (shuffled rounds)."""
    rng = random.Random(f"read-uncached:{seed}:{client}")
    while True:
        order = list(own)
        rng.shuffle(order)
        for user in order:
            yield Op("read", user)


def rw_stream(
    hot: list[str], rated: dict[str, list[str]], seed: int, client: int
) -> Iterator[Op]:
    """Zipf reads over the hot users, with a re-rating every fifth read.

    The stream is a sequence of read steps.  In every group of
    ``STEPS_PER_WRITE`` steps exactly one, at a seeded position, is a
    uniformly drawn hot user who re-rates an item and then reads the
    refreshed list; the other steps read a Zipf-drawn hot user.  So
    exactly one read in five follows a write and recomputes, and every
    other read is a cache hit.  Drawing writes independently per op
    would let the recompute share, which sets most of a run's cost,
    swing by a fifth between seeds; drawing the writer from the Zipf
    head would tie that cost to the few head users of each seed.  With
    a fifth of reads recomputing, ``read_p50_ms`` falls among hits that
    follow a hit and ``read_p90_ms`` in the middle of the recomputes.

    A write re-rates an item the user already rated, so it changes a
    value, bumps the dataset version and invalidates the user's entry,
    and never grows a shared rating dict under a concurrent reader.
    """
    rng = random.Random(f"rw:{seed}:{client}")
    cum = list(accumulate((rank + 1) ** -ZIPF_S for rank in range(len(hot))))
    while True:
        writer = rng.randrange(STEPS_PER_WRITE)
        for step in range(STEPS_PER_WRITE):
            if step == writer:
                user = rng.choice(hot)
                item = rng.choice(rated[user])
                yield Op("write", user, item, float(rng.randint(1, 5)))
            else:
                user = rng.choices(hot, cum_weights=cum)[0]
            yield Op("read", user)


def rated_items(dataset, users) -> dict[str, list[str]]:
    """Each user's rated items, sorted (writes re-rate one of them)."""
    return {user: sorted(dataset.ratings_by(user)) for user in users}


def log_events(dataset, seed: int) -> list:
    """The pre-seeded event log: ratings over every user and item."""
    from repro.eventlog.events import InteractionEvent

    rng = random.Random(f"log:{seed}")
    users = sorted(dataset.users)
    items = sorted(dataset.items)
    latest: dict[tuple[str, str], float] = {}
    events = []
    for _ in range(LOG_EVENTS):
        user = rng.choice(users)
        item = rng.choice(items)
        value = float(rng.randint(1, 5))
        previous = latest.get((user, item))
        if previous is None:
            rating = dataset.rating(user, item)
            previous = rating.value if rating is not None else None
        latest[(user, item)] = value
        events.append(
            InteractionEvent(
                kind="rate" if previous is None else "re-rate",
                user_id=user,
                channel="rating",
                payload={
                    "item_id": item,
                    "value": value,
                    "previous_value": previous,
                },
            )
        )
    return events


def write_log(directory: Path, events) -> None:
    """Write events as one durable log (one fsync: fixture, not load)."""
    from repro.eventlog import EventLog

    with EventLog(directory, fsync_policy="never") as log:
        log.append_many(events)
        log.sync()


def write_fleet_logs(log_root: Path, events) -> None:
    """Write each event into its owner shard's log directory.

    The ``shard-NNN`` layout and the ring are the fleet's own, so the
    fleet recovers exactly these events at start.
    """
    from repro.serving import HashRing

    ring = HashRing(SHARDS)
    by_shard: dict[int, list] = {shard: [] for shard in range(SHARDS)}
    for event in events:
        by_shard[ring.route(event.user_id)].append(event)
    for shard, shard_events in by_shard.items():
        write_log(log_root / f"shard-{shard:03d}", shard_events)
