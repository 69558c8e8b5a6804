"""Time explained top-5 reads (and durable writes) through the serving stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot-rw --seed 1 --seconds 15 --trace 0

Workloads (see ``README.md``): ``read-uncached``, ``hot-rw`` and
``fleet-rw``.  Two closed-loop client threads each own a disjoint half of
the users they touch.  With ``--trace 0`` the last stdout line is a JSON
object whose metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the run also measures an untraced window, then traces
a second window and reports the per-layer metrics.  The line before it
(``record {...}``) is the run's noise record: seed, host steal, sample
counts and the seed-determined counts.  Exit status 0 means every
post-window answer check passed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stack, tracing  # noqa: E402

OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("read-uncached", "hot-rw", "fleet-rw")
#: Ops per client whose seed-determined counts every run reports; a
#: client keeps going past the deadline until it has finished them.
PREFIX_OPS = {"read-uncached": 12, "hot-rw": 64, "fleet-rw": 64}
#: Setups per run; ``setup_s`` reports their median.  The rw workloads
#: set up once: their warm-up alone is 128 uncached reads.
SETUPS = {"read-uncached": 3, "hot-rw": 1, "fleet-rw": 1}
CHECK_USERS = 16
OP_TIMEOUT_S = 60.0


@dataclass
class OpRecord:
    """One client operation as the client saw it."""

    client: int
    kind: str
    user: str
    start: float
    end: float
    ok: bool
    outcome: str
    cached: bool = False
    queue_wait_s: float = 0.0
    service_s: float = 0.0

    @property
    def answered(self) -> bool:
        return self.outcome in ("served", "degraded")


@dataclass
class Window:
    """What one timed window measured."""

    records: list[list[OpRecord]]
    seconds: float
    cpu_s: float
    steal_share: float
    cache_hits: int = 0
    cache_lookups: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> list[OpRecord]:
        return [record for client in self.records for record in client]


# -- host and process probes ----------------------------------------------


def _proc_stat_cpu() -> tuple[int, int]:
    """(steal, total) jiffies of the host, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(value) for value in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def _pid_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of one process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        rest = stat.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def _pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return 0.0


def _self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(share * len(values)) - 1)]


# -- targets: one interface over the server and the fleet ------------------


class LocalTarget:
    """Reads through a ``RecommendationServer``, writes through a channel."""

    def __init__(self, server, channel=None) -> None:
        self.server = server
        self.channel = channel

    def read(self, user: str):
        return self.server.serve(user, n=stack.TOP_N, timeout=OP_TIMEOUT_S)

    @staticmethod
    def renders(result) -> list[str]:
        return [
            rec.explanation.render(include_details=True)
            for rec in result.recommendations
        ]

    def write(self, op) -> None:
        self.channel.rate(op.user, op.item, op.value)


class FleetTarget:
    """Reads and writes through a ``ShardedServer``."""

    def __init__(self, fleet) -> None:
        self.fleet = fleet

    def read(self, user: str):
        return self.fleet.serve(user, n=stack.TOP_N, timeout=OP_TIMEOUT_S)

    @staticmethod
    def renders(result) -> list[str]:
        return [rec.render for rec in result.recommendations]

    def write(self, op) -> None:
        self.fleet.rate(op.user, op.item, op.value, timeout=OP_TIMEOUT_S)


# -- the closed loop -------------------------------------------------------


def _run_op(target, op, client: int, written: set[str]) -> OpRecord:
    """One op, timed as the client sees it, with the inline checks.

    An answered read must have ``TOP_N`` items with non-empty renders,
    and a user's first read after the client's own acked write must not
    come from cache; a failed check fails the op.
    """
    from repro.errors import ReproError

    start = time.perf_counter()
    try:
        if op.kind == "write":
            target.write(op)
        else:
            result = target.read(op.user)
    except ReproError as error:
        return OpRecord(client, op.kind, op.user, start, time.perf_counter(),
                        False, type(error).__name__)
    end = time.perf_counter()
    if op.kind == "write":
        written.add(op.user)
        return OpRecord(client, "write", op.user, start, end, True, "acked")
    renders = target.renders(result)
    ok = (
        result.outcome in ("served", "degraded")
        and len(renders) == stack.TOP_N
        and all(renders)
        and not (op.user in written and result.cached)
    )
    written.discard(op.user)
    return OpRecord(client, "read", op.user, start, end, ok, result.outcome,
                    result.cached, result.queue_wait_s, result.service_s)


def _client_loop(
    target, stream, client, deadline, prefix, out, recorder
) -> None:
    """Run one client's ops until the deadline (and at least ``prefix``)."""
    written: set[str] = set()
    for index, op in enumerate(stream):
        if index >= prefix and time.perf_counter() >= deadline:
            return
        if recorder is None:
            out.append(_run_op(target, op, client, written))
            continue
        token = recorder.request.set(client * 10_000_000 + index)
        with recorder.span(f"bench.{op.kind}"):
            out.append(_run_op(target, op, client, written))
        recorder.request.reset(token)


def run_clients(target, streams, seconds, prefix, recorder=None, fleet=None):
    """Drive one client thread per stream; returns the measured window."""
    records: list[list[OpRecord]] = [[] for _ in streams]
    failures: list[BaseException] = []

    def guarded(client: int) -> None:
        try:
            _client_loop(
                target, streams[client], client, deadline, prefix,
                records[client], recorder,
            )
        except BaseException as error:  # re-raised on the main thread
            failures.append(error)

    pids = [pid for pid in (fleet.shard_pids().values() if fleet else ())
            if pid is not None]
    steal0, total0 = _proc_stat_cpu()
    cpu0 = _self_cpu_s() + sum(_pid_cpu_s(pid) for pid in pids)
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=guarded, args=(client,), name=f"client-{client}")
        for client in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    cpu1 = _self_cpu_s() + sum(_pid_cpu_s(pid) for pid in pids)
    steal1, total1 = _proc_stat_cpu()
    if failures:
        raise failures[0]
    return Window(
        records=records,
        seconds=ended - started,
        cpu_s=cpu1 - cpu0,
        steal_share=(steal1 - steal0) / max(1, total1 - total0),
    )


def warm(target, users: list[list[str]]) -> None:
    """Serve every hot user once, each client its own users in parallel."""
    from repro.errors import ReproError

    failures: list[str] = []

    def one(own: list[str]) -> None:
        for user in own:
            try:
                outcome = target.read(user).outcome
            except ReproError as error:
                outcome = type(error).__name__
            if outcome not in ("served", "degraded"):
                failures.append(f"{user}: {outcome}")

    threads = [threading.Thread(target=one, args=(own,)) for own in users]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RuntimeError(f"warm-up reads failed: {failures[:3]}")


# -- workloads -------------------------------------------------------------


@dataclass
class Stack:
    """One brought-up serving stack and what its setup measured."""

    target: object
    phases: dict[str, float]
    close: object
    dataset: object = None
    cache: object = None
    fleet: object = None
    #: Per client: its hot users (rw workloads) or its half of all users.
    users: list[list[str]] = field(default_factory=list)
    rated: dict[str, list[str]] = field(default_factory=dict)
    replay_s: float = 0.0
    recovery_s_max: float = 0.0


def bring_up(workload: str, seed: int, scratch: Path) -> Stack:
    """Build, recover and warm one stack; times each phase.

    Writing the seeded event logs is input generation, not set-up: it
    stands in for a log a previous process left behind.
    """
    phases = {"world_s": 0.0, "fit_s": 0.0, "recovery_s": 0.0,
              "warm_s": 0.0, "inputs_s": 0.0}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] += now - clock
        clock = now

    world = stack.build_world()
    dataset = world.dataset
    lap("world_s")
    shares = stack.partition(dataset.users, seed)
    if workload == "read-uncached":
        lane = stack.build_lane(dataset)
        lap("fit_s")
        server = stack.build_server(lane)
        server.await_recovery()
        lap("recovery_s")
        return Stack(
            target=LocalTarget(server), phases=phases,
            close=server.close, dataset=dataset, users=shares,
        )

    hots = [stack.hot_users(own, seed, client)
            for client, own in enumerate(shares)]
    rated = stack.rated_items(dataset, [u for hot in hots for u in hot])
    events = stack.log_events(dataset, seed)
    if workload == "fleet-rw":
        log_root = scratch / "fleet"
        stack.write_fleet_logs(log_root, events)
        lap("inputs_s")
        fleet = stack.build_fleet(log_root)
        if not fleet.await_ready(timeout=120.0):
            fleet.close()
            raise RuntimeError(f"fleet not ready: {fleet.health().status}")
        lap("recovery_s")
        target = FleetTarget(fleet)
        warm(target, hots)
        lap("warm_s")
        recoveries = [
            shard.last_recovery_seconds or 0.0
            for shard in fleet.health().shards
        ]
        return Stack(
            target=target, phases=phases, close=fleet.close,
            fleet=fleet, users=hots, rated=rated,
            recovery_s_max=max(recoveries),
        )

    from repro.cache import wire_invalidation
    from repro.eventlog import EventLog, replay
    from repro.interaction import RatingChannel

    log_dir = scratch / "log"
    stack.write_log(log_dir, events)
    lap("inputs_s")
    lane = stack.build_lane(dataset)
    lap("fit_s")
    cache = stack.build_cache("perfbench")
    log = EventLog(log_dir, fsync_policy="always")
    server = stack.build_server(
        lane, cache=cache,
        recovery=lambda: replay(log, dataset, caches=[cache]),
    )
    server.await_recovery()
    channel = RatingChannel(dataset, event_log=log)
    wire_invalidation(cache, channel)
    lap("recovery_s")
    target = LocalTarget(server, channel)
    warm(target, hots)
    lap("warm_s")

    def close() -> None:
        server.close()
        log.close()

    return Stack(
        target=target, phases=phases, close=close, dataset=dataset,
        cache=cache, users=hots, rated=rated,
        replay_s=server.recovery_report.elapsed_seconds,
    )


def streams_for(workload: str, stack_: Stack, seed: int) -> list:
    if workload == "read-uncached":
        return [stack.uncached_stream(own, seed, client)
                for client, own in enumerate(stack_.users)]
    return [stack.rw_stream(hot, stack_.rated, seed, client)
            for client, hot in enumerate(stack_.users)]


def measure(workload, stack_, seed, seconds, recorder=None) -> Window:
    """One timed window, with the registry and cache deltas around it."""
    from repro import obs

    registry = obs.get_registry()
    names = ("repro_predictions_total", "repro_fallbacks_total",
             "repro_eventlog_fsyncs_total", "repro_shard_invalidations_total")

    def counters() -> dict[str, float]:
        values = {}
        for name in names:
            metric = registry.get(name)
            values[name] = metric.value if metric is not None else 0.0
        requests = registry.get("repro_shard_requests_total")
        for series in (requests.as_dict()["series"] if requests else ()):
            shard = f"shard{series['labels']['shard']}"
            values[shard] = values.get(shard, 0.0) + series["value"]
        return values

    before = counters()
    stats0 = stack_.cache.stats() if stack_.cache is not None else None
    window = run_clients(
        stack_.target, streams_for(workload, stack_, seed), seconds,
        PREFIX_OPS[workload], recorder, stack_.fleet,
    )
    after = counters()
    window.counters = {
        name: after.get(name, 0.0) - before.get(name, 0.0) for name in after
    }
    if stats0 is not None:
        stats1 = stack_.cache.stats()
        window.cache_hits = stats1.hits - stats0.hits
        window.cache_lookups = (stats1.hits + stats1.misses) - (
            stats0.hits + stats0.misses
        )
    return window


def _answer(recommendations) -> list[tuple]:
    return [
        (rec.item_id, rec.score, rec.explanation.render(include_details=True))
        for rec in recommendations
    ]


def check_answers(stack_: Stack, seed: int) -> tuple[list[str], list[str]]:
    """Re-serve a seeded sample of users and compare with references.

    For each sampled user the run touched, drop the user's cache entries
    and re-serve.  Item ids, scores and renders must equal those of the
    same fallback chain without resilience policies (retry and breaker
    are transparent at a 0% fault rate), and a list served as primary
    must also equal a bare ``ExplainedRecommender(UserBasedCF(),
    NeighborHistogramExplainer())``; both references are fitted on the
    same dataset state.  Returns ``(mismatches, bare_gaps)``: a mismatch
    fails the run; a gap is a degraded list that differs from the bare
    stack because an item scored by the popularity fallback reached the
    top 5, the known gap to ROADMAP item 5's bitwise 0%-fault invariant.
    """
    touched = sorted(user for users in stack_.users for user in users)
    sample = random.Random(f"check:{seed}").sample(touched, CHECK_USERS)
    bare = stack.build_bare(stack_.dataset)
    chain = stack.build_chain(stack_.dataset)
    mismatches, gaps = [], []
    for user in sample:
        if stack_.cache is not None:
            stack_.cache.invalidate_user(user)
        result = stack_.target.read(user)
        got = _answer(result.recommendations)
        if (
            result.outcome not in ("served", "degraded")
            or got != _answer(chain.recommend(user, n=stack.TOP_N))
        ):
            mismatches.append(user)
        elif got != _answer(bare.recommend(user, n=stack.TOP_N)):
            (gaps if result.outcome == "degraded" else mismatches).append(user)
    return mismatches, gaps


# -- metrics ---------------------------------------------------------------


def _latencies_ms(records: list[OpRecord], window_s: float) -> list[float]:
    """Sorted latencies; a failed or refused op ranks after every answer."""
    return sorted(
        (record.end - record.start) * 1e3 if record.ok else window_s * 1e3
        for record in records
    )


def end_to_end(window: Window, rss_mb: float, setup_s: float) -> dict:
    ops = window.ops
    reads = [record for record in ops if record.kind == "read"]
    read_ms = _latencies_ms(reads, window.seconds)
    answered = [record for record in reads if record.answered]
    succeeded = sum(record.ok for record in ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": succeeded / window.seconds,
        "read_p50_ms": _percentile(read_ms, 0.5),
        "read_p90_ms": _percentile(read_ms, 0.9),
        "cpu_ms_per_op": window.cpu_s * 1e3 / max(1, len(ops)),
        "ok_share": succeeded / max(1, len(ops)),
        "primary_share": (
            sum(record.outcome == "served" for record in answered)
            / max(1, len(answered))
        ),
        "rss_mb": rss_mb,
    }


def per_layer(window: Window, untraced: Window, stack_: Stack,
              summary: dict) -> dict:
    """Per-layer metrics of the traced window.

    Write latency comes from the untraced window: the client-side write
    percentiles are timings a user sees, measured without span costs.
    """
    reads = [record for record in window.ops if record.kind == "read"]
    n_reads = max(1, len(reads))
    n_writes = max(1, sum(record.kind == "write" for record in window.ops))
    write_ms = _latencies_ms(
        [record for record in untraced.ops if record.kind == "write"],
        untraced.seconds,
    )
    answered = [record for record in reads if record.answered]
    computed = [record for record in answered if not record.cached]
    queue_wait = sorted(record.queue_wait_s * 1e3 for record in computed)
    service = sorted(record.service_s * 1e3 for record in computed)

    def spans(name: str) -> dict:
        return summary.get(name, {"count": 0, "durations": [], "self_s": 0.0})

    def p50_of(name: str, scale: float) -> float:
        return _percentile(sorted(spans(name)["durations"]), 0.5) * scale

    def per_read(name: str) -> float:
        return spans(name)["count"] / n_reads

    def self_ms_per_read(name: str) -> float:
        return spans(name)["self_s"] * 1e3 / n_reads

    transit = sorted(
        (record.end - record.start - record.queue_wait_s - record.service_s)
        * 1e3
        for record in answered
    ) if stack_.fleet is not None else []
    shard_requests = [value for name, value in window.counters.items()
                      if name.startswith("shard")]
    if stack_.cache is not None:
        hit_ratio = window.cache_hits / max(1, window.cache_lookups)
    else:
        hit_ratio = sum(record.cached for record in answered) / n_reads
    ops_per_s = sum(record.ok for record in window.ops) / window.seconds
    untraced_ops_per_s = (
        sum(record.ok for record in untraced.ops) / untraced.seconds
    )
    phases = stack_.phases
    return {
        "write_p50_ms": _percentile(write_ms, 0.5),
        "write_p90_ms": _percentile(write_ms, 0.9),
        "serving.submit_us_p50": p50_of("serving.submit", 1e6),
        "serving.queue_wait_ms_p90": _percentile(queue_wait, 0.9),
        "serving.service_ms_p50": _percentile(service, 0.5),
        "serving.service_ms_p90": _percentile(service, 0.9),
        "serving.cached_share": (
            sum(record.cached for record in answered) / max(1, len(answered))
        ),
        "serving.shed_total": sum(
            record.outcome in ("shed", "RejectedError") for record in reads
        ),
        "cache.hit_ratio": hit_ratio,
        "cache.lookup_us_p50": p50_of("cache.lookup", 1e6),
        "cache.invalidations_per_write": (
            spans("cache.invalidate")["count"] / n_writes
        ),
        "resilience.guard_calls_per_read": per_read("resilience.guard"),
        "resilience.guard_self_ms_per_read": self_ms_per_read("resilience.guard"),
        "resilience.chain_predict_calls_per_read": per_read(
            "resilience.chain_predict"
        ),
        "resilience.fallbacks_per_read": (
            window.counters["repro_fallbacks_total"] / n_reads
        ),
        "recsys.recommend_self_ms_per_read": self_ms_per_read("recsys.recommend"),
        "recsys.predict_calls_per_read": per_read("recsys.predict"),
        "recsys.predict_self_ms_per_read": self_ms_per_read("recsys.predict"),
        "recsys.matrix_rebuilds_per_write": (
            spans("recsys.matrix_rebuild")["count"] / n_writes
        ),
        "recsys.matrix_rebuild_ms_p50": p50_of("recsys.matrix_rebuild", 1e3),
        "core.explain_calls_per_read": per_read("core.explain"),
        "core.explain_self_ms_per_read": self_ms_per_read("core.explain"),
        "obs.predictions_per_read": (
            window.counters["repro_predictions_total"] / n_reads
        ),
        "obs.trace_overhead_share": 1.0 - ops_per_s / untraced_ops_per_s,
        "interaction.rate_ms_p50": p50_of("interaction.rate", 1e3),
        "eventlog.append_ms_p50": p50_of("eventlog.append", 1e3),
        "eventlog.fsyncs_per_write": (
            window.counters["repro_eventlog_fsyncs_total"] / n_writes
        ),
        "eventlog.replay_s": stack_.replay_s,
        "sharding.submit_us_p50": p50_of("sharding.submit", 1e6),
        "sharding.transit_ms_p50": _percentile(transit, 0.5),
        "sharding.transit_ms_p90": _percentile(transit, 0.9),
        "sharding.rate_ack_ms_p50": p50_of("sharding.rate", 1e3),
        "sharding.invalidations_per_write": (
            window.counters["repro_shard_invalidations_total"] / n_writes
        ),
        "sharding.request_balance": (
            max(shard_requests) / statistics.mean(shard_requests)
            if shard_requests and statistics.mean(shard_requests) > 0
            else 0.0
        ),
        "sharding.recovery_s_max": stack_.recovery_s_max,
        "setup.world_s": phases["world_s"],
        "setup.fit_s": phases["fit_s"],
        "setup.recovery_s": phases["recovery_s"],
        "setup.warm_s": phases["warm_s"],
    }


def seed_counts(workload: str, window: Window) -> dict[str, int]:
    """Counts over each client's first ``PREFIX_OPS`` ops (seed-fixed)."""
    prefix = [record for client in window.records
              for record in client[:PREFIX_OPS[workload]]]
    counts = {
        "reads": sum(record.kind == "read" for record in prefix),
        "writes": sum(record.kind == "write" for record in prefix),
    }
    if workload == "read-uncached":
        counts["degraded"] = sum(r.outcome == "degraded" for r in prefix)
    else:
        counts["cache_hits"] = sum(record.cached for record in prefix)
    return counts


def peak_rss_mb(stack_: Stack) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if stack_.fleet is None:
        return own
    pids = [pid for pid in stack_.fleet.shard_pids().values() if pid]
    return own + sum(_pid_peak_rss_mb(pid) for pid in pids)


# -- entry point -----------------------------------------------------------


def _import_program() -> float:
    """Put the checkout's ``src`` first on the path and import the program.

    Returns the runner-start-to-imports-done seconds.  Raises
    ``SystemExit(2)`` when the checkout holds no program source.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro
    import repro.cache
    import repro.core
    import repro.domains
    import repro.eventlog
    import repro.interaction
    import repro.recsys
    import repro.resilience
    import repro.serving  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - STARTED


def _stop_resource_tracker() -> None:
    """Stop the tracker process ``spawn`` started, and wait for it.

    The standard library starts it with the first spawned shard and
    leaves it running until the interpreter exits; the benchmark ends
    every process it started before it reports.  A no-op when none runs.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, record)``."""
    imports_s = _import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    stacks: list[Stack] = []
    recorder = None
    try:
        setups = []
        for attempt in range(SETUPS[args.workload]):
            if stacks:
                stacks.pop().close()
            stacks.append(
                bring_up(args.workload, args.seed, scratch / str(attempt))
            )
            phases = stacks[-1].phases
            setups.append(sum(phases.values()) - phases["inputs_s"])
        setup_s = imports_s + statistics.median(setups)
        stack_ = stacks[-1]

        window = untraced = measure(
            args.workload, stack_, args.seed, args.seconds
        )
        if args.trace:
            if args.workload != "read-uncached":
                warm(stack_.target, stack_.users)
            recorder = tracing.SpanRecorder()
            tracing.install_layer_spans(recorder)
            try:
                window = measure(
                    args.workload, stack_, args.seed, args.seconds, recorder
                )
            finally:
                recorder.restore()
        mismatches, gaps = (
            check_answers(stack_, args.seed)
            if stack_.fleet is None
            else ([], [])
        )
        rss_mb = peak_rss_mb(stack_)
    finally:
        for opened in stacks:
            opened.close()
        _stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)

    if recorder is not None:
        summary = tracing.summarize(recorder.spans)
        span_counts = {
            name: entry["count"] for name, entry in sorted(summary.items())
        }
        values = per_layer(window, untraced, stack_, summary)
        declared = spec["per_layer"]
        tag = f"{args.workload}-seed{args.seed}"
        recorder.write(OUT / f"spans-{tag}.jsonl.gz")
        (OUT / f"layers-{tag}.json").write_text(json.dumps(
            {"metrics": values,
             "spans": {name: {"count": entry["count"],
                              "self_s": entry["self_s"]}
                       for name, entry in sorted(summary.items())}},
            indent=2,
        ))
    else:
        span_counts = {}
        values = end_to_end(window, rss_mb, setup_s)
        declared = spec["end_to_end"]
    ops = window.ops
    reads = [record for record in ops if record.kind == "read"]
    result = {
        "correct": not mismatches,
        "attempted": len(ops),
        "failed": sum(not record.ok for record in ops),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "window_s": window.seconds,
        "steal_share": window.steal_share,
        "samples": {
            "reads": len(reads),
            "reads_answered": sum(record.answered for record in reads),
            "reads_computed": sum(
                record.answered and not record.cached for record in reads
            ),
            "writes": len(ops) - len(reads),
            "untraced_writes": sum(
                record.kind == "write" for record in untraced.ops
            ),
            "spans": span_counts,
        },
        "seed_counts": seed_counts(args.workload, window),
        "setups_s": setups,
        "imports_s": imports_s,
        "phases_s": stack_.phases,
        "check_mismatches": mismatches,
        "check_bare_gaps": gaps,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    result, record = run(args)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
