"""Command-line interface.

```
python -m repro tables            # print Tables 1-4
python -m repro figures           # print Figures 1-3 (text renderings)
python -m repro studies           # run all studies (E1-E10)
python -m repro studies E1 E3     # run a subset
python -m repro demo              # the quickstart pipeline
python -m repro metrics           # run a demo workload, print metrics
python -m repro --trace t.jsonl demo   # dump a JSONL span trace
python -m repro --resilience demo      # fallback-chained pipeline demo
python -m repro --chaos-rate 0.2 --resilience demo   # ... under chaos
python -m repro serve             # closed-loop synthetic serving run
python -m repro serve --clients 16 --workers 4 --deadline 0.5
python -m repro serve --cache     # ... with the single-flight cache
python -m repro --chaos-rate 0.2 serve  # ... against faulty substrates
python -m repro serve --log-dir wal/    # durable event log + recovery gate
python -m repro serve --shards 4        # supervised multi-process shard fleet
python -m repro replay --log-dir wal/   # rebuild state from the log
python -m repro replay --log-dir wal/ --selfcheck  # crash/recover check
python -m repro analyze           # static-analysis gate over src/repro
python -m repro analyze --format json src/repro tests
python -m repro analyze --update-baseline   # accept current findings
python -m repro quality           # offline explanation-quality metrics
python -m repro quality --check   # gate against quality-baseline.json
python -m repro quality --correlation   # + offline-vs-aim agreement
python -m repro quality --update-baseline   # accept current values
```
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

__all__ = ["main", "build_parser"]


def _cmd_tables(_: argparse.Namespace) -> int:
    from repro.core import (
        render_table_1,
        render_table_2,
        render_table_3,
        render_table_4,
    )

    for title, renderer in (
        ("Table 1: aims of explanation facilities", render_table_1),
        ("Table 2: aims of academic systems", render_table_2),
        ("Table 3: commercial systems", render_table_3),
        ("Table 4: academic systems", render_table_4),
    ):
        print(f"== {title} ==")
        print(renderer())
        print()
    return 0


def _cmd_figures(_: argparse.Namespace) -> int:
    from repro.core import ExplainedRecommender, InfluenceExplainer
    from repro.domains import make_books, make_news
    from repro.interaction import ScrutableProfile
    from repro.presentation import build_news_treemap
    from repro.recsys import NaiveBayesRecommender

    print("== Figure 1: scrutable profile page ==")
    profile = ScrutableProfile("traveller")
    profile.volunteer("preferred_climate", "hot")
    profile.infer(
        "travels_with_children", True,
        because="you searched for family parks twice last month",
    )
    print(profile.render_page())
    print()

    print("== Figure 2: news treemap ==")
    news = make_news(n_users=40, n_items=120, seed=3)
    print(build_news_treemap(news.dataset, list(news.dataset.items)[:60]).render())
    print()

    print("== Figure 3: influence of ratings ==")
    books = make_books(n_users=40, n_items=100, seed=11)
    pipeline = ExplainedRecommender(
        NaiveBayesRecommender(), InfluenceExplainer()
    ).fit(books.dataset)
    explained = pipeline.recommend("user_001", n=1)[0]
    print(explained.explanation.render(include_details=True))
    return 0


_STUDIES: dict[str, str] = {
    "E1": "run_herlocker_study",
    "E2": "run_cosley_study",
    "E3": "run_bilgic_study",
    "E4": "run_critiquing_study",
    "E5": "run_trust_study",
    "E6": "run_tradeoff_study",
    "E7": "run_scrutability_study",
    "E8": "run_personality_study",
    "E9": "run_diversification_study",
    "E10": "run_modality_study",
    "E11": "run_design_confound_study",
    "E12": "run_explicit_implicit_study",
}


def _cmd_studies(arguments: argparse.Namespace) -> int:
    import repro.evaluation.studies as studies_module

    requested = arguments.ids or sorted(
        _STUDIES, key=lambda sid: int(sid[1:])
    )
    exit_code = 0
    for study_id in requested:
        runner_name = _STUDIES.get(study_id.upper())
        if runner_name is None:
            print(f"unknown study id {study_id!r}; "
                  f"choose from {', '.join(sorted(_STUDIES))}")
            return 2
        runner: Callable = getattr(studies_module, runner_name)
        report = runner()
        print(report.render())
        print()
        if not report.shape_holds:
            exit_code = 1
    return exit_code


def _build_resilient_pipeline(chaos_rate: float, chaos_seed: int):
    """The demo pipeline with the resilience stack wired in.

    A chaos-wrapped collaborative substrate falls back to popularity;
    the histogram explainer degrades per item to the generic template.
    Returns ``(world, pipeline)``.
    """
    from repro.core import NeighborHistogramExplainer
    from repro.domains import make_movies
    from repro.recsys import PopularityRecommender, UserBasedCF
    from repro.resilience import (
        BreakerPolicy,
        ChaosExplainer,
        ChaosRecommender,
        ResilientExplainedRecommender,
        Retry,
    )

    world = make_movies(n_users=40, n_items=80, seed=7, density=0.25)
    primary = UserBasedCF()
    explainer = NeighborHistogramExplainer()
    if chaos_rate > 0.0:
        primary = ChaosRecommender(
            primary, failure_rate=chaos_rate, seed=chaos_seed
        )
        explainer = ChaosExplainer(
            explainer, failure_rate=chaos_rate, seed=chaos_seed + 1
        )
    pipeline = ResilientExplainedRecommender(
        [primary, PopularityRecommender()],
        explainer,
        retry=Retry(max_attempts=3, base_delay=0.0, seed=chaos_seed),
        breaker=BreakerPolicy(failure_threshold=8, reset_timeout=0.05),
    ).fit(world.dataset)
    return world, pipeline


def _cmd_demo(arguments: argparse.Namespace) -> int:
    chaos_rate = arguments.chaos_rate or 0.0
    if arguments.resilience or chaos_rate > 0.0:
        world, pipeline = _build_resilient_pipeline(
            chaos_rate, arguments.chaos_seed
        )
        for explained in pipeline.recommend("user_000", n=3):
            title = world.dataset.item(explained.item_id).title
            marker = "  [degraded]" if explained.degraded else ""
            print(f"{title}  (predicted {explained.score:.1f}){marker}")
            print(explained.explanation.render(include_details=True))
            print()
        return 0

    from repro.core import ExplainedRecommender, NeighborHistogramExplainer
    from repro.domains import make_movies
    from repro.recsys import UserBasedCF

    world = make_movies(n_users=60, n_items=120, seed=7, density=0.25)
    pipeline = ExplainedRecommender(
        UserBasedCF(), NeighborHistogramExplainer()
    ).fit(world.dataset)
    for explained in pipeline.recommend("user_000", n=3):
        title = world.dataset.item(explained.item_id).title
        print(f"{title}  (predicted {explained.score:.1f})")
        print(explained.explanation.render(include_details=True))
        print()
    return 0


def _build_serving_lanes(chaos_rate: float, chaos_seed: int):
    """Two serving lanes over one movie world: collaborative + content.

    The two-lane shape is the bulkhead story: the (chaos-prone,
    slower) collaborative lane saturates its own compartment while the
    content lane keeps serving.  Returns ``(world, lanes)``.
    """
    from repro.core import (
        ContentBasedExplainer,
        ExplainedRecommender,
        NeighborHistogramExplainer,
    )
    from repro.domains import make_movies
    from repro.recsys import (
        ContentBasedRecommender,
        PopularityRecommender,
        UserBasedCF,
    )
    from repro.resilience import (
        BreakerPolicy,
        ChaosRecommender,
        ResilientExplainedRecommender,
        Retry,
    )

    world = make_movies(n_users=40, n_items=80, seed=7, density=0.25)
    primary = UserBasedCF()
    if chaos_rate > 0.0:
        primary = ChaosRecommender(
            primary, failure_rate=chaos_rate, seed=chaos_seed
        )
    collaborative = ResilientExplainedRecommender(
        [primary, PopularityRecommender()],
        NeighborHistogramExplainer(),
        retry=Retry(max_attempts=3, base_delay=0.0, seed=chaos_seed),
        breaker=BreakerPolicy(failure_threshold=8, reset_timeout=0.05),
    ).fit(world.dataset)
    content = ExplainedRecommender(
        ContentBasedRecommender(), ContentBasedExplainer()
    ).fit(world.dataset)
    return world, {"collaborative": collaborative, "content": content}


def _cmd_serve_sharded(arguments: argparse.Namespace) -> int:
    """``serve --shards N``: the supervised multi-process fleet."""
    import random
    import tempfile

    from repro.serving import ShardedServer, run_traffic

    log_root = arguments.shard_log_root or tempfile.mkdtemp(
        prefix="repro-fleet-"
    )
    fleet = ShardedServer(
        log_root=log_root,
        shards=arguments.shards,
        shard_workers=arguments.workers,
        queue_size=arguments.queue_size,
        default_deadline_seconds=arguments.deadline,
    )
    user_ids = [f"user_{index:03d}" for index in range(40)]
    item_ids = [f"movie_{index:03d}" for index in range(80)]
    try:
        if not fleet.await_ready(timeout=60.0):
            print("fleet never became ready; aborting")
            return 1
        rng = random.Random(arguments.chaos_seed)
        for _ in range(arguments.log_writes):
            # Durable rating traffic: each ack means the owner shard
            # journalled the event before answering.
            fleet.rate(
                rng.choice(user_ids),
                rng.choice(item_ids),
                float(rng.randint(1, 5)),
            )
        report = run_traffic(
            fleet,
            user_ids,
            requests=arguments.requests,
            clients=arguments.clients,
            n=3,
            deadline_seconds=arguments.deadline,
            seed=arguments.chaos_seed,
        )
    finally:
        drain = fleet.close(drain_seconds=arguments.drain_seconds)
    print(report.render())
    health = fleet.health()
    print(
        f"fleet          shards={fleet.n_shards} "
        f"status={health.status} log_root={log_root}"
    )
    for shard in health.shards:
        print(
            f"  shard {shard.shard_id}    state={shard.state} "
            f"incarnation={shard.incarnation} "
            f"restarts={shard.restarts}"
        )
    print(
        f"drain          stopped_clean={drain.stopped_clean} "
        f"killed={drain.killed} clean={drain.clean}"
    )
    print(f"rate writes    {arguments.log_writes} acked (journalled)")
    return 0 if drain.clean else 1


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import random

    from repro.cache import ShardedTTLCache
    from repro.serving import (
        DeadlineAwareShedder,
        RecommendationServer,
        TokenBucket,
        run_traffic,
    )

    if arguments.shards:
        return _cmd_serve_sharded(arguments)
    chaos_rate = arguments.chaos_rate or 0.0
    world, lanes = _build_serving_lanes(chaos_rate, arguments.chaos_seed)
    admission = []
    if arguments.rate > 0.0:
        admission.append(TokenBucket(rate=arguments.rate))
    cache = None
    if arguments.cache:
        cache = ShardedTTLCache(
            name="serve",
            capacity=arguments.cache_capacity,
            ttl_seconds=arguments.cache_ttl,
            degraded_ttl_seconds=arguments.cache_degraded_ttl,
        )
    event_log = None
    recovery = None
    if arguments.log_dir is not None:
        from repro.eventlog import EventLog, replay

        event_log = EventLog(arguments.log_dir)
        caches = [cache] if cache is not None else []

        def recovery(log=event_log, dataset=world.dataset, caches=caches):
            return replay(log, dataset, caches=caches)

    server = RecommendationServer(
        lanes,
        workers=arguments.workers,
        queue_size=arguments.queue_size,
        admission=admission,
        shedder=DeadlineAwareShedder(),
        default_bulkhead=arguments.bulkhead,
        default_deadline_seconds=arguments.deadline,
        cache=cache,
        recovery=recovery,
    )
    try:
        server.await_recovery()
        if event_log is not None:
            # Durable interaction traffic alongside the serving load:
            # every rating is journalled before the dataset mutates.
            from repro.interaction import RatingChannel

            channel = RatingChannel(world.dataset, event_log=event_log)
            rng = random.Random(arguments.chaos_seed)
            users = list(world.dataset.users)
            items = list(world.dataset.items)
            for _ in range(arguments.log_writes):
                channel.rate(
                    rng.choice(users),
                    rng.choice(items),
                    float(rng.randint(1, 5)),
                )
        report = run_traffic(
            server,
            list(world.dataset.users),
            requests=arguments.requests,
            clients=arguments.clients,
            n=3,
            lanes=sorted(lanes),
            deadline_seconds=arguments.deadline,
            seed=arguments.chaos_seed,
        )
    finally:
        drain = server.close(drain_seconds=arguments.drain_seconds)
        if event_log is not None:
            event_log.close()
    print(report.render())
    print(
        f"drain          completed={drain.completed_total} "
        f"shed_queued={drain.shed_queued} "
        f"timed_out={drain.workers_timed_out} clean={drain.clean}"
    )
    health = server.health()
    print(f"final health   status={health.status} live={health.live}")
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache          hits={stats.hits} misses={stats.misses} "
            f"hit_ratio={stats.hit_ratio:.2f} "
            f"coalesced={stats.coalesced} size={stats.size}"
        )
    if event_log is not None:
        recovered = server.recovery_report
        replayed = getattr(recovered, "events_applied", 0)
        print(
            f"eventlog       replayed={replayed} "
            f"appended={arguments.log_writes} "
            f"segments={len(event_log.segment_paths())} "
            f"next_seq={event_log.next_sequence}"
        )
    return 0 if drain.clean else 1


def _replay_world(seed: int):
    """The fixed world ``serve --log-dir`` / ``replay`` agree on.

    Replay only reproduces state when the log is applied to the same
    base world it was recorded against, so both commands derive it
    from one seed.
    """
    from repro.domains import make_movies

    return make_movies(n_users=40, n_items=80, seed=seed, density=0.25)


def _cmd_replay(arguments: argparse.Namespace) -> int:
    import json

    from repro.errors import EventLogError
    from repro.eventlog import EventLog, replay
    from repro.recsys import UserBasedCF

    if arguments.selfcheck:
        return _replay_selfcheck(arguments)
    try:
        with EventLog(arguments.log_dir) as log:
            world = _replay_world(arguments.seed)
            model = UserBasedCF().fit(world.dataset)
            report = replay(
                log, world.dataset, substrates=[model]
            )
    except EventLogError as error:
        print(f"repro replay: {error}", file=sys.stderr)
        return 2
    if arguments.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 1 if report.degraded and arguments.strict else 0


def _replay_selfcheck(arguments: argparse.Namespace) -> int:
    """Write seeded events, 'crash', recover, assert identical top-k.

    The durability invariant, end to end on real disk: every
    acknowledged interaction survives a restart, and a model fit on the
    recovered dataset recommends byte-for-byte what the pre-crash model
    did.  Exit 0 when state matches, 1 on divergence.
    """
    import random

    from repro.errors import EventLogError
    from repro.eventlog import EventLog, replay
    from repro.interaction import RatingChannel
    from repro.recsys import UserBasedCF

    try:
        world = _replay_world(arguments.seed)
        log = EventLog(arguments.log_dir)
        if log.next_sequence != 0:
            log.close()
            print(
                f"repro replay --selfcheck: {arguments.log_dir} already "
                f"holds events; point it at an empty directory",
                file=sys.stderr,
            )
            return 2
        channel = RatingChannel(world.dataset, event_log=log)
        rng = random.Random(arguments.seed)
        users = list(world.dataset.users)
        items = list(world.dataset.items)
        for _ in range(60):
            channel.rate(
                rng.choice(users),
                rng.choice(items),
                float(rng.randint(1, 5)),
            )
        model = UserBasedCF().fit(world.dataset)
        probes = users[: arguments.probes]
        before = {
            user: [
                (r.item_id, round(r.score, 12))
                for r in model.recommend(user, n=arguments.top_k)
            ]
            for user in probes
        }
        log.close()  # the "crash": nothing survives but the log

        fresh = _replay_world(arguments.seed)
        recovered_model = UserBasedCF().fit(fresh.dataset)
        with EventLog(arguments.log_dir) as recovered_log:
            report = replay(
                recovered_log, fresh.dataset, substrates=[recovered_model]
            )
        after = {
            user: [
                (r.item_id, round(r.score, 12))
                for r in recovered_model.recommend(user, n=arguments.top_k)
            ]
            for user in probes
        }
    except EventLogError as error:
        print(f"repro replay --selfcheck: {error}", file=sys.stderr)
        return 2
    print(report.render())
    mismatches = [user for user in probes if before[user] != after[user]]
    if mismatches or report.events_applied != 60:
        print(
            f"selfcheck FAILED: applied={report.events_applied}/60, "
            f"diverging users: {', '.join(mismatches) or 'none'}"
        )
        return 1
    print(
        f"selfcheck ok: 60 events replayed, top-{arguments.top_k} "
        f"identical for {len(probes)} probe user(s)"
    )
    return 0


def _run_metrics_workload(
    chaos_rate: float = 0.2, chaos_seed: int = 0
) -> None:
    """A small but representative workload exercising every hot path.

    Collaborative pipeline (fit → recommend → explain) plus a short
    critiquing conversation, so the exposition shows substrate,
    explainer, and interaction-cycle series — followed by a seeded
    chaos segment through the resilience stack so the retry, breaker,
    and fallback series are populated too, and a cached segment
    (repeat recommendations, one invalidation) so the
    ``repro_cache_*`` families show a hit/miss/invalidation mix.
    """
    from repro.core import ExplainedRecommender, NeighborHistogramExplainer
    from repro.domains import make_cameras, make_movies
    from repro.interaction import CritiqueSession
    from repro.interaction.critiques import UnitCritique
    from repro.recsys import (
        KnowledgeBasedRecommender,
        Preference,
        UserBasedCF,
        UserRequirements,
    )

    world = make_movies(n_users=40, n_items=80, seed=7, density=0.25)
    pipeline = ExplainedRecommender(
        UserBasedCF(), NeighborHistogramExplainer()
    ).fit(world.dataset)
    pipeline.recommend("user_000", n=3)

    dataset, catalog = make_cameras(n_items=40, seed=21)
    recommender = KnowledgeBasedRecommender(catalog).fit(dataset)
    requirements = UserRequirements(
        preferences=[Preference(attribute="price", weight=1.0)]
    )
    session = CritiqueSession(recommender, requirements)
    session.critique(UnitCritique("price", "less"))
    if session.reference is not None:
        session.accept()

    if chaos_rate > 0.0:
        # Faults roll once per pool pass, so the segment serves every
        # user: enough passes that the seeded plan injects faults.
        world, pipeline = _build_resilient_pipeline(chaos_rate, chaos_seed)
        for user_id in world.dataset.users:
            pipeline.recommend(user_id, n=3)

    # A short serving segment so the queue/shed/inflight series are
    # populated; register_serving_metrics keeps the exposition complete
    # (every serving family present) even if no request is ever shed.
    from repro.serving import RecommendationServer, register_serving_metrics

    register_serving_metrics()
    server = RecommendationServer(
        pipeline, workers=2, queue_size=8, default_deadline_seconds=5.0
    )
    try:
        for user_id in list(world.dataset.users)[:4]:
            server.serve(user_id, n=3)
    finally:
        server.close()

    # A cached segment: repeat recommendations hit, one user's
    # invalidation forces a recompute — so the repro_cache_* families
    # show hits, misses and an invalidation, and the lookups = hits +
    # misses partition is checkable from the exposition alone.
    from repro.cache import CachedExplainedRecommender, register_cache_metrics

    register_cache_metrics()
    cached = CachedExplainedRecommender(pipeline)
    users = list(world.dataset.users)[:4]
    cached.recommend_many(users, n=3)
    cached.recommend_many(users, n=3)
    cached.invalidate_user(users[0])
    cached.recommend(users[0], n=3)


#: Default analysis targets and suppression baseline, relative to the
#: invocation directory (the repo root in CI and development).
_DEFAULT_ANALYZE_PATHS = ("src/repro",)
_DEFAULT_BASELINE = "analysis-baseline.txt"


def _split_rule_ids(raw: str | None) -> list[str] | None:
    return None if raw is None else [part for part in raw.split(",") if part]


def _cmd_analyze(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        AnalysisCache,
        Analyzer,
        Baseline,
        BaselineEntry,
        changed_files,
        default_rules,
        render_json,
        render_text,
        run_analysis,
    )
    from repro.errors import AnalysisError

    paths = arguments.paths or list(_DEFAULT_ANALYZE_PATHS)
    baseline_path = arguments.baseline or _DEFAULT_BASELINE
    try:
        rules = default_rules(
            select=_split_rule_ids(arguments.select),
            ignore=_split_rule_ids(arguments.ignore),
        )
        cache = (
            None
            if arguments.no_cache
            else AnalysisCache(arguments.cache_dir or ".analysis-cache")
        )
        only_files: set[Path] | None = None
        if arguments.diff is not None:
            only_files = changed_files(base=arguments.diff)
        elif arguments.changed:
            only_files = changed_files()
        if arguments.update_baseline and only_files is not None:
            raise AnalysisError(
                "--update-baseline rewrites the full baseline and "
                "cannot be combined with --changed/--diff"
            )
        # The default baseline path may simply not exist yet; a baseline
        # the user *named* must — unless we are about to (re)write it.
        result = run_analysis(
            paths,
            baseline_path=baseline_path,
            baseline_required=(
                arguments.baseline is not None
                and not arguments.update_baseline
            ),
            analyzer=Analyzer(rules=rules, cache=cache),
            only_files=only_files,
        )
        if arguments.update_baseline:
            old = Baseline.load(baseline_path, required=False)
            entries = [
                entry
                for entry in old.entries
                if entry.fingerprint
                in {f.fingerprint for f in result.findings}
            ]
            # Distinct findings can share a fingerprint (same scope and
            # slug on different lines); one entry suppresses them all.
            seen = {entry.fingerprint for entry in entries}
            for finding in result.new:
                if finding.fingerprint not in seen:
                    seen.add(finding.fingerprint)
                    entries.append(
                        BaselineEntry(finding.fingerprint, "TODO: justify")
                    )
            entries.sort(key=lambda entry: entry.fingerprint)
            Path(baseline_path).write_text(
                Baseline(entries).format(
                    header=(
                        "repro.analysis suppression baseline.\n"
                        "Each line: RULE PATH SCOPE SLUG  # justification\n"
                        "Regenerate with: "
                        "python -m repro analyze --update-baseline"
                    )
                ),
                encoding="utf-8",
            )
            print(
                f"wrote {len(entries)} entr"
                f"{'y' if len(entries) == 1 else 'ies'} to {baseline_path}"
            )
            return 0
    except AnalysisError as error:
        print(f"repro analyze: {error}", file=sys.stderr)
        return 2
    if arguments.format == "json":
        print(render_json(result))
    else:
        print(render_text(result), end="")
    return 0 if result.ok else 1


_DEFAULT_QUALITY_BASELINE = "quality-baseline.json"


def _cmd_quality(arguments: argparse.Namespace) -> int:
    import json

    from repro.domains import make_movies
    from repro.errors import QualityError
    from repro.quality import (
        QualityBaseline,
        QualityWorldConfig,
        aim_correlation,
        run_quality_suite,
    )

    baseline_path = arguments.baseline or _DEFAULT_QUALITY_BASELINE
    try:
        config = QualityWorldConfig()
        report = run_quality_suite(config)
        if arguments.correlation:
            world = make_movies(
                n_users=config.n_users,
                n_items=config.n_items,
                seed=config.seed,
                density=config.density,
            )
            report.correlation = aim_correlation(
                report, world, seed=config.seed
            )
        if arguments.update_baseline:
            baseline = QualityBaseline.from_report(
                report, tolerance=arguments.tolerance
            )
            baseline.save(baseline_path)
            bands = sum(len(m) for m in baseline.bands.values())
            print(f"wrote {bands} metric band(s) to {baseline_path}")
            return 0
        if arguments.check:
            comparison = QualityBaseline.load(baseline_path).compare(
                report
            )
            print(comparison.render())
            return 0 if comparison.ok else 1
    except QualityError as error:
        print(f"repro quality: {error}", file=sys.stderr)
        return 2
    if arguments.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render_text())
    return 0


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    import json

    from repro import obs

    if not arguments.no_demo:
        # Unless the user pins a rate, the workload includes a 20%
        # seeded chaos segment so the resilience series are non-empty.
        chaos_rate = (
            0.2 if arguments.chaos_rate is None else arguments.chaos_rate
        )
        _run_metrics_workload(chaos_rate, arguments.chaos_seed)
    registry = obs.get_registry()
    if len(registry) == 0:
        print("no metrics recorded", flush=True)
        return 1
    if arguments.format == "json":
        print(json.dumps(registry.as_dict(), indent=2))
    else:
        print(registry.exposition(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser behind ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Explanation framework for recommender systems "
            "(reproduction of Tintarev & Masthoff 2007)."
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "write a JSONL span trace of the command to PATH "
            "(one JSON event per line; see docs/observability.md)"
        ),
    )
    parser.add_argument(
        "--chaos-rate",
        type=float,
        metavar="RATE",
        default=None,
        help=(
            "inject seeded faults with this probability per call "
            "(demo: default 0; metrics workload: default 0.2; "
            "see docs/resilience.md)"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        metavar="SEED",
        default=0,
        help="seed for the deterministic fault plan (default: 0)",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help=(
            "route the demo through the resilience stack "
            "(retry + breaker + fallback chain)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="print Tables 1-4")
    tables.set_defaults(handler=_cmd_tables)

    figures = subparsers.add_parser(
        "figures", help="print Figures 1-3 (text renderings)"
    )
    figures.set_defaults(handler=_cmd_figures)

    studies = subparsers.add_parser(
        "studies", help="run the simulated studies (E1-E10)"
    )
    studies.add_argument(
        "ids", nargs="*", help="study ids to run (default: all)"
    )
    studies.set_defaults(handler=_cmd_studies)

    demo = subparsers.add_parser("demo", help="quickstart pipeline demo")
    demo.set_defaults(handler=_cmd_demo)

    metrics = subparsers.add_parser(
        "metrics",
        help="run a demo workload and print the metrics exposition",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format: Prometheus text (default) or JSON",
    )
    metrics.add_argument(
        "--no-demo",
        action="store_true",
        help="skip the demo workload; print whatever is already recorded",
    )
    metrics.set_defaults(handler=_cmd_metrics)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run closed-loop synthetic traffic through the "
            "overload-robust serving layer (see docs/serving.md)"
        ),
    )
    serve.add_argument(
        "--requests", type=int, default=120,
        help="total requests to issue (default: 120)",
    )
    serve.add_argument(
        "--clients", type=int, default=8,
        help="concurrent closed-loop client threads (default: 8)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="server worker threads (default: 4)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=32,
        help="bounded admission-queue capacity (default: 32)",
    )
    serve.add_argument(
        "--bulkhead", type=int, default=2,
        help="concurrency slots per lane (default: 2)",
    )
    serve.add_argument(
        "--rate", type=float, default=0.0,
        help="token-bucket admission rate in req/s (0 disables; default: 0)",
    )
    serve.add_argument(
        "--deadline", type=float, default=2.0,
        help="per-request deadline budget in seconds (default: 2.0)",
    )
    serve.add_argument(
        "--drain-seconds", type=float, default=5.0,
        help="graceful-shutdown drain budget (default: 5.0)",
    )
    serve.add_argument(
        "--cache",
        action="store_true",
        help=(
            "serve repeated requests from a sharded single-flight "
            "cache (hits bypass queue, shedder and bulkhead; "
            "see docs/caching.md)"
        ),
    )
    serve.add_argument(
        "--cache-capacity", type=int, default=2048,
        help="maximum resident cache entries (default: 2048)",
    )
    serve.add_argument(
        "--cache-ttl", type=float, default=30.0,
        help="cache entry lifetime in seconds (default: 30.0)",
    )
    serve.add_argument(
        "--cache-degraded-ttl", type=float, default=2.0,
        help=(
            "lifetime of cached fallback (degraded) answers "
            "(default: 2.0)"
        ),
    )
    serve.add_argument(
        "--log-dir",
        metavar="PATH",
        default=None,
        help=(
            "durable interaction event log directory: existing events "
            "replay before the readiness probe flips, and rating "
            "traffic journals through the log while serving "
            "(see docs/event_log.md)"
        ),
    )
    serve.add_argument(
        "--log-writes", type=int, default=20,
        help=(
            "durable rating events to write through the log during "
            "the run (default: 20; needs --log-dir)"
        ),
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help=(
            "run the sharded multi-process topology with N supervised "
            "shard workers instead of the single-process server "
            "(chaos/cache/admission flags apply per worker defaults; "
            "see docs/sharding.md)"
        ),
    )
    serve.add_argument(
        "--shard-log-root",
        metavar="PATH",
        default=None,
        help=(
            "root directory for per-shard event logs (default: a "
            "fresh temp directory; reuse a path to replay on boot)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    replay = subparsers.add_parser(
        "replay",
        help=(
            "rebuild state from a durable interaction event log "
            "(see docs/event_log.md)"
        ),
    )
    replay.add_argument(
        "--log-dir",
        metavar="PATH",
        required=True,
        help="event log directory to scan and replay",
    )
    replay.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    replay.add_argument(
        "--seed", type=int, default=7,
        help=(
            "seed of the base world the log was recorded against "
            "(default: 7, matching serve --log-dir)"
        ),
    )
    replay.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the log shows damage (corruption/torn tail)",
    )
    replay.add_argument(
        "--selfcheck",
        action="store_true",
        help=(
            "write seeded events into --log-dir, simulate a crash, "
            "recover, and assert byte-identical recommendations "
            "(exit 0 on match, 1 on divergence)"
        ),
    )
    replay.add_argument(
        "--top-k", type=int, default=5,
        help="recommendation list depth compared by --selfcheck",
    )
    replay.add_argument(
        "--probes", type=int, default=5,
        help="probe users compared by --selfcheck (default: 5)",
    )
    replay.set_defaults(handler=_cmd_replay)

    analyze = subparsers.add_parser(
        "analyze",
        help=(
            "run the repro.analysis static-analysis gate "
            "(see docs/static_analysis.md)"
        ),
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    analyze.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "suppression baseline to check against (default: "
            f"{_DEFAULT_BASELINE}, which may be absent; an explicitly "
            "named baseline must exist)"
        ),
    )
    analyze.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to accept all current findings "
            "(new entries get a 'TODO: justify' comment to fill in), "
            "pruning entries whose finding no longer occurs"
        ),
    )
    analyze.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help=(
            "comma-separated rule ids to run (e.g. RR010,RR012); "
            "unknown ids exit 2"
        ),
    )
    analyze.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip; unknown ids exit 2",
    )
    analyze.add_argument(
        "--changed",
        action="store_true",
        help=(
            "gate only findings in files changed vs HEAD (uncommitted "
            "+ untracked); the full tree is still analyzed so "
            "cross-module rules stay exact"
        ),
    )
    analyze.add_argument(
        "--diff",
        metavar="BASE",
        default=None,
        help=(
            "gate only findings in files changed since merge-base with "
            "BASE (plus uncommitted changes) — the PR-check mode"
        ),
    )
    analyze.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache (force a cold run)",
    )
    analyze.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="incremental cache directory (default: .analysis-cache)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    quality = subparsers.add_parser(
        "quality",
        help=(
            "run the offline explanation-quality metrics suite "
            "(see docs/quality_metrics.md)"
        ),
    )
    quality.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    quality.add_argument(
        "--check",
        action="store_true",
        help=(
            "compare against the committed baseline; exit 1 when any "
            "metric leaves its tolerance band (or is unbaselined/stale)"
        ),
    )
    quality.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "baseline file for --check / --update-baseline "
            f"(default: {_DEFAULT_QUALITY_BASELINE})"
        ),
    )
    quality.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept the current metric values",
    )
    quality.add_argument(
        "--tolerance",
        type=float,
        metavar="T",
        default=0.05,
        help=(
            "band half-width written by --update-baseline "
            "(default: 0.05)"
        ),
    )
    quality.add_argument(
        "--correlation",
        action="store_true",
        help=(
            "also run the simulated seven-aims studies and report "
            "offline-metric-vs-aim agreement per substrate"
        ),
    )
    quality.set_defaults(handler=_cmd_quality)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.trace is None:
        return arguments.handler(arguments)
    from repro import obs

    obs.configure(trace_path=arguments.trace)
    try:
        return arguments.handler(arguments)
    finally:
        obs.get_tracer().close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
