"""The campaign-execution engine: sharded, parallel, resumable.

Two drivers share one execution path. ``run_campaign`` measures one
snapshot; ``run_timeline`` (engine.epochs) measures each epoch's
changed slice and splices it into the previous epoch. Both plan, hand
the plan to :func:`repro.engine.merge.execute_plan`, then run the
inter-service pass over the result::

    plan      partition the target site list into shards   (engine.plan)
    persist   write or validate the manifest, load resumed
              shards, checkpoint each finished shard       (engine.checkpoint)
    execute   measure shards serially or in a process pool (engine.executor)
    merge     check shards against the plan, concatenate  (engine.merge)
    report    shards done, sites/sec, per-phase timings    (engine.progress)

A pool worker rebuilds its world from a picklable recipe: the
``WorldConfig`` for a campaign, a :class:`TimelineWorldSource` for an
epoch.

``run_campaign`` runs every snapshot campaign, ``analyze_world``'s
included. A campaign's clock and fault injector belong to its own
vantage, never to the world, so a run leaves its world as it found it.

The contract is determinism: for a fixed world fingerprint
(n/seed/year/region/limit), the merged dataset serializes to the
committed goldens' bytes, at any shard/worker count and any
interrupt/resume history.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.pipeline import (
    AnalyzedSnapshot,
    analyze_dataset,
    dns_display_directory,
)
from repro.engine.checkpoint import CheckpointStore, StaleCheckpointError
from repro.engine.executor import WorldSource
from repro.engine.epochs import (
    EpochResult,
    TimelineWorldSource,
    run_timeline,
)
from repro.engine.merge import execute_plan
from repro.engine.plan import (
    CampaignPlan,
    ShardSpec,
    WorldFingerprint,
    partition_sites,
    plan_campaign,
)
from repro.engine.progress import (
    CampaignStats,
    ConsoleProgress,
    NullProgress,
    PhaseTimer,
    ProgressReporter,
)
from repro.faults.plan import FaultPlan
from repro.measurement.records import Dataset
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.context import Telemetry
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World, build_world

__all__ = [
    "CampaignPlan",
    "CampaignStats",
    "CheckpointStore",
    "ConsoleProgress",
    "EpochResult",
    "NullProgress",
    "PhaseTimer",
    "ProgressReporter",
    "ShardSpec",
    "StaleCheckpointError",
    "TimelineWorldSource",
    "WorldFingerprint",
    "WorldSource",
    "analyze_world",
    "partition_sites",
    "plan_campaign",
    "run_campaign",
    "run_timeline",
]


def run_campaign(
    config: Optional[WorldConfig] = None,
    *,
    world: Optional[World] = None,
    shards: int = 1,
    workers: int = 1,
    limit: Optional[int] = None,
    region: Optional[str] = None,
    checkpoint_dir: Optional[Union[str, CheckpointStore]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    stats: Optional[CampaignStats] = None,
    fault_plan: Optional[FaultPlan] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dataset:
    """Execute one measurement campaign through the engine.

    Pass either a ``config`` (the world is built from it — and rebuilt
    inside each pool worker) or a prebuilt ``world``. With a
    ``checkpoint_dir``, finished shards are persisted as they complete;
    ``resume=True`` validates the directory's manifest against this
    campaign's world fingerprint and skips already-completed shards,
    raising :class:`StaleCheckpointError` on any mismatch. A non-empty
    ``fault_plan`` threads seeded fault injection through every worker's
    world; the plan's digest joins the fingerprint, so a checkpoint from
    one plan refuses shards measured under another. The plan's injector
    and the simulated clock belong to the campaign's own vantage, so the
    run changes nothing on ``world``, and a campaign on a world measured
    before gives the bytes (and the trace) of one on a fresh world.

    ``telemetry`` installs observability: when its metrics registry is
    on, every shard payload carries the shard's drained (shard-stable)
    metrics and the merged campaign aggregate lands in
    ``telemetry.campaign_metrics`` — byte-identical for any worker/shard
    count. Workers rebuild a metrics-only facade from a picklable
    config; the parent's tracer (if any) observes the serial path and
    the inter-service pass.
    """
    progress = progress if progress is not None else NullProgress()
    stats = stats if stats is not None else CampaignStats()
    stats.start()

    # -- plan --------------------------------------------------------------
    if world is None:
        if config is None:
            raise ValueError("run_campaign needs a config or a world")
        world = build_world(config)
    plan = plan_campaign(
        world, n_shards=shards, limit=limit, region=region,
        fault_plan=fault_plan,
    )
    store = (
        checkpoint_dir
        if checkpoint_dir is None or isinstance(checkpoint_dir, CheckpointStore)
        else CheckpointStore(checkpoint_dir)
    )
    campaign = MeasurementCampaign(
        world, region=region, fault_plan=fault_plan, telemetry=telemetry,
    )

    # -- persist + measure (closes the plan and measure phases) -----------
    websites, metrics = execute_plan(
        campaign, plan, world.config, workers=workers, store=store,
        resume=resume, stats=stats, progress=progress,
    )

    # -- merge + inter-service pass ---------------------------------------
    dataset = Dataset(year=world.year)
    dataset.websites.extend(websites)
    campaign.run_interservice(dataset)
    if metrics is not None:
        assert telemetry is not None
        remainder = telemetry.drain_metrics()
        if remainder is not None:
            metrics.merge_dict(remainder)
        telemetry.campaign_metrics = metrics.to_dict()
    stats.finish_phase("merge", progress)
    progress.on_finish(stats)
    return dataset


def analyze_world(world: World, limit: Optional[int] = None) -> AnalyzedSnapshot:
    """Measure a world through :func:`run_campaign` and analyze it."""
    return analyze_dataset(
        run_campaign(world=world, limit=limit),
        rank_scale=world.config.rank_scale,
        dns_display_names=dns_display_directory(world),
    )
