"""Plan execution: the one path from a campaign plan to merged records.

``run_campaign`` and ``run_timeline`` both hand their plan to
:func:`execute_plan`, which owns everything between planning and the
inter-service pass.

Shards arrive as records in memory — measured here, returned by a pool
worker, or loaded from a checkpoint — and are concatenated in shard-id
order (= global rank order, because the planner slices contiguously),
so the caller's inter-service pass sees the website list a serial run
does, regardless of shard count, worker count, or completion order.
Telemetry metrics merge the same way: per-shard registry states are
folded in shard-id order — integer arithmetic, so the fold is exact and
associative — and the caller adds the inter-service pass's own metrics
on top, so the campaign aggregate is byte-identical for any
worker/shard count, exactly like the dataset.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.checkpoint import CheckpointStore
from repro.engine.executor import WorldSource, measure_in_pool, measure_shard
from repro.engine.plan import CampaignPlan
from repro.engine.progress import CampaignStats, ProgressReporter
from repro.measurement.io import ShardPayload
from repro.measurement.records import WebsiteMeasurement
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.metrics import MetricsRegistry
from repro.worldgen.config import WorldConfig


def execute_plan(
    campaign: MeasurementCampaign,
    plan: CampaignPlan,
    source: Union[WorldConfig, WorldSource],
    *,
    workers: int,
    store: Optional[CheckpointStore],
    resume: bool,
    stats: CampaignStats,
    progress: ProgressReporter,
) -> tuple[list[WebsiteMeasurement], Optional[MetricsRegistry]]:
    """Measure a plan's shards and merge them into rank-ordered records.

    With a ``store``, a fresh directory gets the plan's manifest; a
    directory that already holds one needs ``resume=True``, is validated
    against the plan, and its completed shards are loaded instead of
    re-measured. Pending shards run on ``campaign`` (one worker) or on
    a pool whose workers rebuild the world from ``source``, and each is
    persisted as it finishes. Every payload — fresh or resumed — must
    list exactly its shard's domains in rank order, or ``ValueError``
    names the shard. Closes the ``plan`` and ``measure`` phases on
    ``stats``.

    Returns the records plus, when the campaign collects metrics, the
    shards' metrics folded in shard-id order (``None`` otherwise). A
    shard without metrics (checkpointed by a telemetry-less run) then
    raises ``ValueError`` rather than silently under-counting.
    """
    payloads: dict[int, ShardPayload] = {}
    if store is not None:
        if store.has_manifest():
            if not resume:
                raise ValueError(
                    f"checkpoint directory {store.directory} already holds "
                    f"a campaign; pass resume=True (--resume) to continue "
                    f"it, or point at a fresh directory"
                )
            store.validate_manifest(plan)
            completed = store.completed_shards()
            for shard in plan.shards:
                if shard.shard_id in completed:
                    payloads[shard.shard_id] = store.load_shard(shard.shard_id)
        else:
            store.write_manifest(plan)

    pending = [s for s in plan.shards if s.shard_id not in payloads]
    stats.workers = workers
    stats.shards_total = len(plan.shards)
    stats.shards_skipped = len(plan.shards) - len(pending)
    stats.sites_total = plan.n_sites
    stats.finish_phase("plan", progress)
    progress.on_plan(stats)

    tel = campaign.telemetry
    collect = tel is not None and tel.metrics is not None
    if pending:
        if workers > 1:
            measured = measure_in_pool(
                campaign, source, pending, workers, metrics=collect
            )
        else:
            # Shares `campaign` with the merge pass: its SOA memo then spans
            # the measure and inter-service passes, which keeps one worker
            # on the goldens' bytes (a name re-queried after the measure
            # phase can hit the negative cache and answer differently).
            measured = (
                (s.shard_id, measure_shard(campaign, s)) for s in pending
            )
        sites_by_id = {s.shard_id: s.n_sites for s in pending}
        for shard_id, payload in measured:
            if store is not None:
                store.write_shard(shard_id, *payload)
            payloads[shard_id] = payload
            stats.shards_done += 1
            stats.sites_done += sites_by_id[shard_id]
            progress.on_shard_done(shard_id, sites_by_id[shard_id], stats)
    stats.finish_phase("measure", progress)

    merged = MetricsRegistry() if collect else None
    websites: list[WebsiteMeasurement] = []
    for shard in plan.shards:
        records, metrics = payloads[shard.shard_id]
        if [r.domain for r in records] != [d for d, _ in shard.sites]:
            raise ValueError(
                f"shard {shard.shard_id} payload lists {len(records)} "
                f"websites that do not match the plan's {shard.n_sites} "
                f"sites in rank order; delete the damaged checkpoint "
                f"shard and resume, or use a fresh checkpoint directory"
            )
        if merged is not None:
            if metrics is None:
                raise ValueError(
                    f"cannot merge metrics: shard {shard.shard_id} was "
                    f"checkpointed without telemetry; rerun without "
                    f"metrics collection or from a fresh checkpoint "
                    f"directory"
                )
            merged.merge_dict(metrics)
        websites.extend(records)
    return websites, merged
