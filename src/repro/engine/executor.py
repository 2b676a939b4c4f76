"""Shard measurement: one shard's records, in process or in a pool.

A measured shard is its records plus the telemetry state drained after
them, and it crosses to the merge in memory: a serial campaign hands
over the records it built, and a pool worker returns them through
pickle, which carries the frozen record classes as they are. Only a
checkpoint writes a shard as JSON (:mod:`repro.engine.checkpoint`).

The pool materializes the world *inside each worker process* from the
campaign's world config (worlds are deterministic functions of their
config), so nothing heavier than a :class:`~repro.engine.plan.ShardSpec`
goes out to a worker.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator, Optional, Protocol, Union

from repro.engine.plan import ShardSpec
from repro.faults.plan import FaultPlan
from repro.measurement.io import ShardPayload
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.context import TelemetryConfig
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World, build_world


class WorldSource(Protocol):
    """A picklable recipe a pool worker can rebuild its world from.

    ``WorldConfig`` covers the ordinary single-snapshot case; timeline
    epochs ship a :class:`repro.engine.epochs.TimelineWorldSource`
    because intermediate epochs cannot be derived from a ``WorldConfig``
    alone.
    """

    def build(self) -> World: ...


def _build_worker_world(source: Union[WorldConfig, WorldSource]) -> World:
    if isinstance(source, WorldConfig):
        return build_world(source)
    return source.build()


# Per-worker-process campaign, created once by the pool initializer.
_WORKER_CAMPAIGN: Optional[MeasurementCampaign] = None


def _init_worker(
    config: Union[WorldConfig, WorldSource],
    region: Optional[str],
    fault_plan: Optional[FaultPlan] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
) -> None:
    global _WORKER_CAMPAIGN
    world = _build_worker_world(config)
    telemetry = (
        telemetry_config.build() if telemetry_config is not None else None
    )
    _WORKER_CAMPAIGN = MeasurementCampaign(
        world, region=region, fault_plan=fault_plan, telemetry=telemetry
    )


def measure_shard(
    campaign: MeasurementCampaign, shard: ShardSpec
) -> ShardPayload:
    """Measure one shard's sites: ``(records, metrics)``.

    When the campaign carries telemetry, ``metrics`` is the registry
    state drained *after exactly this shard's sites* — the drain scopes
    metrics per shard, so merged aggregates are independent of which
    worker measured which shard.
    """
    websites = [
        campaign.measure_site(domain, rank) for domain, rank in shard.sites
    ]
    tel = campaign.telemetry
    return websites, tel.drain_metrics() if tel is not None else None


def _measure_shard_in_worker(shard: ShardSpec) -> tuple[int, ShardPayload]:
    assert _WORKER_CAMPAIGN is not None, "worker pool not initialized"
    return shard.shard_id, measure_shard(_WORKER_CAMPAIGN, shard)


def measure_in_pool(
    campaign: MeasurementCampaign,
    source: Union[WorldConfig, WorldSource],
    shards: list[ShardSpec],
    workers: int,
    metrics: bool,
) -> Iterator[tuple[int, ShardPayload]]:
    """Measure ``shards`` on a ``multiprocessing.Pool``, yielding
    ``(shard_id, (records, metrics))`` as each shard finishes.

    Each worker rebuilds the world from ``source`` and measures with
    ``campaign``'s region and fault plan. With ``metrics``, workers get
    a metrics-only telemetry facade rebuilt from a picklable config
    (tracing stays in-process: site traces need the serial path so one
    world observes the whole campaign).
    """
    pool = multiprocessing.Pool(
        processes=min(workers, len(shards)),
        initializer=_init_worker,
        initargs=(
            source,
            campaign.region,
            campaign.fault_plan,
            TelemetryConfig(metrics=True) if metrics else None,
        ),
    )
    try:
        # Unordered: the merge reassembles by shard id, so slow shards
        # never block checkpointing of finished ones.
        yield from pool.imap_unordered(_measure_shard_in_worker, shards)
        pool.close()
        pool.join()
    finally:
        pool.terminate()
