"""Shard executors: the backends that run a campaign plan.

Both backends yield ``(shard_id, shard_json)`` pairs as shards finish,
so the orchestrator can checkpoint each one immediately. Shard payloads
travel as JSON strings — the exact bytes a checkpoint stores — so a
fresh run, a resumed run, and a multiprocess run all merge identical
inputs.

The multiprocessing backend materializes the world *inside each worker
process* from the campaign's world config (worlds are deterministic
functions of their config), so nothing heavier than a
:class:`~repro.engine.plan.ShardSpec` ever crosses a process boundary.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterable, Iterator, Optional, Protocol, Union

from repro.engine.plan import ShardSpec
from repro.faults.plan import FaultPlan
from repro.measurement.io import shard_to_json
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


def measure_shard(campaign: MeasurementCampaign, shard: ShardSpec) -> str:
    """Measure one shard's sites; returns the checkpointable payload.

    When the campaign carries telemetry, the shard payload also carries
    the registry state drained *after exactly this shard's sites* — the
    drain scopes metrics per shard, so merged aggregates are independent
    of which worker measured which shard.
    """
    websites = [
        campaign.measure_site(domain, rank) for domain, rank in shard.sites
    ]
    tel = campaign.telemetry
    metrics = tel.drain_metrics() if tel is not None else None
    return shard_to_json(websites, metrics)


def _measure_shard_in_worker(shard: ShardSpec) -> tuple[int, str]:
    assert _WORKER_CAMPAIGN is not None, "worker pool not initialized"
    return shard.shard_id, measure_shard(_WORKER_CAMPAIGN, shard)


class SerialExecutor:
    """In-process backend: shards measured in order through one campaign.

    Pass the *same* campaign instance the merger will use: the campaign's
    SOA memo then spans the measure and inter-service passes, which is
    what keeps the one-worker engine on the goldens' bytes (re-querying a
    name after the measure phase can hit the resolver's negative cache
    and answer differently than its first touch).
    """

    def __init__(self, campaign: MeasurementCampaign) -> None:
        self._campaign = campaign

    def run(self, shards: Iterable[ShardSpec]) -> Iterator[tuple[int, str]]:
        for shard in shards:
            yield shard.shard_id, measure_shard(self._campaign, shard)


class MultiprocessExecutor:
    """``multiprocessing.Pool`` backend: each worker materializes the
    world from its config/seed and measures whole shards."""

    def __init__(
        self,
        config: Union[WorldConfig, WorldSource],
        workers: int,
        region: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry_config: Optional[TelemetryConfig] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self._config = config
        self._workers = workers
        self._region = region
        self._fault_plan = fault_plan
        self._telemetry_config = telemetry_config

    def run(self, shards: Iterable[ShardSpec]) -> Iterator[tuple[int, str]]:
        shards = list(shards)
        if not shards:
            return
        pool = multiprocessing.Pool(
            processes=min(self._workers, len(shards)),
            initializer=_init_worker,
            initargs=(
                self._config,
                self._region,
                self._fault_plan,
                self._telemetry_config,
            ),
        )
        try:
            # Unordered: the merger reassembles by shard id, so slow
            # shards never block checkpointing of finished ones.
            for result in pool.imap_unordered(_measure_shard_in_worker, shards):
                yield result
            pool.close()
            pool.join()
        finally:
            pool.terminate()
