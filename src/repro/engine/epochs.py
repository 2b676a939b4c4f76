"""Incremental remeasurement across timeline epochs.

A full campaign re-measures every site; across a timeline that wastes
work, because an epoch only changes a churn-sized slice of the world.
``run_timeline`` measures epoch 0 in full, then for each later epoch:

1. asks the :class:`~repro.worldgen.timeline.Timeline` for the epoch's
   :class:`~repro.worldgen.timeline.EpochChange` (the ground-truth set of
   sites whose spec moved),
2. plans a campaign over *only* those sites and runs it through
   :func:`~repro.engine.merge.execute_plan`, the same sharded, parallel,
   checkpointed path ``run_campaign`` uses (per-epoch subdirectories
   under the checkpoint root, fingerprinted with the epoch index),
3. splices the fresh records into the previous epoch's dataset — dead
   sites drop out, newcomers and movers take their measured records,
   every unchanged site keeps its prior record byte-for-byte,
4. re-runs the inter-service pass against the epoch's world (provider
   populations drift, so this pass is always recomputed).

The contract is the same determinism the engine already guarantees,
extended across time: for every epoch, the spliced dataset serializes to
the exact bytes a full from-scratch campaign against that epoch's world
produces (``tests/test_engine_epochs.py`` proves it differentially).
This is sound because measurement records carry no cross-site state —
``measure_site`` is a pure function of the site's spec and its
providers' *structural* specs, which the timeline freezes across epochs
for surviving providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.engine.checkpoint import CheckpointStore
from repro.engine.merge import execute_plan
from repro.engine.plan import (
    CampaignPlan,
    WorldFingerprint,
    partition_sites,
)
from repro.engine.progress import CampaignStats, NullProgress
from repro.measurement.records import Dataset, WebsiteMeasurement
from repro.measurement.runner import MeasurementCampaign, ranked_sites
from repro.worldgen.timeline import EpochChange, Timeline, TimelineConfig
from repro.worldgen.world import World


@dataclass(frozen=True)
class TimelineWorldSource:
    """Picklable recipe for one epoch's world.

    Pool workers rebuild the timeline from its config and materialize
    the epoch — worlds are deterministic functions of the config, so a
    worker-built world is byte-equivalent to the parent's.
    """

    config: TimelineConfig
    epoch: int

    def build(self) -> World:
        return Timeline(self.config).world(self.epoch)


@dataclass
class EpochResult:
    """One epoch's dataset plus how much work it took to produce."""

    epoch: int
    year: int
    dataset: Dataset
    changes: EpochChange
    sites_measured: int
    sites_total: int


def _epoch_store(
    checkpoint_dir: Optional[Union[str, Path]], epoch: int
) -> Optional[CheckpointStore]:
    if checkpoint_dir is None:
        return None
    return CheckpointStore(Path(checkpoint_dir) / f"epoch-{epoch:04d}")


def run_timeline(
    config: TimelineConfig,
    *,
    shards: int = 1,
    workers: int = 1,
    limit: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    full: bool = False,
    epochs: Optional[Iterable[int]] = None,
    timeline: Optional[Timeline] = None,
) -> list[EpochResult]:
    """Measure every epoch of a timeline, incrementally by default.

    ``full=True`` forces a from-scratch campaign per epoch — the
    differential baseline the incremental path is proven against (and
    the slow path the ``BENCH_epoch.json`` speedup is measured over).
    ``epochs`` restricts which epoch indices to return (predecessors are
    still computed: epoch ``k`` splices into ``k - 1``'s records).
    """
    timeline = timeline if timeline is not None else Timeline(config)
    wanted = set(range(config.epochs)) if epochs is None else set(epochs)
    if wanted and (min(wanted) < 0 or max(wanted) >= config.epochs):
        raise ValueError(
            f"epochs {sorted(wanted)} outside timeline of "
            f"{config.epochs} epochs"
        )
    last_needed = max(wanted) if wanted else -1

    results: list[EpochResult] = []
    prev_records: dict[str, WebsiteMeasurement] = {}
    for epoch in range(last_needed + 1):
        world = timeline.world(epoch)
        changes = timeline.changes(epoch)
        campaign = MeasurementCampaign(world)
        target = ranked_sites(world, limit)

        if epoch == 0 or full:
            to_measure = target
        else:
            changed = set(changes.changed)
            to_measure = [
                (domain, rank)
                for domain, rank in target
                if domain in changed or domain not in prev_records
            ]

        plan = CampaignPlan(
            fingerprint=WorldFingerprint.of(
                world.config, limit=limit, epoch=epoch
            ),
            shards=tuple(partition_sites(to_measure, shards)),
        )
        measured: list[WebsiteMeasurement] = []
        if to_measure:
            measured, _metrics = execute_plan(
                campaign, plan, TimelineWorldSource(config, epoch),
                workers=workers, store=_epoch_store(checkpoint_dir, epoch),
                resume=resume, stats=CampaignStats(), progress=NullProgress(),
            )
        fresh = {record.domain: record for record in measured}

        dataset = Dataset(year=world.year)
        for domain, _rank in target:
            dataset.websites.append(
                fresh[domain] if domain in fresh else prev_records[domain]
            )
        campaign.run_interservice(dataset)

        prev_records = {r.domain: r for r in dataset.websites}
        if epoch in wanted:
            results.append(
                EpochResult(
                    epoch=epoch,
                    year=world.year,
                    dataset=dataset,
                    changes=changes,
                    sites_measured=len(to_measure),
                    sites_total=len(target),
                )
            )
    return results
