"""Campaign planning: partition the ranked website list into shards.

A plan is deterministic given (world config, region, limit, shard
count): shards are contiguous, near-equal, rank-ordered slices of the
target list, so concatenating shard results in shard order reproduces
the serial measurement order exactly. The plan also carries a
:class:`WorldFingerprint` — the identity a checkpoint store uses to
refuse stale artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing
from dataclasses import dataclass
from typing import Any, Optional

from repro.faults.plan import FaultPlan
from repro.measurement.runner import ranked_sites
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World

_JSON_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null",
}


def json_type_name(kind: type) -> str:
    """What JSON calls the type a decoded value has ("an object", "null")."""
    return _JSON_TYPE_NAMES[kind]


@dataclass(frozen=True)
class WorldFingerprint:
    """What identifies a campaign's measured population: the generated
    world (n/seed/year), the vantage region, the target-list limit, and
    the fault plan (by content digest; ``None`` for a fault-free run, so
    pre-fault checkpoints stay valid)."""

    n_websites: int
    seed: int
    year: int
    region: Optional[str] = None
    limit: Optional[int] = None
    fault_digest: Optional[str] = None
    # Timeline epoch index; ``None`` for ordinary single-snapshot
    # campaigns (and omitted from manifests, so pre-epoch checkpoints
    # stay readable). Epoch worlds can share a year label, so the index
    # is what keeps their checkpoints from cross-validating.
    epoch: Optional[int] = None

    @classmethod
    def of(
        cls,
        config: WorldConfig,
        region: Optional[str] = None,
        limit: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        epoch: Optional[int] = None,
    ) -> "WorldFingerprint":
        fault_digest = None
        if fault_plan is not None and not fault_plan.empty:
            fault_digest = fault_plan.digest()
        return cls(
            n_websites=config.n_websites,
            seed=config.seed,
            year=config.year,
            region=region,
            limit=limit,
            fault_digest=fault_digest,
            epoch=epoch,
        )

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "n_websites": self.n_websites,
            "seed": self.seed,
            "year": self.year,
            "region": self.region,
            "limit": self.limit,
            "fault_digest": self.fault_digest,
        }
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        return payload

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "WorldFingerprint":
        """The fingerprint a manifest recorded. A missing optional field
        is ``None``; raises ValueError naming the first field whose JSON
        type its annotation does not allow."""
        hints = typing.get_type_hints(cls)
        values: dict[str, Any] = {}
        for field in dataclasses.fields(cls):
            value = data.get(field.name)
            kinds = typing.get_args(hints[field.name]) or (hints[field.name],)
            if type(value) not in kinds:
                raise ValueError(
                    f'fingerprint field "{field.name}" is '
                    f"{json_type_name(type(value))}, not "
                    f"{json_type_name(kinds[0])}"
                )
            values[field.name] = value
        return cls(**values)

    def describe(self) -> str:
        faults = (
            f" faults={self.fault_digest[:12]}" if self.fault_digest else ""
        )
        epoch = f" epoch={self.epoch}" if self.epoch is not None else ""
        return (
            f"n={self.n_websites} seed={self.seed} year={self.year} "
            f"region={self.region} limit={self.limit}{faults}{epoch}"
        )


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous, rank-ordered slice of the target list."""

    shard_id: int
    sites: tuple[tuple[str, int], ...]  # (domain, rank)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def digest(self) -> str:
        """Content hash of the site list (manifest integrity check)."""
        body = "\n".join(f"{domain}#{rank}" for domain, rank in self.sites)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignPlan:
    """A fingerprinted, sharded campaign ready for ``execute_plan``."""

    fingerprint: WorldFingerprint
    shards: tuple[ShardSpec, ...]

    @property
    def n_sites(self) -> int:
        return sum(shard.n_sites for shard in self.shards)


def partition_sites(
    sites: list[tuple[str, int]], n_shards: int
) -> list[ShardSpec]:
    """Split a rank-ordered site list into ≤ ``n_shards`` contiguous,
    near-equal slices (never an empty shard)."""
    if n_shards < 1:
        raise ValueError(f"shard count must be >= 1, got {n_shards}")
    n_shards = min(n_shards, len(sites)) or 1
    base, extra = divmod(len(sites), n_shards)
    shards: list[ShardSpec] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        shards.append(
            ShardSpec(shard_id=index, sites=tuple(sites[start : start + size]))
        )
        start += size
    return shards


def plan_campaign(
    world: World,
    n_shards: int = 1,
    limit: Optional[int] = None,
    region: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> CampaignPlan:
    """Plan a campaign against ``world``'s ranked website list."""
    return CampaignPlan(
        fingerprint=WorldFingerprint.of(
            world.config, region=region, limit=limit, fault_plan=fault_plan
        ),
        shards=tuple(partition_sites(ranked_sites(world, limit), n_shards)),
    )
