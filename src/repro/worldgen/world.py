"""The :class:`World`: a live simulated internet.

A world holds infrastructure only, and builds it
(:func:`~repro.worldgen.materialize.materialize`) the first time
something needs it: reading a world's spec, year or config never does.
Once built, no library code changes it. Everything a measurement
changes lives in a vantage (:meth:`World.vantage`), cold on every call:
its clock, its fault injector, its caches and its tools. An outage, or
a responder that revokes everything, is a fault plan on a vantage, so
it reaches that vantage alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.dnssim.client import DigClient
from repro.dnssim.clock import SimulatedClock
from repro.dnssim.resolver import IterativeResolver
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.tlssim.validation import RevocationPolicy
from repro.websim.client import WebClient
from repro.websim.crawler import Crawler
from repro.worldgen.alexa import ListChurn
from repro.worldgen.config import WorldConfig
from repro.worldgen.evolve import evolve_to_2020
from repro.worldgen.generate import generate_snapshot
from repro.worldgen.materialize import BUILD_TIME, MaterializedWorld, materialize
from repro.worldgen.spec import SnapshotSpec


@dataclass
class VantagePoint:
    """One measurement vantage: its own simulated clock and fault
    injector (None: fault-free), a region-tagged resolver, and its tools."""

    region: Optional[str]
    clock: SimulatedClock
    injector: Optional[FaultInjector]
    resolver: IterativeResolver
    dig: DigClient
    web_client: WebClient
    crawler: Crawler


class World:
    """One live snapshot of the simulated internet.

    The infrastructure (``dns_network``, ``http_fabric``,
    ``trust_store``, the ``*_infra`` maps) is materialized once, on
    first use; :meth:`build` forces it.
    """

    def __init__(self, spec: SnapshotSpec, config: WorldConfig):
        self._spec = spec
        self.config = config
        self._built: Optional[MaterializedWorld] = None

    @property
    def _m(self) -> MaterializedWorld:
        if self._built is None:
            self._built = materialize(self._spec)
        return self._built

    def build(self) -> World:
        """Materialize the infrastructure now rather than on first use."""
        self._built = self._m
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def spec(self) -> SnapshotSpec:
        return self._spec

    @property
    def year(self) -> int:
        return self._spec.year

    @property
    def dns_network(self):
        return self._m.dns_network

    @property
    def http_fabric(self):
        return self._m.http_fabric

    @property
    def trust_store(self):
        return self._m.trust_store

    @property
    def dns_infra(self):
        return self._m.dns_infra

    @property
    def cdn_infra(self):
        return self._m.cdn_infra

    @property
    def ca_infra(self):
        return self._m.ca_infra

    @property
    def website_infra(self):
        return self._m.website_infra

    def vantage(
        self,
        region: Optional[str] = None,
        policy: RevocationPolicy = RevocationPolicy.SOFT_FAIL,
        faults: Optional[FaultPlan] = None,
    ) -> VantagePoint:
        """A cold measurement vantage (resolver/dig/client/crawler): an
        independent user in ``region`` (GeoDNS views apply) validating
        revocation under ``policy`` — the multi-vantage extension of the
        paper's §3.5 — whose every query and fetch meets the seeded
        ``faults`` plan.

        The vantage's clock starts at the world's build time, and its
        caches (DNS answers, OCSP responses, the staples servers handed
        it) start empty. Vantages share none of this with each other, so
        what one sees never depends on what another did before it. An
        empty plan gives no injector: every layer keeps its fault-free
        fast path, byte-identical to a plan-less vantage. An invalid plan
        raises :class:`~repro.faults.plan.FaultPlanError` naming every
        problem.
        """
        m = self._m
        injector = None
        if faults is not None:
            problems = faults.validate()
            if problems:
                raise FaultPlanError("; ".join(problems))
            if not faults.empty:
                injector = FaultInjector(faults)
        clock = SimulatedClock(start=BUILD_TIME)
        resolver = IterativeResolver(
            m.dns_network, m.root_hints, clock=clock, region=region,
            injector=injector,
        )
        dig = DigClient(resolver)
        client = WebClient(
            dns=dig,
            fabric=m.http_fabric,
            trust_store=m.trust_store,
            clock=clock,
            revocation_policy=policy,
            injector=injector,
        )
        return VantagePoint(
            region=region,
            clock=clock,
            injector=injector,
            resolver=resolver,
            dig=dig,
            web_client=client,
            crawler=Crawler(client, clock=clock),
        )

    def __repr__(self) -> str:
        return (
            f"World(year={self.year}, websites={len(self.spec.websites)}, "
            f"dns_providers={len(self.spec.dns_providers)}, "
            f"cdns={len(self.spec.cdns)}, cas={len(self.spec.cas)})"
        )


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Generate, (optionally) evolve, and materialize one world (built
    before it returns, so the build is paid here and not mid-campaign)."""
    config = config or WorldConfig()
    if config.year == 2016:
        spec = generate_snapshot(config)
    elif config.year == 2020:
        base = generate_snapshot(replace(config, year=2016))
        spec, _ = evolve_to_2020(base, config)
    else:
        raise ValueError(
            "build_world only knows the paper's endpoint snapshots; "
            "intermediate years come from repro.worldgen.timeline"
        )
    return World(spec, config).build()


def build_world_pair(
    config: Optional[WorldConfig] = None,
) -> tuple[World, World, ListChurn]:
    """The 2016 and 2020 worlds sharing one evolved population."""
    config = config or WorldConfig()
    base_config = replace(config, year=2016)
    spec_2016 = generate_snapshot(base_config)
    spec_2020, churn = evolve_to_2020(spec_2016, config)
    world_2016 = World(spec_2016, base_config).build()
    world_2020 = World(spec_2020, replace(config, year=2020)).build()
    return world_2016, world_2020, churn
