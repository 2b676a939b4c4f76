"""Provider-outage replay: who actually breaks when a provider goes dark.

``simulate_dns_outage("dyn")`` is the Mirai-Dyn incident: a cold-cache
vantage whose fault plan (:func:`outage_fault_plan`) drops every query
to the provider's nameservers probes every website end-to-end. The
result separates *unreachable* (the DNS path died), *degraded* (the
page loads but resources were lost), and *unaffected* websites —
ground-truth behaviour that the dependency graph's impact prediction is
compared with. The world itself never changes, so nothing needs
restoring afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.graph import ProviderNode, ServiceType
from repro.core.pipeline import AnalyzedSnapshot
from repro.faults.plan import FaultPlan, FaultRule
from repro.names.registrable import registrable_domain
from repro.tlssim.validation import RevocationPolicy
from repro.worldgen.world import World


@dataclass
class OutageResult:
    """Outcome of one simulated provider outage."""

    provider: str
    service: str
    unreachable: list[str] = field(default_factory=list)
    degraded: list[str] = field(default_factory=list)
    unaffected: list[str] = field(default_factory=list)

    @property
    def affected(self) -> list[str]:
        return self.unreachable + self.degraded

    @property
    def total_probed(self) -> int:
        return len(self.unreachable) + len(self.degraded) + len(self.unaffected)

    def affected_fraction(self) -> float:
        total = self.total_probed
        return len(self.affected) / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-ready view (sorted site lists, derived fields included)."""
        return {
            "provider": self.provider,
            "service": self.service,
            "unreachable": sorted(self.unreachable),
            "degraded": sorted(self.degraded),
            "unaffected": sorted(self.unaffected),
            "total_probed": self.total_probed,
            "affected_fraction": self.affected_fraction(),
        }


def _outage_servers(world: World, service: str, key: str) -> Optional[list[str]]:
    """The names of the servers an outage of provider ``key`` takes
    down, or None when the world has no such ``service`` provider."""
    if service == "dns":
        dns = world.dns_infra.get(key)
        return None if dns is None else [server.name for server in dns.servers]
    if service == "cdn":
        cdn = world.cdn_infra.get(key)
        return None if cdn is None else [cdn.edge_server.name]
    if service == "ca":
        ca = world.ca_infra.get(key)
        if ca is None:
            return None
        return [] if ca.service_server is None else [ca.service_server.name]
    raise ValueError(
        f"unknown outage service {service!r} (expected dns, cdn or ca)"
    )


def outage_fault_plan(world: World, service: str, key: str) -> FaultPlan:
    """The fault plan of one provider's outage.

    ``dns``: every nameserver the provider runs drops 100% of queries
    (the Dyn scenario). ``cdn``: the CDN's edge server times out every
    connection. ``ca``: the CA's directly hosted revocation endpoints
    time out; endpoints deployed on a CDN keep serving, which is the
    CA→CDN dependency cutting the other way. The service is explicit
    because the DNS, CDN and CA keys are separate maps that nothing
    keeps disjoint. Raises ValueError for an unknown service or key.
    """
    servers = _outage_servers(world, service, key)
    if servers is None:
        raise ValueError(f"no {service} provider {key!r} in this world")
    layer, kind = ("dns", "drop") if service == "dns" else ("web", "timeout")
    rules = tuple(
        FaultRule(
            name=f"outage-{key}-{index}",
            layer=layer,
            kind=kind,
            server=name,
        )
        for index, name in enumerate(servers)
    )
    return FaultPlan(rules=rules)


def _probe_websites(
    world: World,
    service: str,
    key: str,
    domains: Optional[Iterable[str]],
    revocation_policy: RevocationPolicy,
    check_resources: bool,
) -> OutageResult:
    """Probe ``domains`` (default: every website) through a cold vantage
    under the outage plan of ``key``."""
    result = OutageResult(provider=key, service=service)
    client = world.vantage(
        policy=revocation_policy,
        faults=outage_fault_plan(world, service, key),
    ).web_client
    specs = world.spec.website_by_domain()
    for domain in specs if domains is None else domains:
        spec = specs.get(domain)
        scheme = "https" if spec is not None and spec.https else "http"
        if not client.get(f"{scheme}://www.{domain}/").ok:
            result.unreachable.append(domain)
            continue
        infra = world.website_infra.get(domain)
        hosts = infra.resource_hosts if check_resources and infra else []
        # Every resource is fetched, even after a loss: each fetch warms
        # the vantage's caches for the sites probed after this one.
        fetched = [client.get(f"{scheme}://{host}/probe").ok for host in hosts]
        (result.unaffected if all(fetched) else result.degraded).append(domain)
    return result


def predicted_dns_victims(
    snapshot: AnalyzedSnapshot,
    world: World,
    provider_key: str,
    critical_only: bool = True,
) -> list[str]:
    """Websites the dependency graph predicts down for a provider outage.

    The analytical counterpart of :func:`simulate_dns_outage`: instead of
    probing every website against a degraded world, read the provider's
    dependent-website set straight off the graph's batch metric engine
    (every nameserver base the provider operates maps to one DNS node).
    ``critical_only=True`` predicts *unreachable* sites; ``False`` widens
    to every site touching the provider at all.
    """
    provider = world.spec.dns_providers[provider_key]
    bases = sorted(
        {registrable_domain(ns) or ns for ns in provider.ns_domains}
    )
    victims: set[str] = set()
    for base in bases:
        victims |= snapshot.graph.dependent_websites(
            ProviderNode(base, ServiceType.DNS), critical_only=critical_only
        )
    return sorted(victims)


def simulate_dns_outage(
    world: World,
    provider_key: str,
    domains: Optional[Iterable[str]] = None,
    check_resources: bool = True,
) -> OutageResult:
    """Take a managed-DNS provider down and probe websites end-to-end."""
    return _probe_websites(
        world, "dns", provider_key, domains, RevocationPolicy.SOFT_FAIL,
        check_resources,
    )


def simulate_cdn_outage(
    world: World,
    cdn_key: str,
    domains: Optional[Iterable[str]] = None,
) -> OutageResult:
    """Take a CDN's edges down; resource losses mark websites degraded."""
    return _probe_websites(
        world, "cdn", cdn_key, domains, RevocationPolicy.SOFT_FAIL,
        check_resources=True,
    )


def simulate_ca_outage(
    world: World,
    ca_key: str,
    domains: Optional[Iterable[str]] = None,
) -> OutageResult:
    """Make a CA's revocation endpoints unreachable under hard-fail clients.

    Stapling websites keep working (the paper's non-critical case); others
    lose HTTPS for hard-fail users.
    """
    return _probe_websites(
        world, "ca", ca_key, domains, RevocationPolicy.HARD_FAIL,
        check_resources=False,
    )
