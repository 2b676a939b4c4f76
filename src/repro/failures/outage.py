"""Provider-outage replay: who actually breaks when a provider goes dark.

``simulate_dns_outage("dyn")`` is the Mirai-Dyn incident: the provider's
nameserver IPs stop answering, and every website is probed end-to-end
with a cold-cache client. The result separates *unreachable* (the DNS
path died), *degraded* (the page loads but resources were lost), and
*unaffected* websites — ground-truth behaviour against which the
dependency graph's impact prediction is validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.graph import ProviderNode, ServiceType
from repro.core.pipeline import AnalyzedSnapshot
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


def _probe_websites(
    world: World,
    domains: Optional[Iterable[str]],
    result: OutageResult,
    revocation_policy: RevocationPolicy,
    check_resources: bool,
) -> None:
    client = world.vantage(policy=revocation_policy).web_client
    specs = world.spec.website_by_domain()
    for domain in specs if domains is None else domains:
        spec = specs.get(domain)
        scheme = "https" if spec is not None and spec.https else "http"
        landing = client.get(f"{scheme}://www.{domain}/")
        if not landing.ok:
            result.unreachable.append(domain)
            continue
        if check_resources:
            infra = world.website_infra.get(domain)
            lost = 0
            for host in (infra.resource_hosts if infra else []):
                fetch = client.get(f"{scheme}://{host}/probe")
                if not fetch.ok:
                    lost += 1
            if lost:
                result.degraded.append(domain)
                continue
        result.unaffected.append(domain)


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
    result = OutageResult(provider=provider_key, service="dns")
    world.take_down_dns_provider(provider_key)
    try:
        _probe_websites(
            world, domains, result, RevocationPolicy.SOFT_FAIL, check_resources
        )
    finally:
        world.take_down_dns_provider(provider_key, available=True)
    return result


def simulate_cdn_outage(
    world: World,
    cdn_key: str,
    domains: Optional[Iterable[str]] = None,
) -> OutageResult:
    """Take a CDN's edges down; resource losses mark websites degraded."""
    result = OutageResult(provider=cdn_key, service="cdn")
    world.take_down_cdn(cdn_key)
    try:
        _probe_websites(
            world, domains, result, RevocationPolicy.SOFT_FAIL, check_resources=True
        )
    finally:
        world.take_down_cdn(cdn_key, available=True)
    return result


def simulate_ca_outage(
    world: World,
    ca_key: str,
    domains: Optional[Iterable[str]] = None,
) -> OutageResult:
    """Make a CA's revocation endpoints unreachable under hard-fail clients.

    Stapling websites keep working (the paper's non-critical case); others
    lose HTTPS for hard-fail users.
    """
    result = OutageResult(provider=ca_key, service="ca")
    world.take_down_ca(ca_key)
    try:
        _probe_websites(
            world, domains, result, RevocationPolicy.HARD_FAIL, check_resources=False
        )
    finally:
        world.take_down_ca(ca_key, available=True)
    return result
