"""The dependency graph and the concentration / impact metrics (§2.2).

Nodes are websites and providers (DNS entities, CDNs, CAs); edges carry
the service type and whether the dependency is *critical* (no redundancy).
Provider→provider edges encode the inter-service dependencies of Section
3.4, which is what makes the metrics recursive:

* ``concentration(p)`` — websites depending on ``p`` directly **or**
  through any provider that uses ``p``;
* ``impact(p)`` — websites *critically* depending on ``p`` directly or
  through providers critically depending on ``p``.

Both implement the set-union formulas from the paper. The recursive
reading of those formulas (re-traverse the consumer tree per provider,
with a path-local visited set as the ``\\{p}`` exclusion) is exponential
on dense provider→provider graphs; the metrics here are instead served
by :class:`repro.core.graphx.MetricEngine`, which computes every
provider's dependent set in one iterative SCC-condensation sweep and is
invalidated whenever the graph mutates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.graphx import MetricEngine


class ServiceType(enum.Enum):
    DNS = "dns"
    CDN = "cdn"
    CA = "ca"


@dataclass(frozen=True)
class ProviderNode:
    """A provider node: its measured id and the service it sells."""

    id: str
    service: ServiceType

    def __str__(self) -> str:
        return f"{self.service.value}:{self.id}"


@dataclass
class _Edges:
    """Dependency edges of one consumer (a website or a provider)."""

    uses: set[ProviderNode] = field(default_factory=set)
    critical: set[ProviderNode] = field(default_factory=set)


@dataclass(frozen=True)
class ProviderMetrics:
    """One provider's §2.2 numbers, direct and chain-following."""

    concentration: int
    impact: int
    direct_concentration: int
    direct_impact: int


_ZERO_METRICS = ProviderMetrics(0, 0, 0, 0)


class DependencyGraph:
    """Websites and providers with typed, criticality-annotated edges."""

    def __init__(self) -> None:
        self._website_edges: dict[str, _Edges] = {}
        self._provider_edges: dict[ProviderNode, _Edges] = {}
        self._providers: set[ProviderNode] = set()
        self.display_names: dict[ProviderNode, str] = {}
        # Reverse indexes: provider -> websites / consumer-providers. Kept
        # in sync by the add_* methods so the metric queries are O(degree).
        self._website_uses_of: dict[ProviderNode, set[str]] = {}
        self._website_critical_of: dict[ProviderNode, set[str]] = {}
        self._provider_uses_of: dict[ProviderNode, set[ProviderNode]] = {}
        self._provider_critical_of: dict[ProviderNode, set[ProviderNode]] = {}
        # Metric-engine cache: refreshed incrementally whenever _version
        # moves. _dirty holds the providers whose edge neighbourhood
        # mutated since the engine was last (re)built — the seed set for
        # MetricEngine.refreshed's dirty closure.
        self._version = 0
        self._engine: Optional[MetricEngine] = None
        self._engine_version = -1
        self._dirty: set[ProviderNode] = set()

    # -- construction -------------------------------------------------------

    def add_website(self, domain: str) -> None:
        self._version += 1
        self._website_edges.setdefault(domain, _Edges())

    def add_provider(self, node: ProviderNode, display: Optional[str] = None) -> None:
        self._version += 1
        if node not in self._providers:
            self._providers.add(node)
            self._dirty.add(node)
        self._provider_edges.setdefault(node, _Edges())
        if display:
            self.display_names[node] = display

    def add_website_dependency(
        self, domain: str, provider: ProviderNode, critical: bool
    ) -> None:
        """Record that ``domain`` uses ``provider`` (critically or not)."""
        self.add_website(domain)
        self.add_provider(provider)
        edges = self._website_edges[domain]
        edges.uses.add(provider)
        self._website_uses_of.setdefault(provider, set()).add(domain)
        self._dirty.add(provider)
        if critical:
            edges.critical.add(provider)
            self._website_critical_of.setdefault(provider, set()).add(domain)

    def add_provider_dependency(
        self, consumer: ProviderNode, provider: ProviderNode, critical: bool
    ) -> None:
        """Record an inter-service dependency (e.g. DigiCert → DNSMadeEasy)."""
        self.add_provider(consumer)
        self.add_provider(provider)
        edges = self._provider_edges[consumer]
        edges.uses.add(provider)
        self._provider_uses_of.setdefault(provider, set()).add(consumer)
        self._dirty.add(provider)
        if critical:
            edges.critical.add(provider)
            self._provider_critical_of.setdefault(provider, set()).add(consumer)

    # -- mutation (the incremental-analysis path) ---------------------------

    def remove_website(self, domain: str) -> None:
        """Drop a website and every edge it holds (a churned-out site)."""
        edges = self._website_edges.pop(domain, None)
        if edges is None:
            return
        self._version += 1
        for provider in edges.uses:
            self._website_uses_of.get(provider, set()).discard(domain)
            self._dirty.add(provider)
        for provider in edges.critical:
            self._website_critical_of.get(provider, set()).discard(domain)

    def remove_website_dependency(
        self, domain: str, provider: ProviderNode
    ) -> None:
        """Drop one website→provider edge (critical or not)."""
        edges = self._website_edges.get(domain)
        if edges is None or provider not in edges.uses:
            return
        self._version += 1
        edges.uses.discard(provider)
        edges.critical.discard(provider)
        self._website_uses_of.get(provider, set()).discard(domain)
        self._website_critical_of.get(provider, set()).discard(domain)
        self._dirty.add(provider)

    def remove_provider_dependency(
        self, consumer: ProviderNode, provider: ProviderNode
    ) -> None:
        """Drop one inter-service edge."""
        edges = self._provider_edges.get(consumer)
        if edges is None or provider not in edges.uses:
            return
        self._version += 1
        edges.uses.discard(provider)
        edges.critical.discard(provider)
        self._provider_uses_of.get(provider, set()).discard(consumer)
        self._provider_critical_of.get(provider, set()).discard(consumer)
        self._dirty.add(provider)

    def remove_provider(self, node: ProviderNode) -> None:
        """Drop a provider node and every edge touching it."""
        if node not in self._providers:
            return
        self._version += 1
        self._providers.discard(node)
        edges = self._provider_edges.pop(node, None) or _Edges()
        for used in edges.uses:
            self._provider_uses_of.get(used, set()).discard(node)
            self._provider_critical_of.get(used, set()).discard(node)
            self._dirty.add(used)
        for consumer in self._provider_uses_of.pop(node, set()):
            consumer_edges = self._provider_edges.get(consumer)
            if consumer_edges is not None:
                consumer_edges.uses.discard(node)
                consumer_edges.critical.discard(node)
        self._provider_critical_of.pop(node, None)
        for domain in self._website_uses_of.pop(node, set()):
            website_edges = self._website_edges.get(domain)
            if website_edges is not None:
                website_edges.uses.discard(node)
                website_edges.critical.discard(node)
        self._website_critical_of.pop(node, None)
        self.display_names.pop(node, None)
        self._dirty.discard(node)

    # -- introspection ------------------------------------------------------

    def websites(self) -> list[str]:
        return list(self._website_edges)

    def providers(self, service: Optional[ServiceType] = None) -> list[ProviderNode]:
        nodes = self._providers
        if service is not None:
            nodes = {n for n in nodes if n.service == service}
        return sorted(nodes, key=str)

    def display(self, node: ProviderNode) -> str:
        return self.display_names.get(node, node.id)

    def website_dependencies(self, domain: str, critical_only: bool = False) -> set[ProviderNode]:
        edges = self._website_edges.get(domain)
        if edges is None:
            return set()
        return set(edges.critical if critical_only else edges.uses)

    def provider_dependencies(
        self, node: ProviderNode, critical_only: bool = False
    ) -> set[ProviderNode]:
        edges = self._provider_edges.get(node)
        if edges is None:
            return set()
        return set(edges.critical if critical_only else edges.uses)

    def provider_consumers(
        self, provider: ProviderNode, critical_only: bool = False
    ) -> list[ProviderNode]:
        """Providers that depend on ``provider``."""
        index = (
            self._provider_critical_of if critical_only else self._provider_uses_of
        )
        return sorted(index.get(provider, ()), key=str)

    # -- the paper's metrics --------------------------------------------------

    def direct_dependents(
        self, provider: ProviderNode, critical_only: bool = False
    ) -> set[str]:
        """Websites with a direct edge to ``provider``."""
        index = (
            self._website_critical_of if critical_only else self._website_uses_of
        )
        return set(index.get(provider, ()))

    def metric_engine(self) -> MetricEngine:
        """The current batch engine.

        Built from scratch on first use; after mutations, refreshed
        incrementally from the previous engine — only the dirty closure
        is re-swept, clean providers' bitsets are carried over (see
        :meth:`MetricEngine.refreshed`). Equivalence with a fresh build
        is a tested invariant (``tests/test_graph_incremental.py``).
        """
        if self._engine_version != self._version:
            if self._engine is None:
                self._engine = MetricEngine(self)
            else:
                self._engine = MetricEngine.refreshed(
                    self, self._engine, self._dirty
                )
            self._engine_version = self._version
            self._dirty = set()
        return self._engine

    def dependent_websites(
        self, provider: ProviderNode, critical_only: bool = False
    ) -> set[str]:
        """The transitive dependent set (the union formulas of §2.2)."""
        return self.metric_engine().dependent_websites(provider, critical_only)

    def concentration(self, provider: ProviderNode) -> int:
        """C_p: websites directly or indirectly dependent on ``provider``."""
        return self.metric_engine().count(provider, critical_only=False)

    def impact(self, provider: ProviderNode) -> int:
        """I_p: websites directly or indirectly *critically* dependent."""
        return self.metric_engine().count(provider, critical_only=True)

    def direct_concentration(self, provider: ProviderNode) -> int:
        """C_p counting only website→provider edges (no inter-service)."""
        return len(self.direct_dependents(provider, critical_only=False))

    def direct_impact(self, provider: ProviderNode) -> int:
        return len(self.direct_dependents(provider, critical_only=True))

    def provider_metrics(
        self, service: Optional[ServiceType] = None
    ) -> dict[ProviderNode, ProviderMetrics]:
        """Batch API: every provider's C_p/I_p from one engine sweep.

        This is the preferred entry point for table/figure builders and
        failure models — it amortizes the whole metric computation over a
        single SCC-condensation pass instead of one traversal per query.
        """
        engine = self.metric_engine()
        concentrations = engine.counts(critical_only=False)
        impacts = engine.counts(critical_only=True)
        return {
            node: ProviderMetrics(
                concentration=concentrations.get(node, 0),
                impact=impacts.get(node, 0),
                direct_concentration=self.direct_concentration(node),
                direct_impact=self.direct_impact(node),
            )
            for node in self.providers(service)
        }

    def top_providers(
        self,
        service: ServiceType,
        k: int = 5,
        by: str = "impact",
        indirect: bool = True,
    ) -> list[tuple[ProviderNode, int]]:
        """The top-k providers of a service by impact or concentration."""
        if by not in ("impact", "concentration"):
            raise ValueError(f"unknown ranking: {by!r}")
        metrics = self.provider_metrics(service)
        attribute = by if indirect else f"direct_{by}"
        scores = [
            (node, getattr(node_metrics, attribute))
            for node, node_metrics in metrics.items()
        ]
        scores.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return scores[:k]

    def critical_dependency_count(self, domain: str) -> int:
        """How many distinct providers a website critically depends on,
        counting indirect critical chains (Section 8.1's per-website
        exposure metric)."""
        seen: set[ProviderNode] = set()
        frontier = list(self.website_dependencies(domain, critical_only=True))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            deps = self.provider_dependencies(node, critical_only=True)
            frontier.extend(deps - seen)  # repro: noqa[REP008] -- traversal order cannot change the visited set; only len(seen) is returned
        return len(seen)

    def __repr__(self) -> str:
        return (
            f"DependencyGraph({len(self._website_edges)} websites, "
            f"{len(self._providers)} providers)"
        )


def website_graph_edges(website) -> list[tuple[ProviderNode, bool]]:
    """The graph edges one classified website contributes.

    Only third-party website→provider edges become dependencies for DNS
    and CA; CDN edges include detected private CDNs (they are still
    distinct service entities whose own dependencies propagate — the
    twitter.com/twimg case), with criticality per the paper's rules.
    Shared between :func:`build_graph` and the incremental graph updater
    (:mod:`repro.core.incremental`).
    """
    from repro.core.classification import ProviderType  # local: avoid cycle

    edges: list[tuple[ProviderNode, bool]] = []
    dns = website.dns
    for provider_id in dns.provider_ids:
        third = provider_id in dns.third_party_provider_ids
        if not third:
            continue
        edges.append(
            (ProviderNode(provider_id, ServiceType.DNS), dns.is_critical)
        )
    ca = website.ca
    if ca.https and ca.ca_name:
        node = ProviderNode(ca.ca_name, ServiceType.CA)
        if ca.type == ProviderType.THIRD_PARTY:
            edges.append((node, ca.is_critical))
        else:
            # Private CA: not a third-party dependency itself, but a
            # conduit for indirect ones (godaddy.com → GoDaddy CA →
            # Akamai DNS). Usage edge only, critical when unstapled.
            edges.append((node, not ca.ocsp_stapled))
    for cdn in website.cdns:
        node = ProviderNode(cdn.cdn_name, ServiceType.CDN)
        edges.append((node, website.cdn_is_critical))
    return edges


def build_graph(
    websites: Iterable,  # list[ClassifiedWebsite]
    interservice_edges: Iterable[tuple[ProviderNode, ProviderNode, bool]] = (),
    display_names: Optional[dict[ProviderNode, str]] = None,
) -> DependencyGraph:
    """Assemble a graph from classified websites + inter-service edges."""
    graph = DependencyGraph()
    for website in websites:
        graph.add_website(website.domain)
        for provider, critical in website_graph_edges(website):
            graph.add_website_dependency(
                website.domain, provider, critical=critical
            )
    for consumer, provider, critical in interservice_edges:
        graph.add_provider_dependency(consumer, provider, critical)
    for node, display in (display_names or {}).items():
        graph.add_provider(node, display)
    return graph
