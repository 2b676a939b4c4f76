"""The end-to-end analysis pipeline: dataset → classified snapshot.

``analyze_dataset`` is pure (no network): it replays the Section 3
heuristics over a frozen :class:`~repro.measurement.records.Dataset` and
assembles the dependency graph. ``repro.engine.analyze_world`` runs the
measurement campaign first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.classification import (
    CaClassification,
    ClassifiedWebsite,
    DnsClassification,
    ProviderType,
    classify_ca,
    classify_cdn,
    classify_dns,
)
from repro.core.graph import (
    DependencyGraph,
    ProviderMetrics,
    ProviderNode,
    ServiceType,
    build_graph,
)
from repro.measurement.records import (
    Dataset,
    DnsObservation,
    ProviderDnsObservation,
    RevocationEndpointObservation,
    SoaIdentity,
)
from repro.names.registrable import BaseOf, registrable_domain, registrable_memo
from repro.worldgen.world import World

DEFAULT_PAPER_THRESHOLD = 50


@dataclass
class CaCdnClassification:
    """Whether a CA uses a CDN for its revocation endpoints, and how."""

    ca_name: str
    uses_cdn: bool = False
    cdn_names: list[str] = field(default_factory=list)
    third_party: bool = False
    critical: bool = False  # every endpoint rides a single third-party CDN


@dataclass
class InterServiceClassifications:
    """Provider-level classifications (Section 5's raw material)."""

    cdn_dns: dict[str, DnsClassification] = field(default_factory=dict)
    ca_dns: dict[str, DnsClassification] = field(default_factory=dict)
    ca_cdn: dict[str, CaCdnClassification] = field(default_factory=dict)


@dataclass
class AnalyzedSnapshot:
    """Everything the tables/figures read for one snapshot."""

    year: int
    dataset: Dataset
    websites: list[ClassifiedWebsite]
    graph: DependencyGraph
    interservice: InterServiceClassifications
    # (consumer, provider, critical) triples, kept so figures can rebuild
    # graphs restricted to one dependency type (Figures 7-9).
    interservice_edges: list[tuple[ProviderNode, ProviderNode, bool]] = field(
        default_factory=list
    )
    dns_display_names: dict[str, str] = field(default_factory=dict)
    rank_scale: float = 1.0
    concentration_threshold: int = DEFAULT_PAPER_THRESHOLD

    def restricted_graph(
        self, kinds: tuple[str, ...] = ()
    ) -> DependencyGraph:
        """A graph with only the requested inter-service edge kinds.

        ``kinds`` ⊆ {"cdn-dns", "ca-dns", "ca-cdn"}; empty = direct only.
        """
        wanted: list[tuple[ProviderNode, ProviderNode, bool]] = []
        for consumer, provider, critical in self.interservice_edges:
            kind = f"{consumer.service.value}-{provider.service.value}"
            if kind in kinds:
                wanted.append((consumer, provider, critical))
        display = {
            ProviderNode(base, ServiceType.DNS): name
            for base, name in self.dns_display_names.items()
        }
        return build_graph(self.websites, wanted, display)

    def by_domain(self) -> dict[str, ClassifiedWebsite]:
        return {w.domain: w for w in self.websites}

    def provider_metrics(
        self, service: Optional[ServiceType] = None
    ) -> dict[ProviderNode, ProviderMetrics]:
        """Batch C_p/I_p for every provider — one SCC-engine sweep serves
        every table, figure, and failure model reading this snapshot."""
        return self.graph.provider_metrics(service)

    @property
    def dns_characterized(self) -> list[ClassifiedWebsite]:
        return [w for w in self.websites if w.dns.characterized]

    @property
    def https_websites(self) -> list[ClassifiedWebsite]:
        return [w for w in self.websites if w.ca.https]

    @property
    def cdn_websites(self) -> list[ClassifiedWebsite]:
        return [w for w in self.websites if w.uses_cdn]


def _nameserver_bases(
    *datasets: Dataset, base_of: BaseOf = registrable_domain
) -> dict[int, tuple[str, ...]]:
    """Each record's distinct nameserver registrable domains, first-seen order.

    Keyed by record identity: across timeline epochs the datasets share
    the record objects of unchanged sites, so a record shared by several
    datasets is walked once.
    """
    bases: dict[int, tuple[str, ...]] = {}
    for dataset in datasets:
        for website in dataset.websites:
            if id(website) not in bases:
                bases[id(website)] = tuple(dict.fromkeys(
                    base_of(nameserver) or nameserver
                    for nameserver in website.dns.nameservers
                ))
    return bases


def _nameserver_concentrations(
    dataset: Dataset, bases: Optional[dict[int, tuple[str, ...]]] = None
) -> dict[str, int]:
    """First pass: websites served per nameserver registrable domain.

    ``bases`` is a :func:`_nameserver_bases` map covering ``dataset``.
    """
    if bases is None:
        bases = _nameserver_bases(dataset)
    counts: dict[str, int] = {}
    for website in dataset.websites:
        for base in bases[id(website)]:
            counts[base] = counts.get(base, 0) + 1
    return counts


def _endpoint_ca_names(dataset: Dataset) -> dict[str, str]:
    """host → CA display name, from the inter-service observations."""
    mapping: dict[str, str] = {}
    for name, observation in dataset.ca_cdn.items():
        for host in observation.endpoint_hosts:
            mapping[host] = name
    return mapping


def _classify_provider_dns(
    observation: ProviderDnsObservation,
    concentration_of: Callable[[str], int],
    threshold: int,
    base_of: BaseOf,
) -> DnsClassification:
    """Run the DNS heuristic on a provider's own service domain."""
    as_dns_obs = DnsObservation(
        domain=observation.service_domain,
        nameservers=list(observation.nameservers),
        website_soa=observation.domain_soa,
        nameserver_soas=dict(observation.nameserver_soas),
    )
    return classify_dns(
        as_dns_obs, san=(), concentration_of=concentration_of,
        threshold=threshold, base_of=base_of,
    )


def _classify_ca_cdn(
    observation: RevocationEndpointObservation,
    ca_domain_soa: Optional[SoaIdentity],
    base_of: BaseOf,
) -> CaCdnClassification:
    """CA→CDN: third-party when the endpoint CNAMEs belong to another
    entity; critical when every endpoint fronts through one such CDN."""
    result = CaCdnClassification(ca_name=observation.ca_name)
    if not observation.detected_cdns:
        return result
    result.uses_cdn = True
    result.cdn_names = sorted(observation.detected_cdns)
    ca_base = None
    if observation.endpoint_hosts:
        ca_base = base_of(observation.endpoint_hosts[0])
    for cdn_name, cnames in observation.detected_cdns.items():
        for cname in cnames:
            if base_of(cname) == ca_base:
                continue  # own edge names: private CDN
            cname_soa = observation.cname_soas.get(cname)
            if (
                cname_soa is not None
                and ca_domain_soa is not None
                and cname_soa == ca_domain_soa
            ):
                continue  # same DNS identity: same organization
            result.third_party = True
    hosts_fronted = sum(
        1 for host in observation.endpoint_hosts
        if observation.cname_chains.get(host)
    )
    result.critical = (
        result.third_party
        and len(result.cdn_names) == 1
        and hosts_fronted == len(observation.endpoint_hosts)
    )
    return result


def classify_website(
    measurement,
    concentration_of: Callable[[str], int],
    threshold: int,
    ca_names: dict[str, str],
    base_of: BaseOf = registrable_domain,
) -> ClassifiedWebsite:
    """Classify one website measurement — the per-site unit of work.

    Shared between the batch pass (:func:`analyze_dataset`) and the
    incremental one (:func:`repro.core.incremental.refresh_snapshot`);
    a site's classification depends on nothing beyond the arguments here,
    which is what makes per-site reuse sound. ``base_of`` only changes
    how often a name's registrable domain is derived, never its value.
    """
    tls = measurement.tls
    dns_classification = classify_dns(
        measurement.dns,
        san=tls.san,
        concentration_of=concentration_of,
        threshold=threshold,
        base_of=base_of,
    )
    ca_classification = classify_ca(
        tls,
        website_soa=measurement.dns.website_soa,
        soa_lookup=lambda host, _t=tls: _t.endpoint_soas.get(host),
        ca_name_for_host=lambda host: (
            ca_names[host] if host in ca_names else base_of(host) or host
        ),
        base_of=base_of,
    )
    cdn_classifications = classify_cdn(
        measurement.cdn,
        san=tls.san,
        website_soa=measurement.dns.website_soa,
        soa_lookup=lambda name, _c=measurement.cdn: _c.cname_soas.get(name),
        base_of=base_of,
    )
    return ClassifiedWebsite(
        domain=measurement.domain,
        rank=measurement.rank,
        dns=dns_classification,
        ca=ca_classification,
        cdns=cdn_classifications,
    )


def classify_interservice(
    dataset: Dataset,
    concentration_of: Callable[[str], int],
    threshold: int,
    base_of: BaseOf = registrable_domain,
) -> tuple[
    InterServiceClassifications,
    list[tuple[ProviderNode, ProviderNode, bool]],
]:
    """Provider-level classifications plus the graph edges they imply."""
    interservice = InterServiceClassifications()
    for name, observation in dataset.cdn_dns.items():
        interservice.cdn_dns[name] = _classify_provider_dns(
            observation, concentration_of, threshold, base_of
        )
    for name, observation in dataset.ca_dns.items():
        interservice.ca_dns[name] = _classify_provider_dns(
            observation, concentration_of, threshold, base_of
        )
    for name, observation in dataset.ca_cdn.items():
        ca_soa = dataset.ca_dns.get(name)
        interservice.ca_cdn[name] = _classify_ca_cdn(
            observation, ca_soa.domain_soa if ca_soa else None, base_of
        )

    edges: list[tuple[ProviderNode, ProviderNode, bool]] = []
    for name, classification in interservice.cdn_dns.items():
        consumer = ProviderNode(name, ServiceType.CDN)
        for provider_id in classification.third_party_provider_ids:
            edges.append(
                (
                    consumer,
                    ProviderNode(provider_id, ServiceType.DNS),
                    classification.is_critical,
                )
            )
    for name, classification in interservice.ca_dns.items():
        consumer = ProviderNode(name, ServiceType.CA)
        for provider_id in classification.third_party_provider_ids:
            edges.append(
                (
                    consumer,
                    ProviderNode(provider_id, ServiceType.DNS),
                    classification.is_critical,
                )
            )
    for name, classification in interservice.ca_cdn.items():
        if not classification.third_party:
            continue
        consumer = ProviderNode(name, ServiceType.CA)
        for cdn_name in classification.cdn_names:
            edges.append(
                (
                    consumer,
                    ProviderNode(cdn_name, ServiceType.CDN),
                    classification.critical,
                )
            )
    return interservice, edges


def analyze_dataset(
    dataset: Dataset,
    rank_scale: float = 1.0,
    concentration_threshold: Optional[int] = None,
    dns_display_names: Optional[dict[str, str]] = None,
) -> AnalyzedSnapshot:
    """Classify every website and provider, then build the graph.

    ``concentration_threshold`` defaults to the paper's 50, scaled by
    ``rank_scale`` (a downscaled world has proportionally fewer customers
    per provider). Each name's registrable domain is derived once per
    call, through a memo that dies with it.
    """
    if concentration_threshold is None:
        concentration_threshold = max(
            2, round(DEFAULT_PAPER_THRESHOLD / rank_scale)
        )
    base_of = registrable_memo()
    concentrations = _nameserver_concentrations(
        dataset, _nameserver_bases(dataset, base_of=base_of)
    )
    concentration_of = lambda base: concentrations.get(base, 0)  # noqa: E731
    ca_names = _endpoint_ca_names(dataset)

    websites = [
        classify_website(
            measurement, concentration_of, concentration_threshold, ca_names,
            base_of,
        )
        for measurement in dataset.websites
    ]
    interservice, edges = classify_interservice(
        dataset, concentration_of, concentration_threshold, base_of
    )

    display_names = {}
    for base, display in (dns_display_names or {}).items():
        display_names[ProviderNode(base, ServiceType.DNS)] = display
    graph = build_graph(websites, edges, display_names)
    return AnalyzedSnapshot(
        year=dataset.year,
        dataset=dataset,
        websites=websites,
        graph=graph,
        interservice=interservice,
        interservice_edges=edges,
        dns_display_names=dict(dns_display_names or {}),
        rank_scale=rank_scale,
        concentration_threshold=concentration_threshold,
    )


def dns_display_directory(world: World) -> dict[str, str]:
    """Public map: nameserver registrable domain → provider display name."""
    directory: dict[str, str] = {}
    for provider in world.spec.dns_providers.values():
        for ns_domain in provider.ns_domains:
            base = registrable_domain(ns_domain) or ns_domain
            directory[base] = provider.display
    return directory

