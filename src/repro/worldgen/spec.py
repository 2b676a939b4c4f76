"""Intermediate representation of a generated snapshot.

The generator first produces a :class:`SnapshotSpec` — pure data describing
who uses whom — and only then materializes it into live substrate objects.
Keeping the IR separate makes the 2016→2020 evolution a plain data
transformation and gives validation tests a ground truth to compare the
measurement pipeline against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

PRIVATE = "_private"

ProviderChoice = str  # a provider key, or PRIVATE


@dataclass
class DnsSetup:
    """A customer's authoritative-DNS arrangement.

    ``providers`` lists provider keys; :data:`PRIVATE` denotes self-hosted
    nameservers. It is kept as a tuple (any sequence is accepted), so a
    setup is changed by assigning a new one. ``soa_masked`` reproduces the
    trap in Section 3.1: many third-party-hosted zones carry the
    *provider's* SOA, which breaks the naive SOA-matching heuristic (e.g.
    twitter.com's SOA pointed to Dyn).
    """

    providers: tuple[ProviderChoice, ...] = (PRIVATE,)
    soa_masked: bool = True

    def __post_init__(self) -> None:
        self.providers = tuple(self.providers)
        if not self.providers:
            raise ValueError("a DNS setup needs at least one provider")
        if PRIVATE in self.providers:
            # A private leg means the zone's master is in-house, so the SOA
            # carries the owner's identity, not a provider's — which is also
            # what makes private+third redundancy measurable (Section 3.1).
            self.soa_masked = False

    @property
    def third_party_providers(self) -> list[str]:
        return [p for p in self.providers if p != PRIVATE]

    @property
    def uses_third_party(self) -> bool:
        return bool(self.third_party_providers)

    @property
    def has_private(self) -> bool:
        return PRIVATE in self.providers

    @property
    def is_redundant(self) -> bool:
        """More than one distinct provider (private counts as one)."""
        return len(set(self.providers)) > 1

    @property
    def is_critical(self) -> bool:
        """Exactly one third-party provider and nothing else."""
        return self.uses_third_party and not self.is_redundant

    def copy(self) -> "DnsSetup":
        return DnsSetup(self.providers, self.soa_masked)


@dataclass
class WebsiteSpec:
    """Ground truth for one website in one snapshot."""

    domain: str
    rank: int
    entity: str
    dns: DnsSetup = field(default_factory=DnsSetup)
    https: bool = False
    ca_key: Optional[ProviderChoice] = None  # PRIVATE = self-run CA
    ocsp_stapled: bool = False
    cdns: list[ProviderChoice] = field(default_factory=list)  # empty = none
    # GeoDNS CDN mappings: region -> CDN key. Clients in that region are
    # CNAMEd to a different CDN — invisible from the default vantage (the
    # paper's §3.5 single-vantage limitation, made measurable).
    regional_cdns: dict[str, ProviderChoice] = field(default_factory=dict)
    n_internal_resources: int = 3
    external_resource_domains: list[str] = field(default_factory=list)
    # Corner-case machinery (Section 3's heuristic traps):
    alias_sans: tuple[str, ...] = ()          # extra SAN entries (youtube→google)
    internal_alias_domain: Optional[str] = None  # yimg-style internal domain

    @property
    def uses_cdn(self) -> bool:
        return bool(self.cdns)

    @property
    def third_party_cdns(self) -> list[str]:
        return [c for c in self.cdns if c != PRIVATE]

    @property
    def cdn_is_critical(self) -> bool:
        """Exactly one CDN, and it is third-party (paper's Section 3.3)."""
        return len(set(self.cdns)) == 1 and bool(self.third_party_cdns)

    @property
    def ca_is_third_party(self) -> bool:
        return self.https and self.ca_key is not None and self.ca_key != PRIVATE

    @property
    def ca_is_critical(self) -> bool:
        """Third-party CA without OCSP stapling (Section 3.2)."""
        return self.ca_is_third_party and not self.ocsp_stapled

    def copy(self) -> "WebsiteSpec":
        return replace(
            self,
            dns=self.dns.copy(),
            cdns=list(self.cdns),
            regional_cdns=dict(self.regional_cdns),
            external_resource_domains=list(self.external_resource_domains),
        )


@dataclass
class DnsProviderSpec:
    """One managed-DNS provider in a snapshot."""

    key: str
    display: str
    entity: str
    ns_domains: tuple[str, ...]
    share_weight: float
    top_bias: float = 1.0
    secondary_rate: float = 0.05


@dataclass
class CdnSpec:
    """One CDN in a snapshot, including its own DNS arrangement."""

    key: str
    display: str
    entity: str
    cname_suffixes: tuple[str, ...]
    share_weight: float
    dns: DnsSetup = field(default_factory=DnsSetup)
    top_bias: float = 1.0
    redundancy_rate: float = 0.08

    def copy(self) -> "CdnSpec":
        return replace(self, dns=self.dns.copy())


@dataclass
class CaSpec:
    """One CA in a snapshot, including its DNS and CDN arrangements."""

    key: str
    display: str
    entity: str
    ocsp_host: str
    crl_host: str
    share_weight: float
    stapling_rate: float = 0.15
    dns: DnsSetup = field(default_factory=DnsSetup)
    cdn_key: Optional[ProviderChoice] = None  # None = no CDN
    # True when the chosen CDN belongs to the CA's own entity (Amazon Trust
    # Services on CloudFront) — used, not a third-party dependency.
    cdn_private: bool = False

    @property
    def uses_third_party_cdn(self) -> bool:
        return self.cdn_key is not None and not self.cdn_private

    def copy(self) -> "CaSpec":
        return replace(self, dns=self.dns.copy())


@dataclass
class SnapshotSpec:
    """A complete generated snapshot: the market plus every website."""

    year: int
    websites: list[WebsiteSpec]
    dns_providers: dict[str, DnsProviderSpec]
    cdns: dict[str, CdnSpec]
    cas: dict[str, CaSpec]

    def website_by_domain(self) -> dict[str, WebsiteSpec]:
        return {w.domain: w for w in self.websites}

    def summary(self) -> dict[str, int]:
        """Quick counts used by tests and examples."""
        return {
            "websites": len(self.websites),
            "dns_providers": len(self.dns_providers),
            "cdns": len(self.cdns),
            "cas": len(self.cas),
            "https_sites": sum(1 for w in self.websites if w.https),
            "cdn_sites": sum(1 for w in self.websites if w.uses_cdn),
        }
