"""The Section 3 classification heuristics (and their baselines).

Each heuristic is the paper's pseudocode, line for line:

* **DNS** (§3.1): TLD match → private; SAN match → private; SOA mismatch
  → third; concentration ≥ threshold → third; else unknown.
* **CA** (§3.2): TLD match → private; SAN match → private; SOA mismatch
  → third; else unknown (treated as private in aggregates — the
  conservative reading).
* **CDN** (§3.3): per CNAME, the same TLD → SAN → SOA ladder.

The TLD-only and SOA-only baselines the paper validates against are also
provided (``classify_nameserver_tld_only`` / ``..._soa_only``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.entitygroup import group_nameservers_by_entity, provider_id_for
from repro.measurement.records import (
    CdnObservation,
    DnsObservation,
    SoaIdentity,
    TlsObservation,
)
from repro.names.registrable import BaseOf, registrable_domain, tld

DEFAULT_CONCENTRATION_THRESHOLD = 50

SoaLookup = Callable[[str], Optional[SoaIdentity]]


class ProviderType(enum.Enum):
    PRIVATE = "private"
    THIRD_PARTY = "third-party"
    UNKNOWN = "unknown"


class ClassificationMethod(enum.Enum):
    """Which rung of the ladder decided."""

    TLD = "tld"
    SAN = "san"
    SOA = "soa"
    CONCENTRATION = "concentration"
    NONE = "none"


def _san_bases(san: tuple[str, ...], base_of: BaseOf) -> set[str]:
    """Registrable domains covered by a SAN list."""
    bases: set[str] = set()
    for entry in san:
        base = base_of(entry.lstrip("*."))
        if base:
            bases.add(base)
    return bases


# --------------------------------------------------------------------------
# DNS (Section 3.1)
# --------------------------------------------------------------------------

@dataclass
class NameserverClassification:
    nameserver: str
    type: ProviderType
    method: ClassificationMethod


@dataclass
class DnsClassification:
    """Classification of one website's DNS arrangement."""

    domain: str
    nameservers: list[NameserverClassification] = field(default_factory=list)
    # Same-entity groups (for redundancy), with the measured provider ids.
    entity_groups: list[list[str]] = field(default_factory=list)
    provider_ids: list[str] = field(default_factory=list)
    third_party_provider_ids: list[str] = field(default_factory=list)

    @property
    def characterized(self) -> bool:
        """No (website, nameserver) pair left unknown (paper excludes the
        rest — 18% of websites in their data)."""
        return bool(self.nameservers) and all(
            ns.type != ProviderType.UNKNOWN for ns in self.nameservers
        )

    @property
    def uses_third_party(self) -> bool:
        return bool(self.third_party_provider_ids)

    @property
    def has_private(self) -> bool:
        return any(
            ns.type == ProviderType.PRIVATE for ns in self.nameservers
        )

    @property
    def is_redundant(self) -> bool:
        """Multiple entities (two third parties, or third party + private)."""
        return len(self.entity_groups) > 1

    @property
    def is_critical(self) -> bool:
        """A single entity, and it is a third party."""
        return self.uses_third_party and not self.is_redundant

    @property
    def uses_multiple_third_parties(self) -> bool:
        return len(self.third_party_provider_ids) > 1


def classify_nameserver(
    domain: str,
    nameserver: str,
    website_soa: Optional[SoaIdentity],
    nameserver_soa: Optional[SoaIdentity],
    san: tuple[str, ...],
    concentration: int,
    threshold: int = DEFAULT_CONCENTRATION_THRESHOLD,
    base_of: BaseOf = registrable_domain,
) -> NameserverClassification:
    """The paper's combined DNS heuristic for one (website, NS) pair."""
    ns_base = base_of(nameserver)
    if ns_base == base_of(domain):
        return NameserverClassification(
            nameserver, ProviderType.PRIVATE, ClassificationMethod.TLD
        )
    if san and ns_base in _san_bases(san, base_of):
        return NameserverClassification(
            nameserver, ProviderType.PRIVATE, ClassificationMethod.SAN
        )
    if (
        website_soa is not None
        and nameserver_soa is not None
        and nameserver_soa != website_soa
    ):
        return NameserverClassification(
            nameserver, ProviderType.THIRD_PARTY, ClassificationMethod.SOA
        )
    if concentration >= threshold:
        return NameserverClassification(
            nameserver, ProviderType.THIRD_PARTY, ClassificationMethod.CONCENTRATION
        )
    return NameserverClassification(
        nameserver, ProviderType.UNKNOWN, ClassificationMethod.NONE
    )


def classify_nameserver_tld_only(domain: str, nameserver: str) -> ProviderType:
    """The TLD-matching baseline (97% accurate in the paper)."""
    if tld(nameserver) == tld(domain):
        return ProviderType.PRIVATE
    return ProviderType.THIRD_PARTY


def classify_nameserver_soa_only(
    website_soa: Optional[SoaIdentity], nameserver_soa: Optional[SoaIdentity]
) -> ProviderType:
    """The SOA-matching baseline (56% accurate in the paper — provider-
    masked SOAs make third parties look private)."""
    if website_soa is None or nameserver_soa is None:
        return ProviderType.UNKNOWN
    if website_soa == nameserver_soa:
        return ProviderType.PRIVATE
    return ProviderType.THIRD_PARTY


def classify_dns(
    observation: DnsObservation,
    san: tuple[str, ...],
    concentration_of: Callable[[str], int],
    threshold: int = DEFAULT_CONCENTRATION_THRESHOLD,
    base_of: BaseOf = registrable_domain,
) -> DnsClassification:
    """Classify a website's full nameserver set and group it by entity.

    ``concentration_of`` maps a nameserver's registrable domain to the
    number of websites it serves (computed in a first pass over the
    dataset, as the paper does).
    """
    result = DnsClassification(domain=observation.domain)
    for nameserver in observation.nameservers:
        base = base_of(nameserver) or nameserver
        result.nameservers.append(
            classify_nameserver(
                observation.domain,
                nameserver,
                observation.website_soa,
                observation.nameserver_soas.get(nameserver),
                san,
                concentration_of(base),
                threshold,
                base_of,
            )
        )
    result.entity_groups = group_nameservers_by_entity(
        observation.nameservers, observation.nameserver_soas, base_of
    )
    type_by_ns = {ns.nameserver: ns.type for ns in result.nameservers}
    for group in result.entity_groups:
        provider_id = provider_id_for(group, base_of)
        result.provider_ids.append(provider_id)
        if any(type_by_ns[ns] == ProviderType.THIRD_PARTY for ns in group):
            result.third_party_provider_ids.append(provider_id)
    return result


# --------------------------------------------------------------------------
# CA (Section 3.2)
# --------------------------------------------------------------------------

@dataclass
class CaClassification:
    """Classification of one website's certificate authority."""

    domain: str
    https: bool = False
    ca_name: str = ""
    ca_host: str = ""
    type: ProviderType = ProviderType.UNKNOWN
    method: ClassificationMethod = ClassificationMethod.NONE
    ocsp_stapled: bool = False

    @property
    def uses_third_party(self) -> bool:
        return self.type == ProviderType.THIRD_PARTY

    @property
    def is_critical(self) -> bool:
        """Third-party CA and no stapling: the user must reach the CA."""
        return self.uses_third_party and not self.ocsp_stapled


def classify_ca(
    tls: TlsObservation,
    website_soa: Optional[SoaIdentity],
    soa_lookup: SoaLookup,
    ca_name_for_host: Callable[[str], str],
    base_of: BaseOf = registrable_domain,
) -> CaClassification:
    """The paper's CA heuristic over the certificate's revocation URLs."""
    result = CaClassification(domain=tls.domain, https=tls.https)
    if not tls.https:
        return result
    result.ocsp_stapled = tls.ocsp_stapled
    hosts = tls.ca_hosts
    if not hosts:
        # No OCSP/CDP endpoints at all: self-contained (private) PKI.
        result.type = ProviderType.PRIVATE
        result.method = ClassificationMethod.NONE
        return result
    ca_host = hosts[0]
    result.ca_host = ca_host
    result.ca_name = ca_name_for_host(ca_host)
    ca_base = base_of(ca_host)
    if ca_base == base_of(tls.domain):
        result.type = ProviderType.PRIVATE
        result.method = ClassificationMethod.TLD
        return result
    if ca_base in _san_bases(tls.san, base_of):
        result.type = ProviderType.PRIVATE
        result.method = ClassificationMethod.SAN
        return result
    ca_soa = soa_lookup(ca_host)
    if ca_soa is not None and website_soa is not None and ca_soa != website_soa:
        result.type = ProviderType.THIRD_PARTY
        result.method = ClassificationMethod.SOA
        return result
    # Unknown: matching SOA identities imply one organization — the
    # conservative reading is private (Google Trust Services vs youtube.com).
    result.type = ProviderType.PRIVATE
    result.method = ClassificationMethod.SOA
    return result


def classify_ca_tld_only(tls: TlsObservation) -> ProviderType:
    """TLD-matching baseline for CAs (96% accurate in the paper)."""
    hosts = tls.ca_hosts
    if not tls.https:
        return ProviderType.UNKNOWN
    if not hosts:
        return ProviderType.PRIVATE
    if tld(hosts[0]) == tld(tls.domain):
        return ProviderType.PRIVATE
    return ProviderType.THIRD_PARTY


def classify_ca_soa_only(
    tls: TlsObservation,
    website_soa: Optional[SoaIdentity],
    soa_lookup: SoaLookup,
) -> ProviderType:
    """SOA-matching baseline for CAs (94% accurate in the paper)."""
    hosts = tls.ca_hosts
    if not tls.https:
        return ProviderType.UNKNOWN
    if not hosts:
        return ProviderType.PRIVATE
    ca_soa = soa_lookup(hosts[0])
    if ca_soa is None or website_soa is None:
        return ProviderType.UNKNOWN
    return (
        ProviderType.PRIVATE if ca_soa == website_soa else ProviderType.THIRD_PARTY
    )


# --------------------------------------------------------------------------
# CDN (Section 3.3)
# --------------------------------------------------------------------------

@dataclass
class CdnClassification:
    """Classification of one (website, CDN) pair."""

    domain: str
    cdn_name: str
    type: ProviderType = ProviderType.UNKNOWN
    method: ClassificationMethod = ClassificationMethod.NONE
    cnames: list[str] = field(default_factory=list)


def classify_cdn(
    observation: CdnObservation,
    san: tuple[str, ...],
    website_soa: Optional[SoaIdentity],
    soa_lookup: SoaLookup,
    base_of: BaseOf = registrable_domain,
) -> list[CdnClassification]:
    """The paper's CDN heuristic: per detected CDN, walk its CNAMEs
    through the TLD → SAN → SOA ladder."""
    results: list[CdnClassification] = []
    if not observation.detected_cdns:
        return results
    san_bases = _san_bases(san, base_of)
    site_base = base_of(observation.domain)
    for cdn_name, cnames in sorted(observation.detected_cdns.items()):
        result = CdnClassification(
            domain=observation.domain, cdn_name=cdn_name, cnames=list(cnames)
        )
        for cname in cnames:
            cname_base = base_of(cname)
            if cname_base == site_base:
                result.type = ProviderType.PRIVATE
                result.method = ClassificationMethod.TLD
                break
            if cname_base in san_bases:
                result.type = ProviderType.PRIVATE
                result.method = ClassificationMethod.SAN
                break
            cname_soa = soa_lookup(cname)
            if (
                cname_soa is not None
                and website_soa is not None
                and cname_soa != website_soa
            ):
                result.type = ProviderType.THIRD_PARTY
                result.method = ClassificationMethod.SOA
                break
        else:
            # Every CNAME shares the website's SOA: one organization.
            result.type = ProviderType.PRIVATE
            result.method = ClassificationMethod.SOA
        results.append(result)
    return results


def classify_cdn_tld_only(observation: CdnObservation) -> dict[str, ProviderType]:
    """TLD-matching baseline for CDNs (97% accurate in the paper)."""
    out: dict[str, ProviderType] = {}
    for cdn_name, cnames in observation.detected_cdns.items():
        if any(tld(c) == tld(observation.domain) for c in cnames):
            out[cdn_name] = ProviderType.PRIVATE
        else:
            out[cdn_name] = ProviderType.THIRD_PARTY
    return out


def classify_cdn_soa_only(
    observation: CdnObservation,
    website_soa: Optional[SoaIdentity],
    soa_lookup: SoaLookup,
) -> dict[str, ProviderType]:
    """SOA-matching baseline for CDNs (83% accurate in the paper)."""
    out: dict[str, ProviderType] = {}
    for cdn_name, cnames in observation.detected_cdns.items():
        verdict = ProviderType.UNKNOWN
        for cname in cnames:
            cname_soa = soa_lookup(cname)
            if cname_soa is None or website_soa is None:
                continue
            verdict = (
                ProviderType.PRIVATE
                if cname_soa == website_soa
                else ProviderType.THIRD_PARTY
            )
            break
        out[cdn_name] = verdict
    return out


# --------------------------------------------------------------------------
# Whole-website bundle
# --------------------------------------------------------------------------

@dataclass
class ClassifiedWebsite:
    """Everything the analysis needs about one website."""

    domain: str
    rank: int
    dns: DnsClassification
    ca: CaClassification
    cdns: list[CdnClassification] = field(default_factory=list)

    # -- CDN-level conveniences (paper Section 3.3 semantics) -------------

    @property
    def uses_cdn(self) -> bool:
        return bool(self.cdns)

    @property
    def third_party_cdns(self) -> list[str]:
        return [
            c.cdn_name for c in self.cdns if c.type == ProviderType.THIRD_PARTY
        ]

    @property
    def cdn_is_redundant(self) -> bool:
        return len({c.cdn_name for c in self.cdns}) > 1

    @property
    def cdn_is_critical(self) -> bool:
        """Exactly one CDN and it is third-party."""
        return (
            len({c.cdn_name for c in self.cdns}) == 1
            and bool(self.third_party_cdns)
        )
