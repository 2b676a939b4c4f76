"""Raw measurement records.

These hold exactly what the paper's scripts record from the network:
nameserver sets, SOA identities, certificates' SAN/AIA/CDP fields,
stapling flags, resource hostnames, and CNAME chains. Classification
happens later, in :mod:`repro.core.classification`.

Every record is a **frozen** dataclass and nothing more: its JSON form
is its fields, mapped by the one field-driven codec in
:mod:`repro.measurement.io`, which also adds the envelope (format
version, canonical key order). The codec refuses a record class that is
not frozen, or a field type it cannot convert, when it builds the class's
encoder and decoder; both come from the one field list, so a record can
never serialize fields it does not restore, or vice versa. Fields holding
containers are filled at construction time; the one sanctioned
post-construction mutation is *adding entries to container fields*
(e.g. the campaign appending websites to a ``Dataset``), which never
changes the field set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class SoaIdentity:
    """The (MNAME, RNAME) pair of an SOA — the paper's entity signal."""

    mname: str
    rname: str

    @classmethod
    def from_record(cls, soa) -> Optional["SoaIdentity"]:
        if soa is None:
            return None
        return cls(mname=soa.mname, rname=soa.rname)


@dataclass(frozen=True)
class DnsObservation:
    """What ``dig`` reveals about one website's DNS arrangement.

    ``attempts`` is the worst query-round count any step of the
    measurement needed, ``failure_mode`` the first operational failure
    encountered (empty when clean), and ``degraded`` whether the record
    was assembled despite such a failure — the graceful-degradation
    triple every observation carries as of wire format v3.
    """

    domain: str
    nameservers: list[str] = field(default_factory=list)
    website_soa: Optional[SoaIdentity] = None
    nameserver_soas: dict[str, Optional[SoaIdentity]] = field(default_factory=dict)
    resolvable: bool = False
    attempts: int = 1
    failure_mode: str = ""
    degraded: bool = False

    @property
    def characterizable(self) -> bool:
        return bool(self.nameservers)


@dataclass(frozen=True)
class TlsObservation:
    """What the TLS handshake reveals about one website."""

    domain: str
    https: bool = False
    san: tuple[str, ...] = ()
    issuer: str = ""
    ocsp_urls: tuple[str, ...] = ()
    crl_urls: tuple[str, ...] = ()
    ocsp_stapled: bool = False
    # SOA identity of each revocation endpoint host, measured alongside so
    # the dataset is self-contained for offline analysis.
    endpoint_soas: dict[str, Optional["SoaIdentity"]] = field(default_factory=dict)
    attempts: int = 1
    failure_mode: str = ""
    degraded: bool = False

    @property
    def ca_hosts(self) -> list[str]:
        """Hostnames of the revocation endpoints (OCSP first, then CDP)."""
        hosts: list[str] = []
        for url in (*self.ocsp_urls, *self.crl_urls):
            host = url.split("://", 1)[-1].split("/", 1)[0]
            if host not in hosts:
                hosts.append(host)
        return hosts


@dataclass(frozen=True)
class CdnObservation:
    """What the landing-page crawl + CNAME queries reveal about CDN use."""

    domain: str
    crawl_ok: bool = False
    resource_hostnames: list[str] = field(default_factory=list)
    internal_hostnames: list[str] = field(default_factory=list)
    cname_chains: dict[str, list[str]] = field(default_factory=dict)
    # CDN display-name -> the CNAMEs that revealed it.
    detected_cdns: dict[str, list[str]] = field(default_factory=dict)
    # SOA identity per observed CNAME/hostname (for offline classification).
    cname_soas: dict[str, Optional[SoaIdentity]] = field(default_factory=dict)
    attempts: int = 1
    failure_mode: str = ""
    degraded: bool = False


@dataclass(frozen=True)
class WebsiteMeasurement:
    """The complete raw measurement for one website."""

    domain: str
    rank: int
    dns: DnsObservation
    tls: TlsObservation
    cdn: CdnObservation


@dataclass(frozen=True)
class ProviderDnsObservation:
    """DNS measurements of a provider's own service domain (for the
    CDN→DNS and CA→DNS inter-service analyses)."""

    provider_name: str
    service_domain: str
    nameservers: list[str] = field(default_factory=list)
    domain_soa: Optional[SoaIdentity] = None
    nameserver_soas: dict[str, Optional[SoaIdentity]] = field(default_factory=dict)


@dataclass(frozen=True)
class RevocationEndpointObservation:
    """CNAME measurements of a CA's OCSP/CDP hosts (for CA→CDN)."""

    ca_name: str
    endpoint_hosts: list[str] = field(default_factory=list)
    cname_chains: dict[str, list[str]] = field(default_factory=dict)
    detected_cdns: dict[str, list[str]] = field(default_factory=dict)
    cname_soas: dict[str, Optional[SoaIdentity]] = field(default_factory=dict)


@dataclass(frozen=True)
class Dataset:
    """One snapshot's full measurement output.

    Frozen like every record: the campaign *fills* the container fields
    (appends websites, adds provider observations, writes notes) but
    never rebinds them.
    """

    year: int
    websites: list[WebsiteMeasurement] = field(default_factory=list)
    # Inter-service raw measurements, keyed by provider display name.
    cdn_dns: dict[str, ProviderDnsObservation] = field(default_factory=dict)
    ca_dns: dict[str, ProviderDnsObservation] = field(default_factory=dict)
    ca_cdn: dict[str, RevocationEndpointObservation] = field(default_factory=dict)
    # How many (website, nameserver) pairs resisted classification, etc.
    notes: dict[str, int] = field(default_factory=dict)

    def by_domain(self) -> dict[str, WebsiteMeasurement]:
        return {w.domain: w for w in self.websites}

    def top(self, k: int) -> list[WebsiteMeasurement]:
        """Measurements for the top-k websites by rank."""
        return [w for w in self.websites if w.rank <= k]
