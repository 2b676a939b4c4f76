"""Materialization: turning a :class:`SnapshotSpec` into live substrates.

Builds the full stack the measurement pipeline probes:

* a DNS tree (root → TLDs → provider/website/CDN/CA zones with delegations,
  glue, provider-masked SOAs),
* HTTP origin servers with rendered landing pages and TLS chains,
* CDN edge fabrics with wildcard edge zones and customer CNAMEs,
* CA OCSP/CRL endpoints — optionally CNAMEd onto CDNs (the paper's CA→CDN
  dependency) and hosted on third-party DNS (CA→DNS).

Ground truth never leaks into the materialized world except through
observable artifacts (names, SOAs, SANs, CNAMEs) — the measurement pipeline
has to *infer* it back, exactly like the paper.

Records are values, and a build shares them: the :class:`Materializer`
keeps one A, NS and SOA rdata per value and one resource record per (owner,
A or NS value), and adds them through :meth:`Zone._add_rr`, so a glue
record in a TLD zone is the object its own zone holds. The tables live on
the materializer and die with it; two builds share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.dnssim.network import DnsNetwork
from repro.dnssim.records import (
    ARecord,
    CNAMERecord,
    NSRecord,
    RData,
    ResourceRecord,
    RRType,
    SOARecord,
)
from repro.dnssim.server import AuthoritativeServer
from repro.dnssim.zone import DEFAULT_TTL, Zone
from repro.names.psl import icann_psl
from repro.names.registrable import registrable_domain
from repro.tlssim.ca import CertificateAuthority, IssuancePolicy
from repro.tlssim.certificate import CertificateChain
from repro.tlssim.validation import TrustStore
from repro.websim.cdn import CdnProvider
from repro.websim.http import HttpFabric, HttpServer, VirtualHost
from repro.websim.page import PageBuilder, Resource, WebPage
from repro.worldgen.spec import (
    PRIVATE,
    CaSpec,
    CdnSpec,
    DnsProviderSpec,
    SnapshotSpec,
    WebsiteSpec,
)

#: The simulated time a world is built at: certificates are issued then,
#: and every vantage's clock starts there.
BUILD_TIME = 1_000_000.0

_TLD_SERVER_NAME = "a.gtld-servers.net"
_ROOT_SERVER_NAME = "a.root-servers.net"


#: Every A record here points at an :class:`IpAllocator` address, a
#: well-formed dotted quad, so it is built without re-validation.
_a_record = ARecord._make

_A = int(RRType.A)
_NS = int(RRType.NS)


class IpAllocator:
    """Sequential 10.0.0.0/8 address allocation."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> str:
        value = self._next
        self._next += 1
        if value >= 1 << 24:
            raise RuntimeError("IP space exhausted")
        return f"10.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


@dataclass
class DnsHostingInfra:
    """A set of nameservers able to host customer zones."""

    key: str
    entity: str
    ns_hostnames: tuple[str, ...]
    servers: tuple[AuthoritativeServer, ...]
    primary_ns_domain: str  # e.g. "ns.cloudflare.com"

    @property
    def soa_identity(self) -> tuple[str, str]:
        """(mname, rname) this operator stamps on zones it masks."""
        base = (
            registrable_domain(self.primary_ns_domain, icann_psl())
            or self.primary_ns_domain
        )
        return (f"ns1.{self.primary_ns_domain}", f"hostmaster.{base}")

    def host(self, zone: Zone) -> None:
        for server in self.servers:
            server.serve_zone(zone)


@dataclass
class CdnInfra:
    """One materialized CDN."""

    spec: CdnSpec
    provider: CdnProvider
    edge_server: HttpServer
    dns_infras: tuple[DnsHostingInfra, ...]


@dataclass
class CaInfra:
    """One materialized CA."""

    spec: CaSpec
    ca: CertificateAuthority
    service_server: Optional[HttpServer]
    dns_infras: tuple[DnsHostingInfra, ...]


@dataclass
class WebsiteInfra:
    """One materialized website."""

    spec: WebsiteSpec
    zone: Zone
    origin_server: HttpServer
    chain: Optional[CertificateChain] = None
    issuing_ca: Optional[CertificateAuthority] = None
    landing_hosts: tuple[str, ...] = ()
    resource_hosts: tuple[str, ...] = ()
    dns_infras: tuple[DnsHostingInfra, ...] = ()


@dataclass
class MaterializedWorld:
    """Everything :class:`repro.worldgen.world.World` wraps."""

    spec: SnapshotSpec
    dns_network: DnsNetwork
    http_fabric: HttpFabric
    trust_store: TrustStore
    root_hints: dict[str, str]
    dns_infra: dict[str, DnsHostingInfra]
    cdn_infra: dict[str, CdnInfra]
    ca_infra: dict[str, CaInfra]
    website_infra: dict[str, WebsiteInfra]
    external_servers: dict[str, HttpServer]


class Materializer:
    """Single-use builder turning one spec into a materialized world."""

    def __init__(self, spec: SnapshotSpec):
        self.spec = spec
        self.ip = IpAllocator()
        self.dns_network = DnsNetwork()
        self.http_fabric = HttpFabric()
        self.trust_store = TrustStore()
        self.psl = icann_psl()  # the DNS tree is organized by ICANN suffixes
        self._tld_zones: dict[str, Zone] = {}
        self._zones: dict[str, Zone] = {}
        self._dns_infra: dict[str, DnsHostingInfra] = {}
        self._cdn_infra: dict[str, CdnInfra] = {}
        self._ca_infra: dict[str, CaInfra] = {}
        self._website_infra: dict[str, WebsiteInfra] = {}
        self._external_servers: dict[str, HttpServer] = {}
        self._page_builder = PageBuilder()
        self.root_hints: dict[str, str] = {}
        self._tld_server: Optional[AuthoritativeServer] = None
        self._root_zone: Optional[Zone] = None
        self._entity_primary_domain: dict[str, str] = {}
        # Shared values: rdata by (type, value), A and NS records by
        # (owner, type, value), SOA rdata by (mname, rname).
        self._rdata: dict[tuple[int, str], RData] = {}
        self._records: dict[tuple[str, int, str], ResourceRecord] = {}
        self._soas: dict[tuple[str, str], SOARecord] = {}
        self._infra_sets: dict[tuple[str, ...], tuple[DnsHostingInfra, ...]] = {}

    # -- shared record values --------------------------------------------------

    def _add_a(self, zone: Zone, name: str, address: str) -> None:
        zone._add_rr(self._record(name, _A, address))

    def _add_ns(self, zone: Zone, name: str, nsdname: str) -> None:
        zone._add_rr(self._record(name, _NS, nsdname))

    def _record(self, name: str, rrtype: int, value: str) -> ResourceRecord:
        """The build's one ``name`` record of an A address or NS target."""
        key = (name, rrtype, value)
        rr = self._records.get(key)
        if rr is None:
            rdata = self._rdata.get((rrtype, value))
            if rdata is None:
                rdata = _a_record(value) if rrtype == _A else NSRecord(value)
                self._rdata[(rrtype, value)] = rdata
            rr = self._records[key] = ResourceRecord(name, DEFAULT_TTL, rdata)
        return rr

    def _soa(self, identity: tuple[str, str]) -> SOARecord:
        """The build's one SOA rdata for an (mname, rname) identity."""
        soa = self._soas.get(identity)
        if soa is None:
            soa = self._soas[identity] = SOARecord(*identity)
        return soa

    # -- top-level ----------------------------------------------------------

    def build(self) -> MaterializedWorld:
        self._build_root()
        self._index_entities()
        for provider in self.spec.dns_providers.values():
            self._build_dns_provider(provider)
        for cdn in self.spec.cdns.values():
            self._build_cdn(cdn)
        for ca in self.spec.cas.values():
            self._build_ca(ca)
        self._build_external_content_servers()
        for website in self.spec.websites:
            self._build_website(website)
        return MaterializedWorld(
            spec=self.spec,
            dns_network=self.dns_network,
            http_fabric=self.http_fabric,
            trust_store=self.trust_store,
            root_hints=self.root_hints,
            dns_infra=self._dns_infra,
            cdn_infra=self._cdn_infra,
            ca_infra=self._ca_infra,
            website_infra=self._website_infra,
            external_servers=self._external_servers,
        )

    # -- the DNS tree -------------------------------------------------------

    def _build_root(self) -> None:
        root_ip = self.ip.allocate()
        tld_ip = self.ip.allocate()
        self._root_zone = Zone(
            "", self._soa((_ROOT_SERVER_NAME, "nstld.verisign-grs.com"))
        )
        root_server = AuthoritativeServer(
            _ROOT_SERVER_NAME, [root_ip], operator="iana"
        )
        root_server.serve_zone(self._root_zone)
        self.dns_network.register_server(root_server)
        self.root_hints = {_ROOT_SERVER_NAME: root_ip}
        self._tld_server = AuthoritativeServer(
            _TLD_SERVER_NAME, [tld_ip], operator="registry"
        )
        self.dns_network.register_server(self._tld_server)
        self._add_a(self._root_zone, _ROOT_SERVER_NAME, root_ip)

    def _tld_zone(self, suffix: str) -> Zone:
        zone = self._tld_zones.get(suffix)
        if zone is None:
            zone = Zone(suffix, self._soa((_TLD_SERVER_NAME, "registry.iana.org")))
            self._tld_zones[suffix] = zone
            assert self._tld_server is not None and self._root_zone is not None
            self._tld_server.serve_zone(zone)
            self._add_ns(self._root_zone, suffix, _TLD_SERVER_NAME)
            self._add_a(self._root_zone, _TLD_SERVER_NAME, self._tld_server.ips[0])
        return zone

    def _delegate(self, domain: str, infras: tuple[DnsHostingInfra, ...]) -> None:
        """Register ``domain``'s delegation in its TLD zone, with glue for
        in-bailiwick nameservers."""
        suffix = self.psl.public_suffix(domain)
        if suffix is None or suffix == domain:
            raise ValueError(f"cannot delegate a bare public suffix: {domain!r}")
        tld_zone = self._tld_zone(suffix)
        for infra in infras:
            for ns_hostname in infra.ns_hostnames:
                self._add_ns(tld_zone, domain, ns_hostname)
                if ns_hostname == domain or ns_hostname.endswith("." + domain):
                    for server in infra.servers:
                        if server.name == ns_hostname:
                            for ip in server.ips:
                                self._add_a(tld_zone, ns_hostname, ip)

    def _new_zone(
        self,
        origin: str,
        infras: tuple[DnsHostingInfra, ...],
        soa_identity: Optional[tuple[str, str]] = None,
    ) -> Zone:
        """Create a zone, host it on ``infras``, delegate it, add NS rrset.

        If the zone already exists (a redundant setup's private leg built it
        first), the remaining infras are attached to it instead.
        """
        existing = self._zones.get(origin)
        if existing is not None:
            for infra in infras:
                for ns_hostname in infra.ns_hostnames:
                    self._add_ns(existing, origin, ns_hostname)
                infra.host(existing)
            self._delegate(origin, infras)
            return existing
        if soa_identity is None:
            soa_identity = (f"ns1.{origin}", f"hostmaster.{origin}")
        zone = Zone(origin, self._soa(soa_identity))
        for infra in infras:
            for ns_hostname in infra.ns_hostnames:
                self._add_ns(zone, origin, ns_hostname)
            infra.host(zone)
        self._delegate(origin, infras)
        self._zones[origin] = zone
        return zone

    # -- DNS hosting infrastructures -----------------------------------------

    def _make_hosting_infra(
        self,
        key: str,
        entity: str,
        ns_domains: tuple[str, ...],
        operator: str,
        apex_ns: bool = True,
        delegate: bool = True,
    ) -> DnsHostingInfra:
        """Build nameserver hosts + self-hosted zones for an operator.

        ``apex_ns=False`` keeps the infra's NS hostnames out of its base
        zone's apex NS rrset (private infra under a website domain must not
        make the website look self-hosted); ``delegate=False`` defers the
        TLD delegation to whoever consumes the zone.
        """
        servers: list[AuthoritativeServer] = []
        ns_hostnames: list[str] = []
        for ns_domain in ns_domains:
            for label in ("ns1", "ns2"):
                hostname = f"{label}.{ns_domain}"
                server = AuthoritativeServer(
                    hostname, [self.ip.allocate()], operator=operator
                )
                self.dns_network.register_server(server)
                servers.append(server)
                ns_hostnames.append(hostname)
        infra = DnsHostingInfra(
            key=key,
            entity=entity,
            ns_hostnames=tuple(ns_hostnames),
            servers=tuple(servers),
            primary_ns_domain=ns_domains[0],
        )
        # Self-hosted zones for each ns_domain's registrable domain, all
        # carrying the operator's shared SOA identity (alicdn.com and
        # alibabadns.com share an MNAME — the Section 3.1 entity signal).
        soa = self._soa(infra.soa_identity)
        for ns_domain in ns_domains:
            base = registrable_domain(ns_domain, icann_psl()) or ns_domain
            zone = self._zones.get(base)
            if zone is None:
                zone = Zone(base, soa)
                self._zones[base] = zone
                if delegate:
                    self._delegate(base, (infra,))
            if apex_ns:
                for ns_hostname in infra.ns_hostnames:
                    self._add_ns(zone, base, ns_hostname)
            infra.host(zone)
            for server in servers:
                if server.name.endswith("." + base) or server.name == base:
                    for ip_addr in server.ips:
                        self._add_a(zone, server.name, ip_addr)
        return infra

    def _build_dns_provider(self, provider: DnsProviderSpec) -> None:
        infra = self._make_hosting_infra(
            provider.key, provider.entity, provider.ns_domains, provider.entity
        )
        self._dns_infra[provider.key] = infra

    def _private_infra_for(self, owner_key: str, entity: str, base_domain: str) -> DnsHostingInfra:
        """Own-branded nameservers for an entity (ns1.dns.<base_domain>...).

        Apex NS records and the TLD delegation are left to the consumers:
        a website with this infra in its setup gets them via ``_new_zone``,
        so a CA's private infra never makes its entity's website look
        self-hosted when it is not.
        """
        key = f"_private:{owner_key}"
        infra = self._dns_infra.get(key)
        if infra is None:
            infra = self._make_hosting_infra(
                key, entity, (f"dns.{base_domain}",), entity,
                apex_ns=False, delegate=False,
            )
            self._dns_infra[key] = infra
        return infra

    def _index_entities(self) -> None:
        """Map entities to their highest-ranked domain (for alias NS names)."""
        for website in sorted(self.spec.websites, key=lambda w: w.rank):
            self._entity_primary_domain.setdefault(website.entity, website.domain)

    def _infras_for_setup(
        self, providers: tuple[str, ...], owner_key: str, entity: str, base_domain: str
    ) -> tuple[DnsHostingInfra, ...]:
        """Resolve a DnsSetup's provider keys to hosting infrastructures.

        PRIVATE resolves to the entity's own nameservers: the ones under
        its primary website domain when the entity runs a website (so
        ocsp.pki.goog ends up on ns1.google.com, sharing Google's SOA
        identity — the signal that rescues the heuristics), otherwise
        own-branded nameservers under ``base_domain``.
        """
        infras: list[DnsHostingInfra] = []
        for provider in providers:
            if provider == PRIVATE:
                entity_domain = self._entity_primary_domain.get(entity)
                if entity_domain is not None:
                    infras.append(
                        self._private_infra_for(
                            f"site:{entity}", entity, entity_domain
                        )
                    )
                else:
                    infras.append(
                        self._private_infra_for(owner_key, entity, base_domain)
                    )
            else:
                infras.append(self._dns_infra[provider])
        # Sites on the same providers share one tuple.
        shared = tuple(infras)
        return self._infra_sets.setdefault(
            tuple(infra.key for infra in shared), shared
        )

    # -- CDNs ----------------------------------------------------------------

    def _build_cdn(self, cdn: CdnSpec) -> None:
        edge_ips = [self.ip.allocate(), self.ip.allocate()]
        edge_server = HttpServer(
            f"edge.{cdn.cname_suffixes[0]}", edge_ips, operator=cdn.entity
        )
        self.http_fabric.register_server(edge_server)
        provider = CdnProvider(
            name=cdn.display,
            operator=cdn.entity,
            cname_suffixes=list(cdn.cname_suffixes),
            edge_server=edge_server,
        )
        base_domain = (
            registrable_domain(cdn.cname_suffixes[0], icann_psl())
            or cdn.cname_suffixes[0]
        )
        infras = self._infras_for_setup(
            cdn.dns.providers, f"cdn:{cdn.key}", cdn.entity, base_domain
        )
        # Private zones carry the operating entity's SOA identity; zones on
        # third-party DNS carry the provider's when masked, their own when
        # not (the amazon.com pattern).
        mask = (
            None
            if (cdn.dns.uses_third_party and not cdn.dns.soa_masked)
            else infras[0].soa_identity
        )
        for suffix in cdn.cname_suffixes:
            origin = registrable_domain(suffix, icann_psl()) or suffix
            # _new_zone attaches NS records and the TLD delegation even when
            # the private-leg infra pre-created the zone object.
            zone = self._new_zone(origin, infras, soa_identity=mask)
            self._add_a(zone, f"*.{suffix}", edge_ips[0])
            self._add_a(zone, f"*.{suffix}", edge_ips[1])
            if suffix != origin:
                self._add_a(zone, suffix, edge_ips[0])
        self._cdn_infra[cdn.key] = CdnInfra(
            spec=cdn, provider=provider, edge_server=edge_server, dns_infras=infras
        )

    # -- CAs ------------------------------------------------------------------

    def _build_ca(self, ca_spec: CaSpec) -> None:
        ca = CertificateAuthority(
            name=ca_spec.display,
            operator=ca_spec.entity,
            ocsp_host=ca_spec.ocsp_host,
            crl_host=ca_spec.crl_host,
            now=BUILD_TIME,
        )
        self.trust_store.add(ca.root)
        service_server = HttpServer(
            f"svc.{ca_spec.ocsp_host}", [self.ip.allocate()], operator=ca_spec.entity
        )
        self.http_fabric.register_server(service_server)
        base_domain = (
            registrable_domain(ca_spec.ocsp_host, icann_psl()) or ca_spec.ocsp_host
        )
        infras = self._infras_for_setup(
            ca_spec.dns.providers, f"ca:{ca_spec.key}", ca_spec.entity, base_domain
        )
        mask = (
            None
            if (ca_spec.dns.uses_third_party and not ca_spec.dns.soa_masked)
            else infras[0].soa_identity
        )
        zone = self._new_zone(base_domain, infras, soa_identity=mask)
        crl_base = (
            registrable_domain(ca_spec.crl_host, icann_psl()) or ca_spec.crl_host
        )
        crl_zone = zone
        if crl_base != base_domain:
            crl_zone = self._new_zone(crl_base, infras, soa_identity=mask)

        if ca_spec.cdn_key is not None and ca_spec.cdn_key in self._cdn_infra:
            cdn = self._cdn_infra[ca_spec.cdn_key]
            label = f"ca-{ca_spec.key}"
            deployment = cdn.provider.deploy(
                label,
                customer_hostnames=(ca_spec.ocsp_host, ca_spec.crl_host),
                ca=ca,
            )
            zone.add(ca_spec.ocsp_host, CNAMERecord(deployment.edge_hostname))
            if ca_spec.crl_host != ca_spec.ocsp_host:
                crl_zone.add(ca_spec.crl_host, CNAMERecord(deployment.edge_hostname))
        else:
            service_server.add_vhost(VirtualHost(ca_spec.ocsp_host, "ocsp", ca=ca))
            self._add_a(zone, ca_spec.ocsp_host, service_server.ips[0])
            if ca_spec.crl_host != ca_spec.ocsp_host:
                self._add_a(crl_zone, ca_spec.crl_host, service_server.ips[0])
            service_server.add_vhost(VirtualHost(ca_spec.crl_host, "crl", ca=ca))

        self._ca_infra[ca_spec.key] = CaInfra(
            spec=ca_spec, ca=ca, service_server=service_server, dns_infras=infras
        )

    def _private_ca_for(self, website: WebsiteSpec) -> CaInfra:
        """A per-entity private CA whose OCSP host sits under the entity's
        own domain (ocsp.<primary-domain>)."""
        key = f"_private-ca:{website.entity}"
        infra = self._ca_infra.get(key)
        if infra is not None:
            return infra
        base = self._entity_primary_domain.get(website.entity, website.domain)
        ca = CertificateAuthority(
            name=f"{website.entity} internal CA",
            operator=website.entity,
            ocsp_host=f"ocsp.{base}",
            crl_host=f"crl.{base}",
            now=BUILD_TIME,
            # Self-run PKI typically ships certificates without AIA/CDP
            # endpoints — which is also what keeps the observed-CA count at
            # the market's size, as in the paper's 59.
            policy=IssuancePolicy(include_ocsp=False, include_crl=False),
        )
        self.trust_store.add(ca.root)
        infra = CaInfra(
            spec=CaSpec(
                key=key,
                display=ca.name,
                entity=website.entity,
                ocsp_host=ca.ocsp_host,
                crl_host=ca.crl_host,
                share_weight=0.0,
            ),
            ca=ca,
            service_server=None,  # endpoints ride the website's origin server
            dns_infras=(),
        )
        self._ca_infra[key] = infra
        return infra

    # -- external content providers -------------------------------------------

    def _build_external_content_servers(self) -> None:
        domains = set()
        for website in self.spec.websites:
            domains.update(website.external_resource_domains)
        for domain in sorted(domains):
            server = HttpServer(
                f"web.{domain}", [self.ip.allocate()], operator=domain
            )
            self.http_fabric.register_server(server)
            infra = self._private_infra_for(f"ext:{domain}", domain, domain)
            zone = self._new_zone(domain, (infra,))
            for host in (domain, f"cdn.{domain}", f"static.{domain}"):
                self._add_a(zone, host, server.ips[0])
                server.add_vhost(VirtualHost(host, owner=domain))
            self._external_servers[domain] = server

    # -- websites ---------------------------------------------------------------

    def _build_website(self, website: WebsiteSpec) -> None:
        domain = website.domain
        origin_server = HttpServer(
            f"origin.{domain}", [self.ip.allocate()], operator=website.entity
        )
        self.http_fabric.register_server(origin_server)

        # DNS infrastructure and zone.
        entity_base = self._entity_primary_domain.get(website.entity, domain)
        infras = self._infras_for_setup(
            website.dns.providers, f"site:{website.entity}", website.entity, entity_base
        )
        if website.dns.soa_masked and website.dns.uses_third_party:
            first_third = website.dns.third_party_providers[0]
            mask = self._dns_infra[first_third].soa_identity
        elif website.dns.has_private or not website.dns.uses_third_party:
            private = self._private_infra_for(
                f"site:{website.entity}", website.entity, entity_base
            )
            mask = private.soa_identity
        else:
            mask = (f"ns1.{domain}", f"hostmaster.{domain}")
        zone = self._new_zone(domain, infras, soa_identity=mask)
        # A private-leg infra may have pre-created the zone with its own
        # identity; the website's intended SOA always wins.
        soa = self._soa(mask)
        if zone.soa is not soa:
            zone.set_soa(soa)
        origin_ip = origin_server.ips[0]
        self._add_a(zone, domain, origin_ip)
        self._add_a(zone, f"www.{domain}", origin_ip)

        # Certificate.
        chain: Optional[CertificateChain] = None
        ca_infra: Optional[CaInfra] = None
        if website.https:
            if website.ca_key in (None, PRIVATE):
                ca_infra = self._private_ca_for(website)
                # Private revocation endpoints ride the origin server.
                if ca_infra.service_server is None:
                    base = self._entity_primary_domain.get(website.entity, domain)
                    if base == domain:
                        ca = ca_infra.ca
                        origin_server.add_vhost(VirtualHost(ca.ocsp_host, "ocsp", ca=ca))
                        origin_server.add_vhost(VirtualHost(ca.crl_host, "crl", ca=ca))
                        self._add_a(zone, ca.ocsp_host, origin_ip)
                        self._add_a(zone, ca.crl_host, origin_ip)
                        ca_infra.service_server = origin_server
            else:
                ca_infra = self._ca_infra[website.ca_key]
            san = (domain, f"*.{domain}", f"www.{domain}") + website.alias_sans
            leaf = ca_infra.ca.issue(subject=domain, san=san, now=BUILD_TIME)
            chain = ca_infra.ca.chain_for(leaf)

        stapler = None
        if website.https and website.ocsp_stapled and chain is not None:
            assert ca_infra is not None
            stapler = ca_infra.ca.ocsp_responder

        # Landing page and resources.
        resources, resource_hosts = self._website_resources(website, zone, origin_ip, chain)
        page = WebPage(
            url=f"{'https' if website.https else 'http'}://www.{domain}/",
            title=domain,
            resources=resources,
        )
        landing = VirtualHost(
            f"www.{domain}", "landing", owner=domain,
            body=self._page_builder.render(page), chain=chain, stapler=stapler,
        )
        # A realistic fraction of sites canonicalize the apex to www with a
        # 301 (deterministic per domain so measurement runs are repeatable).
        if sum(ord(c) for c in domain) % 5 == 0:
            scheme = "https" if website.https else "http"
            apex = VirtualHost(
                domain, "redirect", owner=domain,
                body=f"{scheme}://www.{domain}/", chain=chain, stapler=stapler,
            )
        else:
            apex = replace(landing, hostname=domain)
        origin_server.add_vhost(apex)
        origin_server.add_vhost(landing)
        for host in resource_hosts["origin"]:
            self._add_a(zone, host, origin_ip)
            origin_server.add_vhost(VirtualHost(host, owner=domain, chain=chain))

        self._website_infra[domain] = WebsiteInfra(
            spec=website,
            zone=zone,
            origin_server=origin_server,
            chain=chain,
            issuing_ca=ca_infra.ca if ca_infra else None,
            landing_hosts=(domain, f"www.{domain}"),
            resource_hosts=tuple(resource_hosts["all"]),
            dns_infras=infras,
        )

    def _website_resources(
        self,
        website: WebsiteSpec,
        zone: Zone,
        origin_ip: str,
        chain: Optional[CertificateChain],
    ) -> tuple[list[Resource], dict[str, list[str]]]:
        """Create resource hostnames, CDN deployments, and CNAMEs."""
        domain = website.domain
        scheme = "https" if website.https else "http"
        resources: list[Resource] = [
            Resource(url="/assets/app.css", kind="stylesheet"),
        ]
        hosts: dict[str, list[str]] = {"origin": [], "cdn": [], "all": []}
        kinds = ("script", "image", "media", "image", "script", "image")

        cdn_keys = [c for c in website.cdns if c != PRIVATE]
        n = website.n_internal_resources
        n_cdn = 0
        if website.cdns:
            n_cdn = max(1, round(n * 0.7))
        for i in range(n):
            kind = kinds[i % len(kinds)]
            if i < n_cdn and cdn_keys:
                cdn_key = cdn_keys[i % len(cdn_keys)]
                cdn = self._cdn_infra[cdn_key]
                if website.internal_alias_domain and any(
                    website.internal_alias_domain == s or s.endswith(website.internal_alias_domain)
                    for s in cdn.spec.cname_suffixes
                ):
                    # yimg-style: the resource host *is* an edge name of the
                    # (private) CDN, no CNAME hop.
                    host = f"static{i}.{cdn.spec.cname_suffixes[0]}"
                else:
                    host = f"static{i}.{domain}"
                    label = f"{domain.replace('.', '-')}-{i}"
                    deployment = cdn.provider.deploy(
                        label, customer_hostnames=(host,), chain=chain
                    )
                    zone.add(host, CNAMERecord(deployment.edge_hostname))
                    # GeoDNS: clients in other regions may be steered to a
                    # different CDN entirely (invisible from the default
                    # vantage point).
                    for region, regional_key in website.regional_cdns.items():
                        regional_cdn = self._cdn_infra.get(regional_key)
                        if regional_cdn is None:
                            continue
                        regional_deployment = regional_cdn.provider.deploy(
                            f"{label}-{region}",
                            customer_hostnames=(host,),
                            chain=chain,
                        )
                        zone.add_regional(
                            host, region,
                            CNAMERecord(regional_deployment.edge_hostname),
                        )
                hosts["cdn"].append(host)
            elif i < n_cdn and website.cdns == [PRIVATE]:
                # Undetectable private CDN: CNAME within the same domain.
                host = f"static{i}.{domain}"
                zone.add(host, CNAMERecord(f"cdn-origin.{domain}"))
                if f"cdn-origin.{domain}" not in zone:
                    self._add_a(zone, f"cdn-origin.{domain}", origin_ip)
                hosts["origin"].append(f"cdn-origin.{domain}")
            else:
                host = f"img{i}.{domain}"
                hosts["origin"].append(host)
            hosts["all"].append(host)
            resources.append(Resource(url=f"{scheme}://{host}/objects/{i}", kind=kind))

        for ext in website.external_resource_domains:
            resources.append(
                Resource(url=f"https://cdn.{ext}/lib.js", kind="script")
            )
        return resources, hosts


def materialize(spec: SnapshotSpec) -> MaterializedWorld:
    """Materialize a snapshot spec into live substrate objects."""
    return Materializer(spec).build()
