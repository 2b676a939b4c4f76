"""The measurement campaign: everything Section 3 observes, per site and
per provider. :func:`repro.engine.run_campaign` drives it end to end.

Inputs are public knowledge only: the ranked website list, and the set of
companies that advertise CDN service (the CNAME-to-CDN map). Everything
else — nameservers, SOAs, certificates, stapling, CNAME chains, provider
service domains — is observed through the vantage point's resolver and
web client. The generator's per-website ground truth is never read.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.measurement.cdn_map import CnameToCdnMap
from repro.measurement.cdn_measurer import CdnMeasurer
from repro.measurement.dns_measurer import DnsMeasurer
from repro.measurement.interservice import InterServiceMeasurer
from repro.measurement.records import Dataset, WebsiteMeasurement
from repro.measurement.telemetry import record_interservice, record_site
from repro.measurement.tls_measurer import TlsMeasurer
from repro.names.psl import icann_psl
from repro.names.registrable import registrable_domain
from repro.telemetry.context import Telemetry
from repro.telemetry.spans import NULL_SPAN
from repro.worldgen.world import World


def build_cdn_map(world: World) -> CnameToCdnMap:
    """The public CNAME-to-CDN map: every company advertising CDN service
    and its published edge-name patterns."""
    return CnameToCdnMap.from_catalog(
        (cdn.display, cdn.cname_suffixes) for cdn in world.spec.cdns.values()
    )


def ca_directory(world: World) -> dict[str, str]:
    """Public map: revocation-endpoint base domain → CA display name."""
    directory: dict[str, str] = {}
    for ca in world.spec.cas.values():
        for host in (ca.ocsp_host, ca.crl_host):
            base = registrable_domain(host, icann_psl()) or host
            directory[base] = ca.display
    return directory


def ranked_sites(
    world: World, limit: Optional[int] = None
) -> list[tuple[str, int]]:
    """A campaign's target list: (domain, rank), rank-ordered, truncated
    to ``limit``. This is the unit the engine shards."""
    websites = sorted(world.spec.websites, key=lambda w: w.rank)
    if limit is not None:
        websites = websites[:limit]
    return [(w.domain, w.rank) for w in websites]


class MeasurementCampaign:
    """The Section 3 measurers bound to one world: :meth:`measure_site`
    per site, then :meth:`run_interservice`. Only
    :func:`repro.engine.run_campaign` runs a whole campaign.

    Every campaign measures through its own cold vantage, which owns
    the campaign's clock and its fault plan's injector, so measuring one
    world twice gives the bytes of measuring two fresh worlds.
    ``region`` picks that vantage's region (GeoDNS views apply) — the
    paper's single-vantage limitation made explorable.
    """

    def __init__(
        self,
        world: World,
        region: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self._world = world
        self.region = region
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        vantage = world.vantage(region, faults=self.fault_plan)
        # None when the plan is empty: every layer keeps its fault-free
        # fast path and output is byte-identical to a plan-less campaign.
        self._injector = vantage.injector
        dig = vantage.dig
        self._crawler = vantage.crawler
        self.telemetry = telemetry
        if telemetry is not None:
            # Span timestamps come from the vantage's simulated clock; the
            # same facade is installed into every layer of this campaign's
            # own vantage, so it never outlives the campaign.
            # Layer hooks only feed the tracer and the diagnostics
            # registry, so a facade with both off is not installed at
            # all — the per-query hot paths keep their bare
            # ``telemetry is None`` fast path (campaign metrics are
            # recorded per *site* in :meth:`measure_site`, which reads
            # ``self.telemetry`` directly).
            telemetry.bind_clock(vantage.clock.now)
            if telemetry.tracer is not None or telemetry.diagnostics is not None:
                vantage.resolver.telemetry = telemetry
                vantage.resolver.cache.telemetry = telemetry
                vantage.crawler.telemetry = telemetry
                vantage.web_client.telemetry = telemetry
                if self._injector is not None:
                    self._injector.telemetry = telemetry
        self.cdn_map = build_cdn_map(world)
        self._ca_directory = ca_directory(world)
        self._dns = DnsMeasurer(dig)
        self._tls = TlsMeasurer()
        self._cdn = CdnMeasurer(dig, self.cdn_map, self._dns.soa_identity)
        self._inter = InterServiceMeasurer(dig, self._dns, self.cdn_map)

    def ca_name_for_endpoint(self, host: str) -> str:
        """The CA operating a revocation endpoint (by its base domain)."""
        base = registrable_domain(host, icann_psl()) or host
        return self._ca_directory.get(base, base)

    def measure_site(self, domain: str, rank: int) -> WebsiteMeasurement:
        """Measure one website: crawl, DNS, TLS (+ endpoint SOAs), CDN.

        Self-contained per site, so the engine can run sites in any
        process as long as the final dataset lists them in rank order.
        """
        tel = self.telemetry
        if self._injector is not None:
            # Rank-windowed fault rules key off the site under measurement.
            self._injector.set_site(rank)
        if tel is not None:
            tel.begin_site(domain)
        span = (
            tel.span("site.measure", "measure", domain=domain, rank=rank)
            if tel is not None
            else NULL_SPAN
        )
        try:
            with span:
                with (
                    tel.span("site.crawl", "measure")
                    if tel is not None
                    else NULL_SPAN
                ):
                    crawl = self._crawler.crawl(domain)
                with (
                    tel.span("site.dns", "measure")
                    if tel is not None
                    else NULL_SPAN
                ):
                    dns_obs = self._dns.measure(domain)
                with (
                    tel.span("site.tls", "measure")
                    if tel is not None
                    else NULL_SPAN
                ):
                    tls_obs = self._tls.extract(crawl)
                    for host in tls_obs.ca_hosts:
                        tls_obs.endpoint_soas[host] = self._dns.soa_identity(host)
                with (
                    tel.span("site.cdn", "measure")
                    if tel is not None
                    else NULL_SPAN
                ):
                    cdn_obs = self._cdn.measure(crawl)
        finally:
            if tel is not None:
                tel.end_site()
            if self._injector is not None:
                self._injector.clear_site()
        measurement = WebsiteMeasurement(
            domain=domain,
            rank=rank,
            dns=dns_obs,
            tls=tls_obs,
            cdn=cdn_obs,
        )
        if tel is not None:
            # Shard-stable campaign metrics: pure functions of the record.
            record_site(tel, measurement, self.fault_plan)
        return measurement

    def observed_providers(
        self, websites: Sequence[WebsiteMeasurement]
    ) -> tuple[set[str], dict[str, list[str]]]:
        """The provider sets the inter-service pass measures, recomputed
        from website measurements (so every shard count sees the
        identical encounter order)."""
        observed_cdns: set[str] = set()
        # CA display name -> observed revocation endpoint hosts.
        observed_cas: dict[str, list[str]] = {}
        for measurement in websites:
            observed_cdns.update(measurement.cdn.detected_cdns)
            for host in measurement.tls.ca_hosts:
                name = self.ca_name_for_endpoint(host)
                hosts = observed_cas.setdefault(name, [])
                if host not in hosts:
                    hosts.append(host)
        return observed_cdns, observed_cas

    def run_interservice(self, dataset: Dataset) -> Dataset:
        """The separable second pass: measure the observed providers.

        Fills ``cdn_dns``/``ca_dns``/``ca_cdn`` and the campaign notes
        from ``dataset.websites`` alone, so it produces identical output
        whether the websites came from one shard or were merged from
        many.
        """
        tel = self.telemetry
        span = (
            tel.span("interservice", "measure")
            if tel is not None
            else NULL_SPAN
        )
        with span:
            self._run_interservice(dataset)
        if tel is not None:
            record_interservice(tel, dataset)
        return dataset

    def _run_interservice(self, dataset: Dataset) -> Dataset:
        observed_cdns, observed_cas = self.observed_providers(dataset.websites)

        # Inter-service measurements over the observed provider sets. The
        # paper measures every CDN in its map that appeared and every CA
        # that issued to its websites.
        for cdn_name in sorted(observed_cdns):
            suffixes = [
                suffix
                for cdn in self._world.spec.cdns.values()
                if cdn.display == cdn_name
                for suffix in cdn.cname_suffixes
            ]
            if suffixes:
                dataset.cdn_dns[cdn_name] = self._inter.measure_service_domain(
                    cdn_name, suffixes
                )
        for ca_name, hosts in sorted(observed_cas.items()):
            dataset.ca_dns[ca_name] = self._inter.measure_service_domain(
                ca_name, hosts
            )
            dataset.ca_cdn[ca_name] = self._inter.measure_revocation_endpoints(
                ca_name, hosts
            )

        dataset.notes["websites_measured"] = len(dataset.websites)
        dataset.notes["cdns_observed"] = len(observed_cdns)
        dataset.notes["cas_observed"] = len(observed_cas)
        # World size, so offline analysis can recover the rank scale.
        dataset.notes["world_n"] = self._world.config.n_websites
        return dataset
