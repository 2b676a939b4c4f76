"""Snapshot generation: the 2016 base world.

Builds a :class:`~repro.worldgen.spec.SnapshotSpec` for 2016 from the
provider catalog, rank curves, and synthetic long tails. The 2020 snapshot
is always produced by *evolving* this one (:mod:`repro.worldgen.evolve`),
so the comparison analysis sees a consistent population.

Synthetic tail providers absorb the market left over after the named
catalog entries, and their inter-service dependency choices are assigned
to hit the Table 6 counts for the year (see ``InterServiceTargets``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.worldgen import rankmodel
from repro.worldgen.alexa import AlexaList, generate_domains
from repro.worldgen.catalog import (
    CA_TAIL_SHARE_EACH,
    CDN_TAIL_SHARE_EACH,
    DNS_TAIL_WEIGHT_2016,
    DNS_TAIL_WEIGHT_2020,
    CaEntry,
    CdnEntry,
    provider_catalog,
)
from repro.worldgen.config import WorldConfig
from repro.worldgen.corner_cases import apply_corner_cases, private_cdn_specs
from repro.worldgen.spec import (
    PRIVATE,
    CaSpec,
    CdnSpec,
    DnsProviderSpec,
    DnsSetup,
    SnapshotSpec,
    WebsiteSpec,
)

# Domains serving third-party page content (trackers, fonts, widgets) that
# are *not* infrastructure dependencies — the crawler must see and the CDN
# pipeline must discard them, as the paper's internal-resource step does.
# Fraction of CDN-using websites serving a *different* CDN to clients in
# other regions (GeoDNS) — the dependency a single vantage point misses.
REGIONAL_CDN_RATE_2020 = 0.06
REGIONAL_CDN_RATE_2016 = 0.03

EXTERNAL_CONTENT_DOMAINS = (
    "metric-analytics.com", "adnet-serve.com", "fontkit-cdn.org",
    "social-widgets.net", "tagmanager-hub.com", "pixel-track.net",
    "embed-player.com", "consent-banner.net", "chat-widget.io",
    "maps-embed.org",
)


@dataclass(frozen=True)
class InterServiceTargets:
    """Table 6-style counts for one snapshot year."""

    cdn_third_party: int
    cdn_critical: int
    ca_dns_third_party: int
    ca_dns_critical: int
    ca_cdn_users: int
    ca_cdn_third_party: int


TARGETS_2016 = InterServiceTargets(
    cdn_third_party=12, cdn_critical=8,
    ca_dns_third_party=33, ca_dns_critical=24,
    ca_cdn_users=21, ca_cdn_third_party=18,
)
TARGETS_2020 = InterServiceTargets(
    cdn_third_party=31, cdn_critical=15,
    ca_dns_third_party=27, ca_dns_critical=18,
    ca_cdn_users=24, ca_cdn_third_party=21,
)


def _year_field(entry, name: str, year: int):
    return getattr(entry, f"{name}_{year}")


def _dns_setup_from_choice(choice, entity: str, dns_entities: dict[str, str]) -> DnsSetup:
    """Translate a catalog dns_choice into a DnsSetup, folding same-entity
    providers into PRIVATE (Amazon CA on Route 53 is not a third party)."""
    keys = (choice,) if isinstance(choice, str) else tuple(choice)
    providers = []
    for key in keys:
        if key == "private" or key == PRIVATE:
            providers.append(PRIVATE)
        elif dns_entities.get(key) == entity:
            providers.append(PRIVATE)
        else:
            providers.append(key)
    # Collapse duplicate PRIVATEs while preserving order.
    deduped: list[str] = []
    for p in providers:
        if p not in deduped:
            deduped.append(p)
    return DnsSetup(providers=deduped)


# --------------------------------------------------------------------------
# Markets
# --------------------------------------------------------------------------

def build_dns_market(config: WorldConfig, year: int, rng: random.Random) -> dict[str, DnsProviderSpec]:
    """Named providers active in ``year`` plus a Zipf long tail."""
    catalog = provider_catalog()
    market: dict[str, DnsProviderSpec] = {}
    for entry in catalog.dns_providers:
        share = _year_field(entry, "share", year)
        if share <= 0:
            continue
        market[entry.key] = DnsProviderSpec(
            key=entry.key,
            display=entry.display,
            entity=entry.entity,
            ns_domains=entry.ns_domains,
            share_weight=share,
            top_bias=_year_field(entry, "top_bias", year),
            secondary_rate=entry.secondary_rate,
        )
    per_1k = (
        config.tail_dns_providers_per_1k_sites
        if year >= 2020
        else config.tail_dns_providers_per_1k_sites_2016
    )
    tail_count = max(10, round(per_1k * config.n_websites / 1000))
    tail_total = DNS_TAIL_WEIGHT_2020 if year >= 2020 else DNS_TAIL_WEIGHT_2016
    # A flatter tail in 2016 (2705 providers covered 80% of websites then);
    # by 2020 the tail both shrank and steepened.
    weights = rankmodel.zipf_weights(tail_count, exponent=0.7 if year >= 2020 else 0.5)
    scale = tail_total / sum(weights)
    for i, weight in enumerate(weights):
        key = f"dns-tail-{i:04d}"
        market[key] = DnsProviderSpec(
            key=key,
            display=f"Hosting DNS #{i}",
            entity=key,
            ns_domains=(f"tail{i:04d}-dns.net",),
            share_weight=weight * scale,
            secondary_rate=0.02,
        )
    return market


def _named_cdn_specs(year: int, dns_entities: dict[str, str]) -> dict[str, CdnSpec]:
    catalog = provider_catalog()
    specs: dict[str, CdnSpec] = {}
    for entry in catalog.cdns:
        share = _year_field(entry, "share", year)
        if share <= 0:
            continue
        specs[entry.key] = CdnSpec(
            key=entry.key,
            display=entry.display,
            entity=entry.entity,
            cname_suffixes=entry.cname_suffixes,
            share_weight=share,
            dns=_dns_setup_from_choice(
                _year_field(entry, "dns_choice", year), entry.entity, dns_entities
            ),
            top_bias=_year_field(entry, "top_bias", year),
            redundancy_rate=entry.redundancy_rate,
        )
    for spec in private_cdn_specs(year, dns_entities):
        specs[spec.key] = spec
    return specs


def _assign_interservice_dns(
    specs: list,  # CdnSpec or CaSpec, mutated in place
    already_third: int,
    already_critical: int,
    target_third: int,
    target_critical: int,
    dns_keys: list[str],
    dns_weights: list[float],
    rng: random.Random,
) -> None:
    """Give synthetic providers DNS setups hitting the Table 6 counts.

    Critical = single third-party provider; non-critical third-party users
    get a private secondary (redundant).
    """
    need_critical = max(0, target_critical - already_critical)
    need_redundant = max(0, (target_third - target_critical) - (already_third - already_critical))
    pool = list(specs)
    rng.shuffle(pool)
    for spec in pool:
        if need_critical <= 0 and need_redundant <= 0:
            break
        provider = rankmodel.weighted_choice(rng, dns_keys, dns_weights)
        if need_critical > 0:
            spec.dns = DnsSetup(providers=[provider])
            need_critical -= 1
        else:
            spec.dns = DnsSetup(providers=[provider, PRIVATE])
            need_redundant -= 1


def build_cdn_market(
    config: WorldConfig,
    year: int,
    dns_market: dict[str, DnsProviderSpec],
    rng: random.Random,
) -> dict[str, CdnSpec]:
    """All CDNs for a year: named + private corner-case + synthetic tail."""
    dns_entities = {k: v.entity for k, v in dns_market.items()}
    market = _named_cdn_specs(year, dns_entities)
    total = config.targets.n_cdns if year >= 2020 else config.targets.n_cdns_2016
    synthetic: list[CdnSpec] = []
    i = 0
    while len(market) + len(synthetic) < total:
        key = f"cdn-tail-{i:03d}"
        if key not in market:
            synthetic.append(
                CdnSpec(
                    key=key,
                    display=f"Regional CDN #{i}",
                    entity=key,
                    cname_suffixes=(f"tail{i:03d}-cdnedge.net",),
                    share_weight=CDN_TAIL_SHARE_EACH,
                    redundancy_rate=0.05,
                )
            )
        i += 1
    targets = TARGETS_2020 if year >= 2020 else TARGETS_2016
    named = list(market.values())
    already_third = sum(1 for s in named if s.dns.uses_third_party)
    already_critical = sum(1 for s in named if s.dns.is_critical)
    # The paper: AWS DNS serves 16 CDNs (7 exclusively), so weight the
    # synthetic choices towards it; the rest spread over managed DNS.
    dns_keys = [k for k in ("aws-dns", "dnsmadeeasy", "ns1", "ultradns", "dyn", "cloudflare") if k in dns_market]
    dns_weights = [10.0, 2.0, 2.0, 2.0, 1.0, 2.0][: len(dns_keys)]
    _assign_interservice_dns(
        synthetic, already_third, already_critical,
        targets.cdn_third_party, targets.cdn_critical,
        dns_keys, dns_weights, rng,
    )
    for spec in synthetic:
        market[spec.key] = spec
    return market


def build_ca_market(
    config: WorldConfig,
    year: int,
    dns_market: dict[str, DnsProviderSpec],
    cdn_market: dict[str, CdnSpec],
    rng: random.Random,
) -> dict[str, CaSpec]:
    """All CAs for a year: named + synthetic tail, with inter-service deps."""
    catalog = provider_catalog()
    dns_entities = {k: v.entity for k, v in dns_market.items()}
    cdn_entities = {k: v.entity for k, v in cdn_market.items()}
    market: dict[str, CaSpec] = {}
    for entry in catalog.cas:
        share = _year_field(entry, "share", year)
        if share <= 0:
            continue
        cdn_choice = _year_field(entry, "cdn_choice", year)
        cdn_private = (
            cdn_choice is not None
            and cdn_entities.get(cdn_choice) == entry.entity
        )
        market[entry.key] = CaSpec(
            key=entry.key,
            display=entry.display,
            entity=entry.entity,
            ocsp_host=entry.ocsp_host,
            crl_host=entry.crl_host,
            share_weight=share,
            stapling_rate=_year_field(entry, "stapling_rate", year),
            dns=_dns_setup_from_choice(
                _year_field(entry, "dns_choice", year), entry.entity, dns_entities
            ),
            cdn_key=cdn_choice,
            cdn_private=cdn_private,
        )
    total = config.targets.n_cas if year >= 2020 else config.targets.n_cas_2016
    synthetic: list[CaSpec] = []
    i = 0
    while len(market) + len(synthetic) < total:
        key = f"ca-tail-{i:03d}"
        if key not in market:
            synthetic.append(
                CaSpec(
                    key=key,
                    display=f"Regional CA #{i}",
                    entity=key,
                    ocsp_host=f"ocsp.tail{i:03d}-pki.net",
                    crl_host=f"crl.tail{i:03d}-pki.net",
                    share_weight=CA_TAIL_SHARE_EACH,
                    stapling_rate=0.15,
                )
            )
        i += 1
    targets = TARGETS_2020 if year >= 2020 else TARGETS_2016
    named = list(market.values())
    already_third = sum(1 for s in named if s.dns.uses_third_party)
    already_critical = sum(1 for s in named if s.dns.is_critical)
    # Paper (2020): of the exclusively-dependent CAs, 4 use Comodo DNS,
    # 3 Akamai, 3 AWS DNS — mirrored in the weights.
    dns_keys = [k for k in ("comodo-dns", "akamai-dns", "aws-dns", "ultradns", "dnsmadeeasy", "cloudflare") if k in dns_market]
    dns_weights = [4.0, 3.0, 3.0, 2.0, 1.0, 1.0][: len(dns_keys)]
    _assign_interservice_dns(
        synthetic, already_third, already_critical,
        targets.ca_dns_third_party, targets.ca_dns_critical,
        dns_keys, dns_weights, rng,
    )
    # CA -> CDN assignments for synthetics: Akamai and Cloudflare dominate
    # (5 CAs each in the paper). Synthetic CAs only ever take third-party
    # CDNs; the private usages come from the named same-entity pairs.
    named_cdn_third = sum(1 for s in named if s.uses_third_party_cdn)
    need_third = max(0, targets.ca_cdn_third_party - named_cdn_third)
    cdn_keys = [k for k in ("akamai", "cloudflare-cdn", "cloudfront", "fastly", "stackpath") if k in cdn_market]
    cdn_weights = [5.0, 5.0, 2.0, 1.0, 1.0][: len(cdn_keys)]
    pool = list(synthetic)
    rng.shuffle(pool)
    for spec in pool:
        if need_third <= 0:
            break
        spec.cdn_key = rankmodel.weighted_choice(rng, cdn_keys, cdn_weights)
        need_third -= 1
    for spec in synthetic:
        market[spec.key] = spec
    return market


# --------------------------------------------------------------------------
# Websites
# --------------------------------------------------------------------------

def _draw_dns_setup(
    eff_rank: float,
    year: int,
    dns_market: dict[str, DnsProviderSpec],
    dns_weights: rankmodel.MarketWeights,
    rng: random.Random,
) -> DnsSetup:
    if rng.random() >= rankmodel.p_third_party_dns(eff_rank, year):
        return DnsSetup(providers=[PRIVATE], soa_masked=False)
    keys = dns_weights.keys
    weights = dns_weights.at(eff_rank)
    primary = rankmodel.weighted_choice(rng, keys, weights)
    provider = dns_market[primary]
    p_red = min(
        0.9,
        rankmodel.dns_redundancy_multiplier(eff_rank) * provider.secondary_rate,
    )
    providers = [primary]
    if rng.random() < p_red:
        if rng.random() < rankmodel.p_private_secondary_given_redundant(eff_rank):
            providers.append(PRIVATE)
        else:
            others = [k for k in keys if k != primary]
            other_weights = [w for k, w in zip(keys, weights) if k != primary]
            if others:
                providers.append(rankmodel.weighted_choice(rng, others, other_weights))
    # Most third-party-hosted zones carry the provider's SOA (the Section
    # 3.1 trap); a minority keep their own SOA, like amazon.com.
    return DnsSetup(providers=providers, soa_masked=rng.random() < 0.8)


def _draw_cdns(
    eff_rank: float,
    year: int,
    cdn_market: dict[str, CdnSpec],
    cdn_weights: rankmodel.MarketWeights,
    rng: random.Random,
) -> list[str]:
    if rng.random() >= rankmodel.p_cdn_usage(eff_rank, year):
        return []
    if rng.random() < rankmodel.p_private_cdn_given_use(eff_rank):
        return [PRIVATE]
    # Only publicly-marketed CDNs are choosable; corner-case private CDNs
    # (entity-named) are wired explicitly.
    keys = cdn_weights.keys
    weights = cdn_weights.at(eff_rank)
    primary = rankmodel.weighted_choice(rng, keys, weights)
    cdns = [primary]
    p_multi = min(
        0.9,
        rankmodel.cdn_redundancy_multiplier(eff_rank)
        * cdn_market[primary].redundancy_rate,
    )
    if rng.random() < p_multi:
        others = [k for k in keys if k != primary]
        other_weights = [w for k, w in zip(keys, weights) if k != primary]
        if others:
            cdns.append(rankmodel.weighted_choice(rng, others, other_weights))
    return cdns


def _draw_ca(
    eff_rank: float,
    year: int,
    ca_market: dict[str, CaSpec],
    rng: random.Random,
) -> tuple[bool, str, bool]:
    """Returns (https, ca_key, stapled)."""
    if rng.random() >= rankmodel.p_https(eff_rank, year):
        return False, PRIVATE, False
    if rng.random() < rankmodel.p_private_ca_given_https(eff_rank):
        return True, PRIVATE, rng.random() < 0.25
    keys = list(ca_market)
    weights = [c.share_weight for c in ca_market.values()]
    ca_key = rankmodel.weighted_choice(rng, keys, weights)
    stapled = rng.random() < ca_market[ca_key].stapling_rate
    return True, ca_key, stapled


def generate_websites(
    config: WorldConfig,
    alexa: AlexaList,
    year: int,
    dns_market: dict[str, DnsProviderSpec],
    cdn_market: dict[str, CdnSpec],
    ca_market: dict[str, CaSpec],
    rng: random.Random,
) -> list[WebsiteSpec]:
    """Draw every website's spec for one year."""
    websites: list[WebsiteSpec] = []
    regional_rate = REGIONAL_CDN_RATE_2020 if year >= 2020 else REGIONAL_CDN_RATE_2016
    regional_candidates = [
        key for key in ("alibaba-cdn", "cdn77") if key in cdn_market
    ]
    dns_weights = rankmodel.MarketWeights(dns_market, dns_market)
    cdn_weights = rankmodel.MarketWeights(
        cdn_market, [k for k, c in cdn_market.items() if c.share_weight > 0]
    )
    for index, domain in enumerate(alexa.domains):
        rank = index + 1
        eff = config.effective_rank(rank)
        dns = _draw_dns_setup(eff, year, dns_market, dns_weights, rng)
        cdns = _draw_cdns(eff, year, cdn_market, cdn_weights, rng)
        regional: dict[str, str] = {}
        if cdns and cdns != [PRIVATE] and regional_candidates:
            if rng.random() < regional_rate:
                choice = rng.choice(regional_candidates)
                if choice not in cdns:
                    regional["cn"] = choice
        https, ca_key, stapled = _draw_ca(eff, year, ca_market, rng)
        externals = rng.sample(
            EXTERNAL_CONTENT_DOMAINS, k=rng.randrange(0, 4)
        )
        websites.append(
            WebsiteSpec(
                domain=domain,
                rank=rank,
                entity=domain,
                dns=dns,
                https=https,
                ca_key=ca_key if https else None,
                ocsp_stapled=stapled,
                cdns=cdns,
                regional_cdns=regional,
                n_internal_resources=rng.randrange(2, 7),
                external_resource_domains=externals,
            )
        )
    return websites


def generate_snapshot(config: WorldConfig) -> SnapshotSpec:
    """Generate the base snapshot for ``config.year``.

    For 2020 worlds prefer :func:`repro.worldgen.world.build_world_pair`,
    which evolves a 2016 base so trend tables are consistent.
    """
    rng = random.Random(config.seed)
    year = config.year
    alexa = AlexaList(
        year=year,
        domains=generate_domains(
            config.n_websites, rng, config.include_corner_cases
        ),
    )
    dns_market = build_dns_market(config, year, rng)
    cdn_market = build_cdn_market(config, year, dns_market, rng)
    ca_market = build_ca_market(config, year, dns_market, cdn_market, rng)
    websites = generate_websites(
        config, alexa, year, dns_market, cdn_market, ca_market, rng
    )
    spec = SnapshotSpec(
        year=year,
        websites=websites,
        dns_providers=dns_market,
        cdns=cdn_market,
        cas=ca_market,
    )
    if config.include_corner_cases:
        apply_corner_cases(spec, year)
    return spec
