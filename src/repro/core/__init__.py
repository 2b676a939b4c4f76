"""The paper's analysis layer: classification, dependency graph, metrics.

This package is the primary contribution being reproduced:

* :mod:`repro.core.classification` — the Section 3 heuristics deciding
  whether each (website, provider) pair is third-party, plus the TLD-only
  and SOA-only baselines they are validated against;
* :mod:`repro.core.entitygroup` — grouping nameservers into operating
  entities for redundancy detection;
* :mod:`repro.core.graph` — the dependency graph with the
  *concentration* and *impact* metrics of Section 2.2, over both direct
  and indirect (inter-service) dependencies, served by the
  SCC-condensation batch engine in :mod:`repro.core.graphx`;
* :mod:`repro.core.metrics` — rank-stratified adoption/criticality rates
  and provider-concentration CDFs (Figures 2-4, 6);
* :mod:`repro.core.evolution` — 2016-vs-2020 trend tables (Tables 3-5,
  7-9);
* :mod:`repro.core.pipeline` — world → dataset → classified snapshot in
  one call.
"""

from repro.core.classification import (
    CaClassification,
    CdnClassification,
    ClassificationMethod,
    ClassifiedWebsite,
    DnsClassification,
    NameserverClassification,
    ProviderType,
    classify_ca,
    classify_cdn,
    classify_dns,
    classify_nameserver_soa_only,
    classify_nameserver_tld_only,
)
from repro.core.entitygroup import group_nameservers_by_entity, provider_id_for
from repro.core.graph import (
    DependencyGraph,
    ProviderMetrics,
    ProviderNode,
    ServiceType,
)
from repro.core.graphx import MetricEngine
from repro.core.incremental import refresh_snapshot
from repro.core.metrics import (
    BucketStats,
    provider_cdf,
    providers_covering,
    rank_bucket_stats_ca,
    rank_bucket_stats_cdn,
    rank_bucket_stats_dns,
)
from repro.core.evolution import (
    TrendRow,
    ca_stapling_trends,
    dns_trends,
    cdn_trends,
    interservice_ca_cdn_trends,
    interservice_ca_dns_trends,
    interservice_cdn_dns_trends,
)
from repro.core.pipeline import AnalyzedSnapshot, analyze_dataset

__all__ = [
    "AnalyzedSnapshot",
    "BucketStats",
    "CaClassification",
    "CdnClassification",
    "ClassificationMethod",
    "ClassifiedWebsite",
    "DependencyGraph",
    "DnsClassification",
    "MetricEngine",
    "NameserverClassification",
    "ProviderMetrics",
    "ProviderNode",
    "ProviderType",
    "ServiceType",
    "TrendRow",
    "analyze_dataset",
    "ca_stapling_trends",
    "cdn_trends",
    "classify_ca",
    "classify_cdn",
    "classify_dns",
    "classify_nameserver_soa_only",
    "classify_nameserver_tld_only",
    "dns_trends",
    "group_nameservers_by_entity",
    "interservice_ca_cdn_trends",
    "interservice_ca_dns_trends",
    "interservice_cdn_dns_trends",
    "provider_cdf",
    "provider_id_for",
    "providers_covering",
    "rank_bucket_stats_ca",
    "rank_bucket_stats_cdn",
    "rank_bucket_stats_dns",
    "refresh_snapshot",
]
