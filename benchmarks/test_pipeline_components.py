"""Throughput benchmarks for the pipeline's moving parts.

Not paper artifacts — these keep the substrate honest: resolver queries,
landing-page crawls, website classification, and the recursive impact
metric, measured on the shared benchmark world.
"""

import random

from repro.core.classification import classify_dns
from repro.core.graph import ServiceType
from repro.measurement.dns_measurer import DnsMeasurer


def test_resolver_query_throughput(benchmark, worlds, vantage):
    """Cold-ish resolver lookups across random websites."""
    _, world_2020, _ = worlds
    rng = random.Random(0)
    domains = [w.domain for w in world_2020.spec.websites]

    def run():
        domain = domains[rng.randrange(len(domains))]
        return vantage.dig.ns(domain)

    result = benchmark(run)
    assert isinstance(result, list)


def test_crawl_throughput(benchmark, worlds, vantage):
    """Full landing-page crawls (DNS + TLS + HTML parsing)."""
    _, world_2020, _ = worlds
    rng = random.Random(1)
    domains = [w.domain for w in world_2020.spec.websites]

    def run():
        return vantage.crawler.crawl(domains[rng.randrange(len(domains))])

    result = benchmark(run)
    assert result.domain


def test_dns_measurement_throughput(benchmark, worlds, vantage):
    """The Section 3.1 measurement unit (NS + SOA set) per website."""
    _, world_2020, _ = worlds
    measurer = DnsMeasurer(vantage.dig)
    rng = random.Random(2)
    domains = [w.domain for w in world_2020.spec.websites]

    def run():
        return measurer.measure(domains[rng.randrange(len(domains))])

    observation = benchmark(run)
    assert observation.domain


def test_classification_throughput(benchmark, snapshot_2020):
    """Re-classifying measured websites (pure analysis, no I/O)."""
    dataset = snapshot_2020.dataset
    measurements = dataset.websites
    rng = random.Random(3)

    def run():
        m = measurements[rng.randrange(len(measurements))]
        return classify_dns(
            m.dns, m.tls.san, concentration_of=lambda b: 100
        )

    result = benchmark(run)
    assert result.domain


def test_impact_metric_throughput(benchmark, snapshot_2020):
    """The recursive impact computation over the full graph."""
    graph = snapshot_2020.graph
    providers = graph.providers(ServiceType.DNS)
    rng = random.Random(4)

    def run():
        return graph.impact(providers[rng.randrange(len(providers))])

    result = benchmark(run)
    assert result >= 0
