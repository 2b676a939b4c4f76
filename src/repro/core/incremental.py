"""Incremental analysis: refresh an :class:`AnalyzedSnapshot` in place.

``analyze_dataset`` reclassifies every site and rebuilds the graph from
scratch. Across timeline epochs that is wasted work: the epoch's dataset
shares most of its records (by object, thanks to the splice in
:mod:`repro.engine.epochs`) with the previous epoch's. ``refresh_snapshot``
reclassifies only the sites whose classification *inputs* moved and
applies the difference to the previous snapshot's graph as mutations,
which the graph's metric engine absorbs incrementally
(:meth:`~repro.core.graphx.MetricEngine.refreshed`).

A site's classification is a pure function of

* its own measurement record,
* the boolean ``concentration(base) >= threshold`` per nameserver base
  it references (the §3.1 concentration rung), and
* the endpoint-host → CA-name directory (from the inter-service
  observations).

So the reclassification set is: changed records, plus unchanged sites
referencing a nameserver base whose threshold flag flipped, plus
unchanged sites whose CA host's directory entry changed. Everything else
reuses the previous epoch's ``ClassifiedWebsite`` object untouched.
Provider-level (inter-service) classification is recomputed wholesale —
it is O(providers), not O(websites) — and diffed into the graph.

Equivalence with a fresh ``analyze_dataset`` is the tested contract
(``tests/test_graph_incremental.py``). The previous snapshot's graph is
*consumed* — callers must not keep using ``prev`` after a refresh.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.graph import ProviderNode, ServiceType, website_graph_edges
from repro.core.pipeline import (
    AnalyzedSnapshot,
    _endpoint_ca_names,
    _nameserver_bases,
    _nameserver_concentrations,
    classify_interservice,
    classify_website,
)
from repro.measurement.records import Dataset
from repro.names.registrable import registrable_memo


def _edge_pairs(
    edges: Iterable[tuple[ProviderNode, ProviderNode, bool]],
) -> dict[tuple[ProviderNode, ProviderNode], bool]:
    """Collapse (consumer, provider, critical) triples to pair → critical.

    The graph's edge semantics are cumulative — a pair is critical if
    *any* triple says so — which this reproduces for diffing.
    """
    pairs: dict[tuple[ProviderNode, ProviderNode], bool] = {}
    for consumer, provider, critical in edges:
        key = (consumer, provider)
        pairs[key] = pairs.get(key, False) or critical
    return pairs


def refresh_snapshot(
    prev: AnalyzedSnapshot,
    dataset: Dataset,
    changed: Optional[Iterable[str]] = None,
    dns_display_names: Optional[dict[str, str]] = None,
) -> AnalyzedSnapshot:
    """Re-analyze ``dataset`` by updating ``prev`` instead of starting over.

    ``changed`` is the set of domains whose measurement record differs
    from ``prev``'s (a timeline's :class:`~repro.worldgen.timeline.
    EpochChange` provides it); when omitted it is recovered by record
    comparison, where the splice's object reuse makes the common case an
    identity check. The rank scale and threshold are inherited from
    ``prev`` — refreshing across different scales is not meaningful.
    Like ``analyze_dataset``, one call derives each name's registrable
    domain once.
    """
    threshold = prev.concentration_threshold
    base_of = registrable_memo()
    bases = _nameserver_bases(prev.dataset, dataset, base_of=base_of)
    old_concentrations = _nameserver_concentrations(prev.dataset, bases)
    new_concentrations = _nameserver_concentrations(dataset, bases)
    concentration_of = lambda base: new_concentrations.get(base, 0)  # noqa: E731
    flipped_bases = {
        base
        for base in old_concentrations.keys() | new_concentrations.keys()
        if (old_concentrations.get(base, 0) >= threshold)
        != (new_concentrations.get(base, 0) >= threshold)
    }
    old_ca_names = _endpoint_ca_names(prev.dataset)
    new_ca_names = _endpoint_ca_names(dataset)
    renamed_hosts = {
        host
        for host in old_ca_names.keys() | new_ca_names.keys()
        if old_ca_names.get(host) != new_ca_names.get(host)
    }

    prev_records = prev.dataset.by_domain()
    prev_classified = prev.by_domain()
    if changed is None:
        changed_set = {
            m.domain
            for m in dataset.websites
            if prev_records.get(m.domain) is not m
            and prev_records.get(m.domain) != m
        }
    else:
        changed_set = set(changed)

    graph = prev.graph
    websites = []
    reclassified: list = []
    for measurement in dataset.websites:
        domain = measurement.domain
        previous = prev_classified.get(domain)
        stale = (
            previous is None
            or domain in changed_set
            or not flipped_bases.isdisjoint(bases[id(measurement)])
            or (previous.ca.ca_host and previous.ca.ca_host in renamed_hosts)
        )
        if stale:
            website = classify_website(
                measurement, concentration_of, threshold, new_ca_names,
                base_of,
            )
            reclassified.append(website)
        else:
            website = previous
        websites.append(website)

    # -- graph surgery ------------------------------------------------------
    alive = {w.domain for w in websites}
    for domain in sorted(prev_classified.keys() - alive):
        graph.remove_website(domain)
    for website in reclassified:
        graph.remove_website(website.domain)
        graph.add_website(website.domain)
        for provider, critical in website_graph_edges(website):
            graph.add_website_dependency(
                website.domain, provider, critical=critical
            )

    interservice, edges = classify_interservice(
        dataset, concentration_of, threshold, base_of
    )
    old_pairs = _edge_pairs(prev.interservice_edges)
    new_pairs = _edge_pairs(edges)
    for (consumer, provider), critical in old_pairs.items():
        if new_pairs.get((consumer, provider)) != critical:
            graph.remove_provider_dependency(consumer, provider)
    for (consumer, provider), critical in new_pairs.items():
        if old_pairs.get((consumer, provider)) != critical:
            graph.add_provider_dependency(consumer, provider, critical)

    display_names = dict(
        dns_display_names
        if dns_display_names is not None
        else prev.dns_display_names
    )
    display_nodes = {
        ProviderNode(base, ServiceType.DNS): name
        for base, name in display_names.items()
    }
    for node, display in display_nodes.items():
        if graph.display_names.get(node) != display:
            graph.add_provider(node, display)

    # Prune providers a from-scratch build would not create: nodes no
    # longer referenced by any website edge, inter-service edge, or
    # display-name entry.
    referenced: set[ProviderNode] = set(display_nodes)
    for consumer, provider in new_pairs:
        referenced.add(consumer)
        referenced.add(provider)
    for node in graph.providers():
        if node in referenced:
            continue
        if graph.direct_concentration(node) == 0:
            graph.remove_provider(node)

    return AnalyzedSnapshot(
        year=dataset.year,
        dataset=dataset,
        websites=websites,
        graph=graph,
        interservice=interservice,
        interservice_edges=edges,
        dns_display_names=display_names,
        rank_scale=prev.rank_scale,
        concentration_threshold=threshold,
    )
