"""What-if analysis: a website's critical-dependency exposure.

Implements the Section 8 recommendation machinery: enumerate a website's
critical providers (direct and transitive), and quantify how exposure
changes if redundancy were added — the "neutral service websites can
query before making business decisions" the paper envisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.graph import ProviderNode
from repro.core.pipeline import AnalyzedSnapshot
from repro.failures.outage import simulate_dns_outage
from repro.measurement.records import Dataset
from repro.worldgen.world import World


@dataclass
class ExposureReport:
    """One website's dependency exposure."""

    domain: str
    direct_critical: list[str] = field(default_factory=list)
    transitive_critical: list[str] = field(default_factory=list)
    critical_dependency_count: int = 0
    single_points_of_failure: list[str] = field(default_factory=list)

    @property
    def total_critical(self) -> int:
        return self.critical_dependency_count


def website_exposure(snapshot: AnalyzedSnapshot, domain: str) -> ExposureReport:
    """Enumerate every provider whose sole failure can take ``domain`` down."""
    graph = snapshot.graph
    report = ExposureReport(domain=domain)
    direct = graph.website_dependencies(domain, critical_only=True)
    report.direct_critical = sorted(graph.display(n) for n in direct)

    seen: set[ProviderNode] = set(direct)
    frontier = list(direct)
    while frontier:
        node = frontier.pop()
        for upstream in graph.provider_dependencies(node, critical_only=True):
            if upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    transitive = seen - direct
    report.transitive_critical = sorted(graph.display(n) for n in transitive)
    report.critical_dependency_count = len(seen)
    report.single_points_of_failure = sorted(graph.display(n) for n in seen)
    return report


def exposure_distribution(snapshot: AnalyzedSnapshot) -> dict[int, int]:
    """Histogram: number of critical dependencies per website (Section 8.1's
    '25% of websites have 3 critical dependencies' statistic)."""
    histogram: dict[int, int] = {}
    for website in snapshot.websites:
        count = snapshot.graph.critical_dependency_count(website.domain)
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


@dataclass
class RobustnessScore:
    """The composite 'defense metric' the paper's §8.3 calls for.

    Starts from 1.0 and discounts per single point of failure, weighting
    direct SPOFs more than transitive ones, and concentrated providers
    (attractive targets) more than boutique ones.
    """

    domain: str
    score: float
    direct_spofs: int
    transitive_spofs: int
    worst_provider: str = ""
    worst_provider_impact: float = 0.0


def robustness_score(snapshot: AnalyzedSnapshot, domain: str) -> RobustnessScore:
    """Score a website's resilience to single-provider failures in [0, 1].

    1.0 = no provider's sole failure can take the site down. Each direct
    SPOF costs up to 0.25 and each transitive SPOF up to 0.10, scaled by
    the provider's measured impact share (a Cloudflare-sized SPOF is a
    bigger magnet for attacks than a boutique one, per §8.1).
    """
    graph = snapshot.graph
    population = max(len(snapshot.websites), 1)
    report = website_exposure(snapshot, domain)
    direct = graph.website_dependencies(domain, critical_only=True)
    transitive_names = set(report.transitive_critical)

    # One batch sweep covers every direct SPOF's impact share.
    metrics = graph.provider_metrics()
    score = 1.0
    worst = ("", 0.0)
    for node in sorted(direct, key=str):
        impact_share = metrics[node].impact / population
        score -= 0.25 * (0.4 + 0.6 * impact_share)
        if impact_share >= worst[1]:
            worst = (graph.display(node), impact_share)
    # Transitive SPOFs discount less: they need a longer causal chain.
    score -= 0.10 * len(transitive_names)
    return RobustnessScore(
        domain=domain,
        score=max(0.0, round(score, 3)),
        direct_spofs=len(direct),
        transitive_spofs=len(transitive_names),
        worst_provider=worst[0],
        worst_provider_impact=round(worst[1], 3),
    )


def stapling_adoption_whatif(
    snapshot: AnalyzedSnapshot, adoption_rates: list[float]
) -> list[tuple[float, float]]:
    """CA critical-dependency rate under hypothetical stapling adoption.

    The paper (Obs. 5) ties CA criticality to missing OCSP stapling and
    blames poor server/browser support for its ~17% adoption. This sweep
    answers the "what if must-staple actually deployed" question: at each
    hypothetical adoption rate, the currently-unstapled third-party-CA
    websites most likely to adopt (deterministically, by rank — popular
    sites adopt first) flip to stapled, and the critical rate is recomputed.

    Returns (adoption_rate, fraction of HTTPS sites critically dependent).
    """
    https_sites = snapshot.https_websites
    if not https_sites:
        return [(rate, 0.0) for rate in adoption_rates]
    stapled_now = [w for w in https_sites if w.ca.ocsp_stapled]
    unstapled = sorted(
        (w for w in https_sites if not w.ca.ocsp_stapled),
        key=lambda w: w.rank,
    )
    results: list[tuple[float, float]] = []
    for rate in adoption_rates:
        target_stapled = round(rate * len(https_sites))
        extra = max(0, target_stapled - len(stapled_now))
        flipped = {w.domain for w in unstapled[:extra]}
        critical = sum(
            1 for w in https_sites
            if w.ca.uses_third_party
            and not w.ca.ocsp_stapled
            and w.domain not in flipped
        )
        results.append((rate, critical / len(https_sites)))
    return results


@dataclass
class OutageValidationReport:
    """An end-to-end probe vs the measurement pipeline, under one plan.

    ``predicted`` holds the domains whose landing page a cold-cache
    probe (:func:`simulate_dns_outage`, no resource checks) cannot load
    under the provider's outage plan; ``measured`` holds the domains a
    measurement campaign under the same plan records as not resolvable
    (``dns.resolvable`` false). Perfect agreement means a browser-like
    fetch and the DNS measurer reach identical conclusions about who
    breaks. Neither side reads the dependency graph: the graph's own
    prediction is :func:`~repro.failures.outage.predicted_dns_victims`,
    which can name more sites than break.
    """

    provider_key: str
    predicted: list[str] = field(default_factory=list)
    measured: list[str] = field(default_factory=list)
    agree: list[str] = field(default_factory=list)
    only_predicted: list[str] = field(default_factory=list)
    only_measured: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.only_predicted and not self.only_measured

    def agreement_rate(self) -> float:
        union = len(self.agree) + len(self.only_predicted) + len(self.only_measured)
        return len(self.agree) / union if union else 1.0


def validate_outage_prediction(
    world: World, provider_key: str, measured: Dataset
) -> OutageValidationReport:
    """Check the measurement pipeline against an end-to-end probe.

    ``measured`` is ``repro.engine.run_campaign`` over ``world`` under
    ``outage_fault_plan(world, "dns", provider_key)``. Over exactly its
    websites, compares the domains it found unresolvable with the ones
    whose landing page :func:`simulate_dns_outage` cannot load under
    that same plan.
    """
    domains = [w.domain for w in measured.websites]
    predicted = simulate_dns_outage(
        world, provider_key, domains=domains, check_resources=False
    )
    predicted_down = set(predicted.unreachable)
    measured_down = {
        w.domain for w in measured.websites if not w.dns.resolvable
    }
    return OutageValidationReport(
        provider_key=provider_key,
        predicted=sorted(predicted_down),
        measured=sorted(measured_down),
        agree=sorted(predicted_down & measured_down),
        only_predicted=sorted(predicted_down - measured_down),
        only_measured=sorted(measured_down - predicted_down),
    )


def redundancy_benefit(
    snapshot: AnalyzedSnapshot, domain: str, service: str
) -> int:
    """How many single points of failure adding redundancy for ``service``
    would remove (critical providers of that service become non-critical)."""
    graph = snapshot.graph
    before = website_exposure(snapshot, domain).critical_dependency_count
    # Making the direct edge redundant also severs its transitive chain for
    # this website; recompute by excluding those roots.
    remaining_roots = [
        node
        for node in graph.website_dependencies(domain, critical_only=True)
        if node.service.value != service
    ]
    seen = set(remaining_roots)
    frontier = list(remaining_roots)
    while frontier:
        node = frontier.pop()
        for upstream in graph.provider_dependencies(node, critical_only=True):
            if upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    after = len(seen)
    return before - after
