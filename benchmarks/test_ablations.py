"""Ablation benchmarks for the design choices DESIGN.md calls out.

* Concentration-threshold sensitivity (the paper's ">= 50" knob): how the
  uncharacterized fraction and measured third-party rate move with it.
* Heuristic composition: the paper's validation experiment — combined
  ladder vs TLD-only vs SOA-only accuracy against ground truth.
* Indirect-dependency depth: direct vs one-hop vs full transitive closure
  for top-3 impact.
"""

from repro.core.classification import (
    ProviderType,
    classify_dns,
    classify_nameserver_soa_only,
    classify_nameserver_tld_only,
)
from repro.core.graph import ServiceType


def _reclassify(snapshot, threshold):
    from repro.core.pipeline import _nameserver_concentrations

    concentrations = _nameserver_concentrations(snapshot.dataset)
    out = []
    for m in snapshot.dataset.websites:
        out.append(
            classify_dns(
                m.dns, m.tls.san,
                concentration_of=lambda b: concentrations.get(b, 0),
                threshold=threshold,
            )
        )
    return out


def test_ablation_concentration_threshold(benchmark, snapshot_2020, worlds):
    """Sweep the DNS-heuristic concentration threshold."""
    _, world_2020, _ = worlds
    truth = world_2020.spec.website_by_domain()
    base = snapshot_2020.concentration_threshold

    def sweep():
        rows = []
        for threshold in (base, base * 5, base * 25):
            classified = _reclassify(snapshot_2020, threshold)
            characterized = [c for c in classified if c.characterized]
            third = sum(1 for c in characterized if c.uses_third_party)
            correct = sum(
                1 for c in characterized
                if c.uses_third_party == truth[c.domain].dns.uses_third_party
            )
            rows.append(
                (
                    threshold,
                    len(characterized) / len(classified),
                    third / max(len(characterized), 1),
                    correct / max(len(characterized), 1),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== ablation: DNS concentration threshold ==")
    print("threshold  characterized  third-party  accuracy")
    for threshold, characterized, third, accuracy in rows:
        print(f"{threshold:9d}  {characterized:12.1%}  {third:10.1%}  {accuracy:8.1%}")
    # Characterization falls as the threshold rises (more unknowns).
    assert rows[0][1] >= rows[-1][1]


def test_ablation_heuristic_vs_baselines(benchmark, snapshot_2020, worlds):
    """The paper's Section 3.1 validation: combined vs TLD vs SOA accuracy.

    Paper numbers (100-site manual sample): 100% / 97% / 56%.
    """
    _, world_2020, _ = worlds
    truth = world_2020.spec.website_by_domain()

    def evaluate():
        combined = tld_only = soa_only = total = 0
        for website in snapshot_2020.dns_characterized:
            spec = truth[website.domain]
            expected = spec.dns.uses_third_party
            total += 1
            if website.dns.uses_third_party == expected:
                combined += 1
            m = snapshot_2020.dataset.by_domain()[website.domain].dns
            tld_verdict = any(
                classify_nameserver_tld_only(m.domain, ns) == ProviderType.THIRD_PARTY
                for ns in m.nameservers
            )
            if tld_verdict == expected:
                tld_only += 1
            soa_verdict = any(
                classify_nameserver_soa_only(m.website_soa, m.nameserver_soas.get(ns))
                == ProviderType.THIRD_PARTY
                for ns in m.nameservers
            )
            if soa_verdict == expected:
                soa_only += 1
        return combined / total, tld_only / total, soa_only / total

    combined, tld_only, soa_only = benchmark.pedantic(
        evaluate, rounds=1, iterations=1
    )
    print("\n== ablation: heuristic composition accuracy (paper: 100/97/56%) ==")
    print(f"combined ladder: {combined:.1%}")
    print(f"TLD-only:        {tld_only:.1%}")
    print(f"SOA-only:        {soa_only:.1%}")
    assert combined >= tld_only >= soa_only
    assert combined > 0.98
    assert soa_only < 0.90  # provider-masked SOAs break the baseline


def test_ablation_indirect_depth(benchmark, snapshot_2020):
    """Impact with no / one-type / all inter-service dependency edges."""

    def evaluate():
        n = len(snapshot_2020.websites)
        variants = {
            "direct only": (),
            "+ CA->DNS": ("ca-dns",),
            "+ CA->CDN": ("ca-cdn",),
            "full closure": ("ca-dns", "ca-cdn", "cdn-dns"),
        }
        rows = []
        for label, kinds in variants.items():
            graph = snapshot_2020.restricted_graph(kinds)
            covered = set()
            for node, _ in graph.top_providers(ServiceType.DNS, 3, by="impact"):
                covered |= graph.dependent_websites(node, critical_only=True)
            rows.append((label, len(covered) / n))
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print("\n== ablation: indirect-dependency depth (top-3 DNS impact) ==")
    for label, fraction in rows:
        print(f"{label:14s} {fraction:.1%}")
    assert rows[-1][1] >= rows[0][1]


def test_ablation_capacity_sweep(benchmark, snapshot_2020):
    """Capacity model: expected loss vs botnet size for three provider
    classes (the §8.3 future-work experiment)."""
    from repro.failures import attack_sweep

    def sweep():
        out = {}
        for provider in ("dynect.net", "dnsmadeeasy.com", "cloudflare.com"):
            out[provider] = [
                (r.attack_volume_gbps, r.survival_rate,
                 r.expected_unavailable_websites)
                for r in attack_sweep(
                    snapshot_2020, provider,
                    [50_000, 600_000, 2_000_000, 8_000_000],
                )
            ]
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== ablation: capacity-aware attack sweep ==")
    for provider, rows in results.items():
        print(f"  {provider}:")
        for volume, survival, lost in rows:
            print(f"    {volume:>9,.0f} Gbps  survive {survival:6.1%}  "
                  f"expected sites lost {lost:7.1f}")
    # A hyperscaler outlasts a boutique provider at every volume.
    for (_, big, _), (_, small, _) in zip(
        results["cloudflare.com"], results["dnsmadeeasy.com"]
    ):
        assert big >= small


def test_ablation_vantage_coverage(benchmark, worlds):
    """Single vs multi-vantage measurement: how many (website, CDN) pairs a
    second region reveals (quantifying the paper's §3.5 limitation)."""
    from repro.engine import run_campaign

    _, world_2020, _ = worlds
    limit = min(400, len(world_2020.spec.websites))

    def measure():
        def pairs(dataset):
            return {
                (w.domain, cdn)
                for w in dataset.websites
                for cdn in w.cdn.detected_cdns
            }

        default = pairs(run_campaign(world=world_2020, limit=limit))
        cn = pairs(run_campaign(world=world_2020, limit=limit, region="cn"))
        return default, cn

    default, cn = benchmark.pedantic(measure, rounds=1, iterations=1)
    union = default | cn
    hidden = union - default
    print("\n== ablation: vantage-point coverage ==")
    print(f"(website, CDN) pairs from default vantage: {len(default)}")
    print(f"additional pairs from the cn vantage:      {len(hidden)}")
    print(f"single-vantage underestimation:            "
          f"{len(hidden) / max(len(union), 1):.1%}")
    assert len(union) >= len(default)


def test_ablation_stapling_adoption(benchmark, snapshot_2020):
    """What if OCSP (must-)stapling actually deployed? CA criticality vs
    hypothetical adoption (the Observation 5 discussion, quantified)."""
    from repro.failures.whatif import stapling_adoption_whatif

    def sweep():
        return stapling_adoption_whatif(
            snapshot_2020, [0.17, 0.29, 0.5, 0.75, 1.0]
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n== ablation: OCSP stapling adoption what-if ==")
    print("adoption   CA-critical (of HTTPS sites)")
    for rate, critical in rows:
        print(f"{rate:7.0%}   {critical:10.1%}")
    assert rows[-1][1] == 0.0
