"""Tests for rank metrics, provider CDFs, and the end-to-end pipeline."""

from collections import Counter

import pytest

from repro.core import metrics
from repro.core.classification import ProviderType
from repro.core.incremental import refresh_snapshot
from repro.core.metrics import PAPER_BUCKETS
from repro.core.pipeline import analyze_dataset
from repro.names.psl import PublicSuffixList


class TestBucketStats:
    def test_dns_bucket_shapes(self, snapshot_2020):
        stats = metrics.rank_bucket_stats_dns(
            snapshot_2020.websites, snapshot_2020.rank_scale
        )
        assert [s.paper_k for s in stats] == list(PAPER_BUCKETS)
        full = stats[-1]
        assert full.values["third_party"] == pytest.approx(89.0, abs=6.0)
        assert full.values["critical"] == pytest.approx(85.0, abs=6.0)
        # Criticality grows down-rank (Observation 1). At small world sizes
        # the top buckets hold few sites, so compare the first populated
        # bucket with ≥30 sites and allow sampling noise.
        head = next(s for s in stats if s.n_websites >= 30)
        assert head.values["critical"] <= full.values["critical"] + 5.0

    def test_cdn_bucket_shapes(self, snapshot_2020):
        stats = metrics.rank_bucket_stats_cdn(
            snapshot_2020.websites, snapshot_2020.rank_scale
        )
        full = stats[-1]
        assert full.values["uses_cdn"] == pytest.approx(33.2, abs=7.0)
        assert full.values["third_party"] >= 90.0
        # Redundancy falls down-rank (Observation 3); sampling noise allowed.
        head = next(s for s in stats if s.n_websites >= 20)
        assert head.values["multiple_cdns"] >= full.values["multiple_cdns"] - 5.0

    def test_ca_bucket_shapes(self, snapshot_2020):
        stats = metrics.rank_bucket_stats_ca(
            snapshot_2020.websites, snapshot_2020.rank_scale
        )
        full = stats[-1]
        assert full.values["https"] == pytest.approx(78.0, abs=6.0)
        assert full.values["third_party_ca"] == pytest.approx(77.0, abs=7.0)
        assert full.values["ocsp_stapling"] == pytest.approx(17.0, abs=7.0)
        # HTTPS higher among popular sites; sampling noise allowed.
        head = next(s for s in stats if s.n_websites >= 20)
        assert head.values["https"] >= full.values["https"] - 6.0

    def test_bucket_label(self):
        from repro.core.metrics import BucketStats

        assert BucketStats(100, 1).label == "top-100"
        assert BucketStats(100_000, 1).label == "top-100K"

    def test_cdn_buckets_record_both_denominators(self, snapshot_2020):
        # Regression: the CDN builder recorded n_websites=n_users while
        # the uses_cdn rate is over the whole bucket; both now appear.
        stats = metrics.rank_bucket_stats_cdn(
            snapshot_2020.websites, snapshot_2020.rank_scale
        )
        for s in stats:
            assert s.n_bucket >= s.n_websites  # users are a subset
            if s.n_bucket:
                assert s.values["uses_cdn"] == pytest.approx(
                    100.0 * s.n_websites / s.n_bucket
                )

    def test_dns_buckets_record_bucket_size(self, snapshot_2020):
        stats = metrics.rank_bucket_stats_dns(
            snapshot_2020.websites, snapshot_2020.rank_scale
        )
        # n_websites is the characterized subset; n_bucket the whole bucket.
        assert all(s.n_bucket >= s.n_websites for s in stats)
        assert stats[-1].n_websites > 0


class TestProviderCdf:
    def test_counts_by_service(self, snapshot_2020):
        counts = metrics.provider_usage_counts(snapshot_2020.websites, "dns")
        assert counts  # non-empty
        assert all(v >= 1 for v in counts.values())

    def test_cdf_monotone_and_complete(self, snapshot_2020):
        counts = metrics.provider_usage_counts(snapshot_2020.websites, "cdn")
        cdf = metrics.provider_cdf(counts)
        ys = [y for _, y in cdf]
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_providers_covering(self, snapshot_2020):
        counts = {"a": 80, "b": 15, "c": 5}
        assert metrics.providers_covering(counts, 0.8) == 1
        assert metrics.providers_covering(counts, 0.95) == 2
        assert metrics.providers_covering(counts, 1.0) == 3

    def test_unknown_service_rejected(self, snapshot_2020):
        with pytest.raises(ValueError):
            metrics.provider_usage_counts(snapshot_2020.websites, "smtp")


class TestPipelineIntegration:
    def test_measurement_matches_ground_truth_dns(self, world_2020, snapshot_2020):
        truth = world_2020.spec.website_by_domain()
        mismatches = []
        for website in snapshot_2020.dns_characterized:
            expected = truth[website.domain].dns.uses_third_party
            if website.dns.uses_third_party != expected:
                mismatches.append(website.domain)
        # The paper validates its heuristic at 100%; allow a whisker.
        assert len(mismatches) <= len(snapshot_2020.dns_characterized) * 0.01, mismatches[:5]

    def test_measurement_matches_ground_truth_criticality(self, world_2020, snapshot_2020):
        truth = world_2020.spec.website_by_domain()
        mismatches = [
            w.domain
            for w in snapshot_2020.dns_characterized
            if w.dns.is_critical != truth[w.domain].dns.is_critical
        ]
        assert len(mismatches) <= len(snapshot_2020.dns_characterized) * 0.02, mismatches[:5]

    def test_measurement_matches_ground_truth_ca(self, world_2020, snapshot_2020):
        truth = world_2020.spec.website_by_domain()
        mismatches = []
        for website in snapshot_2020.websites:
            spec = truth[website.domain]
            if not spec.https:
                continue
            if website.ca.uses_third_party != spec.ca_is_third_party:
                mismatches.append(website.domain)
        assert len(mismatches) <= len(snapshot_2020.https_websites) * 0.02, mismatches[:5]

    def test_cdn_detection_recall(self, world_2020, snapshot_2020):
        truth = world_2020.spec.website_by_domain()
        missed = []
        for website in snapshot_2020.websites:
            spec = truth[website.domain]
            detectable = [c for c in spec.cdns if c in world_2020.spec.cdns]
            if detectable and not website.uses_cdn:
                missed.append(website.domain)
        assert len(missed) <= max(2, len(snapshot_2020.cdn_websites) * 0.02), missed[:5]

    def test_stapling_observed_faithfully(self, world_2020, snapshot_2020):
        truth = world_2020.spec.website_by_domain()
        for website in snapshot_2020.https_websites:
            assert website.ca.ocsp_stapled == truth[website.domain].ocsp_stapled

    def test_corner_case_classifications(self, snapshot_2020):
        by_domain = snapshot_2020.by_domain()
        # youtube: private DNS despite google.com nameservers.
        assert not by_domain["youtube.com"].dns.uses_third_party
        # twitter: third-party (Dyn) + private leg = redundant in 2020.
        twitter = by_domain["twitter.com"]
        assert twitter.dns.uses_third_party and twitter.dns.is_redundant
        # amazon: two third-party providers, redundant.
        amazon = by_domain["amazon.com"]
        assert amazon.dns.uses_multiple_third_parties
        # yahoo: CDN detected but private.
        yahoo = by_domain["yahoo.com"]
        assert yahoo.uses_cdn and not yahoo.third_party_cdns
        # instagram: facebook CDN detected as private via SAN.
        instagram = by_domain["instagram.com"]
        assert instagram.uses_cdn and not instagram.third_party_cdns
        # godaddy: private CA via SAN.
        assert by_domain["godaddy.com"].ca.type == ProviderType.PRIVATE

    def test_marquee_interservice_edges(self, snapshot_2020):
        inter = snapshot_2020.interservice
        digicert = inter.ca_dns.get("DigiCert")
        assert digicert is not None and digicert.is_critical
        assert digicert.third_party_provider_ids == ["dnsmadeeasy.com"]
        lets = inter.ca_cdn.get("Let's Encrypt")
        assert lets is not None and lets.third_party
        assert lets.cdn_names == ["Cloudflare CDN"]

    def test_amplification_shape(self, snapshot_2020):
        """Indirect dependencies amplify DNSMadeEasy ~1% -> ~25% (Obs. 9)."""
        from repro.core.graph import ProviderNode, ServiceType

        node = ProviderNode("dnsmadeeasy.com", ServiceType.DNS)
        n = len(snapshot_2020.websites)
        direct = snapshot_2020.graph.direct_impact(node) / n
        indirect = snapshot_2020.graph.impact(node) / n
        assert direct < 0.06
        assert indirect > direct + 0.10


class TestRegistrableMemo:
    """One analysis derives each name's registrable domain once, through
    a memo that dies with the call."""

    @pytest.fixture
    def psl_calls(self, monkeypatch) -> Counter:
        calls: Counter = Counter()
        real = PublicSuffixList.registrable_domain

        def counting(psl, name):
            calls[name] += 1
            return real(psl, name)

        monkeypatch.setattr(PublicSuffixList, "registrable_domain", counting)
        return calls

    @staticmethod
    def _analyze(snapshot):
        return analyze_dataset(
            snapshot.dataset,
            rank_scale=snapshot.rank_scale,
            dns_display_names=snapshot.dns_display_names,
        )

    def test_analysis_derives_each_name_once(self, snapshot_2020, psl_calls):
        first = self._analyze(snapshot_2020)
        once = dict(psl_calls)
        assert once and max(once.values()) == 1
        psl_calls.clear()
        second = self._analyze(snapshot_2020)
        # No result survives the first call: the second pays again.
        assert dict(psl_calls) == once
        assert first.provider_metrics() == second.provider_metrics()
        assert first.provider_metrics() == snapshot_2020.provider_metrics()

    def test_refresh_derives_each_name_once(self, snapshot_2020, psl_calls):
        dataset = snapshot_2020.dataset
        prev = self._analyze(snapshot_2020)
        psl_calls.clear()
        every = {m.domain for m in dataset.websites}
        refreshed = refresh_snapshot(prev, dataset, changed=every)
        assert psl_calls and max(psl_calls.values()) == 1
        assert refreshed.provider_metrics() == snapshot_2020.provider_metrics()
