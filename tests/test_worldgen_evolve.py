"""Tests for the 2016→2020 evolution machinery."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.worldgen.config import WorldConfig
from repro.worldgen.evolve import (
    CumulativeRates,
    DNS_PVT_TO_SINGLE_THIRD,
    _annulus_of,
    _apply_quota,
    _apply_website_transitions,
    _rebalance_market,
    _sanitize_against_market,
    _set_dns_provider,
    evolve_to_2020,
)
from repro.worldgen.generate import generate_snapshot
from repro.worldgen.spec import DnsSetup, PRIVATE, SnapshotSpec, WebsiteSpec


@pytest.fixture(scope="module")
def evolved_pair():
    config = WorldConfig(n_websites=1500, seed=13)
    base = generate_snapshot(replace(config, year=2016))
    spec_2020, churn = evolve_to_2020(base, config)
    return base, spec_2020, churn


class TestCumulativeRates:
    def test_annulus_conversion(self):
        rates = CumulativeRates(0.0, 7.4, 9.8, 10.7).annulus_rates()
        # k=100 bucket: 0%; (100,1K]: (74-0)/900; (1K,10K]: (980-74)/9000...
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(74 / 900 * 100)
        assert rates[2] == pytest.approx((980 - 74) / 9000 * 100)
        assert rates[3] == pytest.approx((10_700 - 980) / 90_000 * 100)

    def test_uniform_rates(self):
        rates = CumulativeRates(5.0, 5.0, 5.0, 5.0).annulus_rates()
        for rate in rates:
            assert rate == pytest.approx(5.0)

    def test_decreasing_cumulative_clamps_to_zero(self):
        rates = CumulativeRates(10.0, 1.0, 0.5, 0.1).annulus_rates()
        assert rates[0] == pytest.approx(10.0)
        assert all(r >= 0.0 for r in rates)


class TestEvolution:
    def test_population_preserved(self, evolved_pair):
        base, spec_2020, churn = evolved_pair
        assert len(spec_2020.websites) == len(base.websites)
        assert len(churn.dead) + len(churn.survivors) == len(base.websites)

    def test_dead_sites_absent(self, evolved_pair):
        _, spec_2020, churn = evolved_pair
        domains_2020 = set(spec_2020.website_by_domain())
        assert not set(churn.dead) & domains_2020

    def test_newcomers_present(self, evolved_pair):
        _, spec_2020, churn = evolved_pair
        domains_2020 = set(spec_2020.website_by_domain())
        assert set(churn.newcomers) <= domains_2020

    def test_dns_transition_rates_near_paper(self, evolved_pair):
        base, spec_2020, _ = evolved_pair
        old = base.website_by_domain()
        new = spec_2020.website_by_domain()
        common = set(old) & set(new)
        pvt_to_third = sum(
            1 for d in common
            if not old[d].dns.uses_third_party and new[d].dns.is_critical
        ) / len(common)
        third_to_pvt = sum(
            1 for d in common
            if old[d].dns.is_critical and not new[d].dns.uses_third_party
        ) / len(common)
        assert pvt_to_third == pytest.approx(0.107, abs=0.03)
        assert third_to_pvt == pytest.approx(0.060, abs=0.025)

    def test_critical_dependency_increases(self, evolved_pair):
        base, spec_2020, _ = evolved_pair
        crit16 = sum(1 for w in base.websites if w.dns.is_critical) / len(base.websites)
        crit20 = sum(1 for w in spec_2020.websites if w.dns.is_critical) / len(
            spec_2020.websites
        )
        assert 0.01 <= crit20 - crit16 <= 0.09  # paper: +4.7%

    def test_https_adoption_grows(self, evolved_pair):
        base, spec_2020, _ = evolved_pair
        https16 = sum(1 for w in base.websites if w.https) / len(base.websites)
        https20 = sum(1 for w in spec_2020.websites if w.https) / len(spec_2020.websites)
        assert https20 > https16
        assert https20 == pytest.approx(0.78, abs=0.04)

    def test_cdn_usage_grows(self, evolved_pair):
        base, spec_2020, _ = evolved_pair
        cdn16 = sum(1 for w in base.websites if w.uses_cdn) / len(base.websites)
        cdn20 = sum(1 for w in spec_2020.websites if w.uses_cdn) / len(spec_2020.websites)
        assert cdn20 > cdn16

    def test_dyn_exodus(self, evolved_pair):
        base, spec_2020, _ = evolved_pair
        dyn16 = sum(1 for w in base.websites if "dyn" in w.dns.providers)
        dyn20 = sum(1 for w in spec_2020.websites if "dyn" in w.dns.providers)
        assert dyn20 < dyn16  # the post-attack shrink (2% -> 0.6%)

    def test_symantec_customers_migrated(self, evolved_pair):
        _, spec_2020, _ = evolved_pair
        assert not any(
            w.ca_key == "symantec" for w in spec_2020.websites if w.https
        )

    def test_no_dangling_provider_references(self, evolved_pair):
        _, spec_2020, _ = evolved_pair
        for website in spec_2020.websites:
            for provider in website.dns.providers:
                assert provider == PRIVATE or provider in spec_2020.dns_providers
            for cdn in website.cdns:
                assert cdn == PRIVATE or cdn in spec_2020.cdns
            if website.https and website.ca_key not in (None, PRIVATE):
                assert website.ca_key in spec_2020.cas

    def test_pinned_corner_sites_follow_their_script(self, evolved_pair):
        _, spec_2020, _ = evolved_pair
        by_domain = spec_2020.website_by_domain()
        twitter = by_domain["twitter.com"]
        assert set(twitter.dns.providers) == {"dyn", PRIVATE}  # added redundancy
        espn = by_domain["espn.com"]
        assert espn.dns.providers == ("aws-dns",)  # private -> single third
        microsoft = by_domain["microsoft.com"]
        assert not microsoft.ocsp_stapled  # dropped stapling


def _site(domain, rank, **kw):
    return WebsiteSpec(domain=domain, rank=rank, entity=domain, **kw)


class TestQuotaAccounting:
    @settings(max_examples=50, deadline=None)
    @given(
        rates=st.tuples(*(st.floats(0, 100) for _ in range(4))),
        n=st.integers(100, 400),
        eligible_every=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_applied_never_exceeds_eligible_or_base(
        self, rates, n, eligible_every, seed
    ):
        """The quota invariant: per annulus, applications are bounded by
        the base population, and only eligible sites are ever acted on."""
        config = WorldConfig(n_websites=1000, seed=1)
        websites = [_site(f"w{i}.test", i + 1) for i in range(n)]
        eligible = lambda w: w.rank % eligible_every == 0  # noqa: E731
        touched = []
        applied = _apply_quota(
            websites,
            config,
            CumulativeRates(*rates),
            eligible=eligible,
            action=touched.append,
            rng=random.Random(seed),
        )
        assert applied == len(touched)
        assert applied <= sum(1 for w in websites if eligible(w))
        in_buckets = sum(
            1 for w in websites
            if _annulus_of(config.effective_rank(w.rank)) is not None
        )
        assert applied <= in_buckets
        assert all(eligible(w) for w in touched)

    def test_annulus_of_rank_beyond_top_100k_is_none(self):
        """Small worlds scale tail ranks past the paper's last bucket;
        those sites belong to no annulus (regression: they used to land
        in the (10K,100K] bucket and inflate its quota base)."""
        assert _annulus_of(100_000) == 3
        assert _annulus_of(100_001) is None
        assert _annulus_of(150_000.0) is None

    def test_quota_skips_sites_beyond_top_100k(self):
        config = WorldConfig(n_websites=100, seed=1)  # rank_scale = 1000
        websites = [_site(f"w{i}.test", i + 1) for i in range(150)]
        touched = []
        _apply_quota(
            websites,
            config,
            CumulativeRates(100.0, 100.0, 100.0, 100.0),
            eligible=lambda w: True,
            action=touched.append,
            rng=random.Random(7),
        )
        assert touched
        assert all(
            config.effective_rank(w.rank) <= 100_000 for w in touched
        )


class TestStaplingQuotaBase:
    def test_zero_2016_https_world_staples_only_new_adopters(self):
        """Table 5's denominators are 2016-HTTPS sites. With none, the
        stapling quotas must apply to nobody — newly adopted sites draw
        from NEW_HTTPS_STAPLING_RATE alone (regression: the quota base
        once included the adopters themselves, double-applying)."""
        base = generate_snapshot(WorldConfig(n_websites=800, seed=3, year=2016))
        for website in base.websites:
            website.https = False
            website.ocsp_stapled = False
            website.ca_key = None
        _apply_website_transitions(
            base.websites,
            WorldConfig(n_websites=800, seed=3),
            base.dns_providers,
            base.cdns,
            base.cas,
            random.Random(11),
            https_target=0.5,
        )
        adopters = [w for w in base.websites if w.https]
        assert adopters
        stapled = sum(1 for w in adopters if w.ocsp_stapled) / len(adopters)
        assert stapled == pytest.approx(0.119, abs=0.06)
        assert not any(w.ocsp_stapled for w in base.websites if not w.https)


class TestCdnTransitions:
    def test_no_duplicate_cdn_entries_after_evolution(self, evolved_pair):
        """Redundancy additions must decline rather than duplicate an
        existing CDN (regression: quota was burnt on no-op duplicates)."""
        _, spec_2020, _ = evolved_pair
        for website in spec_2020.websites:
            assert len(website.cdns) == len(set(website.cdns)), website.domain


class TestSanitize:
    def test_two_dead_providers_collapse_to_one_private(self):
        config = WorldConfig(n_websites=100, seed=1)
        base = generate_snapshot(replace(config, year=2016))
        website = _site(
            "doomed.test", 5,
            dns=DnsSetup(providers=["dead-a", "dead-b"], soa_masked=False),
        )
        spec = SnapshotSpec(
            year=2020,
            websites=[website],
            dns_providers=base.dns_providers,
            cdns=base.cdns,
            cas=base.cas,
        )
        _sanitize_against_market(spec, random.Random(2), config)
        assert website.dns.providers == (PRIVATE,)


class _FakeProvider:
    def __init__(self, share_weight):
        self.share_weight = share_weight


class TestRebalanceDeadBand:
    def _slots(self, counts):
        websites = []
        rank = 1
        for key, count in counts.items():
            for _ in range(count):
                websites.append(
                    _site(f"w{rank}.test", rank, dns=DnsSetup(providers=[key]))
                )
                rank += 1
        return websites

    def test_within_band_imbalance_is_left_alone(self):
        websites = self._slots({"a": 55, "b": 45})
        market = {"a": _FakeProvider(1.0), "b": _FakeProvider(1.0)}
        _rebalance_market(
            websites, market, random.Random(5),
            get_keys=lambda w: w.dns.providers,
            set_key=_set_dns_provider,
            tolerance=1.0,
        )
        counts = {"a": 0, "b": 0}
        for w in websites:
            counts[w.dns.providers[0]] += 1
        assert counts == {"a": 55, "b": 45}  # |55-50| <= sqrt(50)

    def test_beyond_band_excess_is_shed(self):
        websites = self._slots({"a": 90, "b": 10})
        market = {"a": _FakeProvider(1.0), "b": _FakeProvider(1.0)}
        _rebalance_market(
            websites, market, random.Random(5),
            get_keys=lambda w: w.dns.providers,
            set_key=_set_dns_provider,
            tolerance=1.0,
        )
        counts = {"a": 0, "b": 0}
        for w in websites:
            counts[w.dns.providers[0]] += 1
        assert counts["a"] < 90
        assert counts["b"] > 10

    def test_zero_tolerance_lands_on_targets(self):
        websites = self._slots({"a": 100})
        market = {"a": _FakeProvider(1.0), "b": _FakeProvider(1.0)}
        _rebalance_market(
            websites, market, random.Random(5),
            get_keys=lambda w: w.dns.providers,
            set_key=_set_dns_provider,
        )
        moved = sum(1 for w in websites if w.dns.providers[0] == "b")
        assert moved == pytest.approx(50, abs=15)
