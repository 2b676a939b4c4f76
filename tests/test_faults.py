"""Tests for deterministic fault injection (repro.faults).

Covers the three layers of the subsystem — the seeded source (pure-key
draws), the declarative plan (validation + serialization), the runtime
injector (matching, probabilities, rank windows) — and then the fault
kinds end-to-end through the simulators: DNS drops/SERVFAIL/lame/
truncate/slow against the resolver's retry policy, web timeouts and
5xx against the crawler's retry loop, and expired OCSP windows.

The campaign-level guarantees (empty-plan equivalence, replay
determinism, degraded records) live in :class:`TestFaultedCampaigns`;
cross-worker chaos determinism lives in ``test_engine.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import WorldConfig, build_world
from repro.dnssim.resolver import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.faults import (
    DNS_FAULT_KINDS,
    FAULT_LAYERS,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    SeededFaultSource,
    TLS_FAULT_KINDS,
    WEB_FAULT_KINDS,
)
from repro.engine import CampaignStats, run_campaign
from repro.measurement.io import dataset_to_json

FAULTS_N = 120
FAULTS_SEED = 5


@pytest.fixture(scope="module")
def faults_config() -> WorldConfig:
    return WorldConfig(n_websites=FAULTS_N, seed=FAULTS_SEED)


@pytest.fixture(scope="module")
def world(faults_config):
    # Shared: a fault plan and the clock it advances belong to the
    # vantage a test takes, so nothing leaks between tests.
    return build_world(faults_config)


def _rank1_domain(world) -> str:
    return min(world.spec.websites, key=lambda w: w.rank).domain


def _dns_rule(domain: str, kind: str, **overrides) -> FaultRule:
    defaults = dict(
        name=f"{kind}-{domain}", layer="dns", kind=kind,
        scope=domain, probability=1.0,
    )
    defaults.update(overrides)
    return FaultRule(**defaults)


class TestSeededFaultSource:
    def test_unit_is_a_pure_function_of_the_key(self):
        source = SeededFaultSource(42)
        first = source.unit("dns", "ns1.example.net", "site.com", "A", 0)
        for _ in range(5):
            # Interleave unrelated draws: they must not shift the result.
            source.unit("other", "key")
            assert source.unit("dns", "ns1.example.net", "site.com", "A", 0) == first

    def test_unit_stays_in_unit_interval_and_is_roughly_uniform(self):
        source = SeededFaultSource(7)
        draws = [source.unit("k", i) for i in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_key_parts_are_separated(self):
        # ("ab", "c") must hash differently from ("a", "bc").
        source = SeededFaultSource(0)
        assert source.unit("ab", "c") != source.unit("a", "bc")

    def test_different_seeds_give_different_draws(self):
        key = ("dns", "ns1.example.net", "site.com")
        assert SeededFaultSource(1).unit(*key) != SeededFaultSource(2).unit(*key)

    def test_streams_are_named_seeded_and_independent(self):
        source = SeededFaultSource(3)
        a1 = [source.stream("alpha").random() for _ in range(3)]
        a2 = [source.stream("alpha").random() for _ in range(3)]
        assert a1 == a2  # same name restarts the same sequence
        assert source.stream("alpha").random() != source.stream("beta").random()


class TestSuffixMatching:
    def test_star_matches_everything(self):
        rule = FaultRule(name="r", layer="dns", kind="drop", scope="*")
        assert rule.matches_name("anything.example.com")
        assert rule.matches_name("")

    @pytest.mark.parametrize(
        "pattern", ["example.com", "*.example.com", ".example.com", "example.com."]
    )
    def test_suffix_forms_are_equivalent(self, pattern):
        rule = FaultRule(name="r", layer="dns", kind="drop", scope=pattern)
        assert rule.matches_name("example.com")
        assert rule.matches_name("www.example.com")
        assert rule.matches_name("EXAMPLE.COM.")
        assert not rule.matches_name("badexample.com")
        assert not rule.matches_name("example.org")

    def test_server_pattern_uses_the_same_semantics(self):
        rule = FaultRule(name="r", layer="dns", kind="drop", server="dynect.net")
        assert rule.matches_server("ns1.dynect.net")
        assert not rule.matches_server("ns1.ultradns.net")


class TestFaultRuleValidation:
    def test_valid_rules_have_no_problems(self):
        for layer, kinds in (
            ("dns", DNS_FAULT_KINDS),
            ("web", WEB_FAULT_KINDS),
            ("tls", TLS_FAULT_KINDS),
        ):
            assert layer in FAULT_LAYERS
            for kind in kinds:
                rule = FaultRule(
                    name=f"{layer}-{kind}", layer=layer, kind=kind,
                    probability=0.5, delay=1.0 if kind == "slow" else 0.0,
                )
                assert rule.validate() == []

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(layer="smtp"), "unknown layer"),
            (dict(kind="http_error"), "unknown dns fault kind"),
            (dict(probability=1.5), "outside [0, 1]"),
            (dict(probability=-0.1), "outside [0, 1]"),
            (dict(rank_window=(5, 2)), "rank_window"),
            (dict(rank_window=(0, 3)), "rank_window"),
            (dict(kind="slow"), "delay > 0"),
            (dict(delay=-1.0), "delay must be >= 0"),
            (dict(name=""), "non-empty name"),
        ],
    )
    def test_invalid_rules_name_the_problem(self, overrides, fragment):
        rule = dataclasses.replace(
            FaultRule(name="r", layer="dns", kind="drop"), **overrides
        )
        problems = rule.validate()
        assert problems, f"expected a problem for {overrides}"
        assert any(fragment in p for p in problems)

    def test_http_error_requires_a_5xx_status(self):
        rule = FaultRule(name="r", layer="web", kind="http_error", status=404)
        assert any("5xx" in p for p in rule.validate())

    def test_plan_rejects_duplicate_rule_names(self):
        rule = FaultRule(name="same", layer="dns", kind="drop")
        plan = FaultPlan(rules=(rule, dataclasses.replace(rule, scope="x.com")))
        assert any("duplicate" in p for p in plan.validate())


class TestFaultPlanSerialization:
    def _plan(self) -> FaultPlan:
        return FaultPlan(
            rules=(
                FaultRule(name="a", layer="dns", kind="drop",
                          server="dynect.net", probability=0.4),
                FaultRule(name="b", layer="web", kind="http_error",
                          scope="site.com", status=502, rank_window=(1, 5)),
                FaultRule(name="c", layer="dns", kind="slow", delay=2.5),
                FaultRule(name="d", layer="tls", kind="ocsp_expired"),
            ),
            seed=99,
        )

    def test_json_roundtrip_is_exact(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_digest_is_stable_and_content_sensitive(self):
        plan = self._plan()
        assert plan.digest() == self._plan().digest()
        assert plan.digest() != dataclasses.replace(plan, seed=100).digest()
        assert plan.digest() != FaultPlan().digest()

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not self._plan().empty
        assert FaultPlan.from_json(FaultPlan().to_json()) == FaultPlan()

    def test_rules_for_partitions_by_layer(self):
        plan = self._plan()
        assert [r.name for r in plan.rules_for("dns")] == ["a", "c"]
        assert [r.name for r in plan.rules_for("web")] == ["b"]
        assert [r.name for r in plan.rules_for("tls")] == ["d"]

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[]",
            '{"rules": [{"name": "r"}]}',
            '{"rules": [{"name": "r", "layer": "dns", "kind": "nope"}]}',
            '{"rules": [{"name": "r", "layer": "dns", "kind": "drop", '
            '"probability": 2.0}]}',
        ],
    )
    def test_malformed_plans_raise_fault_plan_error(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json(text)


class TestInvalidPlansAreRefused:
    def test_vantage_and_campaign_refuse_before_measuring(self):
        plan = FaultPlan(rules=(
            FaultRule(name="bad", layer="dns", kind="nope", probability=2.0),
        ))
        world = build_world(WorldConfig(n_websites=100, seed=5))
        with pytest.raises(FaultPlanError) as excinfo:
            world.vantage(faults=plan)
        assert "unknown dns fault kind 'nope'" in str(excinfo.value)
        assert "probability 2.0 outside [0, 1]" in str(excinfo.value)
        stats = CampaignStats()
        with pytest.raises(FaultPlanError):
            run_campaign(world=world, fault_plan=plan, stats=stats)
        assert stats.sites_done == 0


class TestFaultInjector:
    def test_probability_one_always_fires(self):
        plan = FaultPlan(rules=(FaultRule(name="r", layer="dns", kind="drop"),))
        injector = FaultInjector(plan)
        for attempt in range(5):
            rule = injector.dns_fault("ns1.x.net", "10.0.0.1", "a.com", "A", attempt)
            assert rule is not None and rule.name == "r"

    def test_probability_zero_never_fires(self):
        plan = FaultPlan(
            rules=(FaultRule(name="r", layer="dns", kind="drop", probability=0.0),)
        )
        injector = FaultInjector(plan)
        for attempt in range(5):
            assert injector.dns_fault("ns1.x.net", "10.0.0.1", "a.com", "A", attempt) is None

    def test_decisions_are_pure_per_key(self):
        plan = FaultPlan(
            rules=(FaultRule(name="r", layer="dns", kind="drop", probability=0.5),),
            seed=13,
        )
        injector = FaultInjector(plan)
        outcomes = [
            injector.dns_fault("ns1.x.net", "10.0.0.1", f"site{i}.com", "A", 0)
            for i in range(50)
        ]
        replayed = [
            injector.dns_fault("ns1.x.net", "10.0.0.1", f"site{i}.com", "A", 0)
            for i in range(50)
        ]
        assert outcomes == replayed
        assert any(o is not None for o in outcomes)
        assert any(o is None for o in outcomes)

    def test_firing_rate_tracks_probability(self):
        plan = FaultPlan(
            rules=(FaultRule(name="r", layer="dns", kind="drop", probability=0.3),),
            seed=4,
        )
        injector = FaultInjector(plan)
        fired = sum(
            injector.dns_fault("ns1.x.net", "10.0.0.1", f"s{i}.com", "A", 0)
            is not None
            for i in range(1000)
        )
        assert 0.22 < fired / 1000 < 0.38

    def test_server_scope_is_respected(self):
        plan = FaultPlan(
            rules=(
                FaultRule(name="r", layer="dns", kind="drop", server="dynect.net"),
            )
        )
        injector = FaultInjector(plan)
        assert injector.dns_fault("ns1.dynect.net", "10.0.0.1", "a.com", "A", 0)
        assert injector.dns_fault("ns1.ultradns.net", "10.0.0.1", "a.com", "A", 0) is None

    def test_rank_window_needs_site_context(self):
        plan = FaultPlan(
            rules=(
                FaultRule(name="r", layer="dns", kind="drop", rank_window=(10, 20)),
            )
        )
        injector = FaultInjector(plan)
        probe = ("ns1.x.net", "10.0.0.1", "a.com", "A", 0)
        assert injector.dns_fault(*probe) is None  # no site context
        injector.set_site(15)
        assert injector.dns_fault(*probe) is not None  # inside the window
        injector.set_site(21)
        assert injector.dns_fault(*probe) is None  # outside the window
        injector.clear_site()
        assert injector.dns_fault(*probe) is None  # dormant again

    def test_web_hooks_dispatch_by_kind(self):
        plan = FaultPlan(
            rules=(
                FaultRule(name="t", layer="web", kind="timeout"),
                FaultRule(name="e", layer="web", kind="http_error", status=503),
            )
        )
        injector = FaultInjector(plan)
        connect = injector.web_connect_fault("srv.x.net", "10.0.0.1", "a.com", 0)
        request = injector.web_request_fault("srv.x.net", "a.com", "/", 0)
        assert connect is not None and connect.kind == "timeout"
        assert request is not None and request.kind == "http_error"

    def test_tls_hook_matches_kind_and_responder(self):
        plan = FaultPlan(
            rules=(
                FaultRule(name="o", layer="tls", kind="ocsp_expired",
                          server="ocsp.ca.example"),
            )
        )
        injector = FaultInjector(plan)
        assert injector.tls_fault("ocsp_expired", "ocsp.ca.example", 7) is not None
        assert injector.tls_fault("crl_stale", "ocsp.ca.example", 7) is None
        assert injector.tls_fault("ocsp_expired", "ocsp.other.example", 7) is None


class TestRetryPolicy:
    def test_defaults(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.timeout_budget > 0

    def test_backoff_is_deterministic_exponential(self):
        policy = RetryPolicy(backoff_base=0.25, backoff_factor=2.0)
        assert [policy.backoff(a) for a in (1, 2, 3)] == [0.25, 0.5, 1.0]
        assert policy.backoff(1) == policy.backoff(1)


class TestDnsFaultBehaviour:
    def test_drop_exhausts_retries_then_fails(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(rules=(_dns_rule(domain, "drop"),))
        )
        assert not vantage.dig.is_resolvable(domain)
        status = vantage.dig.last_status
        assert status.attempts == DEFAULT_RETRY_POLICY.max_attempts
        assert status.failure.startswith("dns:")
        assert status.degraded
        assert vantage.resolver.stats.retries > 0

    def test_servfail_is_reported_as_upstream_rcode(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(rules=(_dns_rule(domain, "servfail"),))
        )
        assert not vantage.dig.is_resolvable(domain)
        assert "SERVFAIL" in vantage.dig.last_status.failure

    @pytest.mark.parametrize("kind", ["refused", "lame", "truncate"])
    def test_degenerate_responses_break_resolution(self, world, kind):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(rules=(_dns_rule(domain, kind),))
        )
        assert not vantage.dig.is_resolvable(domain)
        assert vantage.dig.last_status.degraded

    def test_slow_advances_the_clock_but_answers(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(rules=(_dns_rule(domain, "slow", delay=5.0),))
        )
        before = vantage.clock.now()
        assert vantage.dig.is_resolvable(domain)
        assert vantage.clock.now() >= before + 5.0
        assert not vantage.dig.last_status.degraded
        # The delay is the vantage's own: a new vantage starts at the
        # world's build time again.
        assert world.vantage().clock.now() == before

    def test_clear_faults_restores_health(self, world):
        """A plan lives on its vantage: on one world, a drop-plan vantage
        fails while a plan-less vantage, before and after it, answers."""
        domain = _rank1_domain(world)
        assert world.vantage().dig.is_resolvable(domain)
        faulted = world.vantage(
            faults=FaultPlan(rules=(_dns_rule(domain, "drop"),))
        )
        assert not faulted.dig.is_resolvable(domain)
        assert world.vantage().dig.is_resolvable(domain)
        assert world.vantage(faults=FaultPlan()).injector is None

    def test_retries_recover_from_partial_drops(self, world):
        # With a per-(ip, attempt) keyed 50% drop, some query needs a
        # second round; the retry loop must still land every answer.
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(
                rules=(_dns_rule(domain, "drop", probability=0.5),), seed=2
            )
        )
        assert vantage.dig.is_resolvable(domain)
        assert vantage.dig.last_status.attempts > 1
        assert not vantage.dig.last_status.degraded


class TestWebTlsFaultBehaviour:
    def test_timeout_fails_the_crawl_after_retries(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(
                rules=(
                    FaultRule(name="t", layer="web", kind="timeout", scope=domain),
                )
            )
        )
        result = vantage.crawler.crawl(domain)
        assert not result.ok
        assert result.error.startswith("tcp:")
        assert result.attempts == vantage.crawler.retry_policy.max_attempts
        assert vantage.crawler.retries > 0

    def test_http_error_returns_the_configured_status(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(
                rules=(
                    FaultRule(name="e", layer="web", kind="http_error",
                              scope=domain, status=502),
                )
            )
        )
        result = vantage.crawler.crawl(domain)
        assert not result.ok
        assert result.error == "http: status 502"
        assert result.attempts == vantage.crawler.retry_policy.max_attempts

    def test_web_retries_recover_from_partial_timeouts(self, world):
        domain = _rank1_domain(world)
        vantage = world.vantage(
            faults=FaultPlan(
                rules=(
                    FaultRule(name="t", layer="web", kind="timeout",
                              scope=domain, probability=0.6),
                ),
                seed=3,
            )
        )
        result = vantage.crawler.crawl(domain)
        assert result.ok
        assert result.attempts > 1

    def test_ocsp_expired_serves_a_stale_window(self, world):
        infra = world.ca_infra[sorted(world.ca_infra)[0]]
        responder = infra.ca.ocsp_responder
        vantage = world.vantage(
            faults=FaultPlan(
                rules=(
                    FaultRule(name="o", layer="tls", kind="ocsp_expired",
                              server=infra.spec.ocsp_host),
                )
            )
        )
        now = vantage.clock.now()
        response = responder.status_of(1, now, vantage.injector)
        assert response.next_update < now  # expired window
        healthy = responder.status_of(1, now, world.vantage().injector)
        assert healthy.next_update >= now


class TestFaultedCampaigns:
    def test_empty_plan_output_is_byte_identical(self, world):
        # Running under an *empty* plan is the plan-less pipeline, bit for
        # bit.
        plain = run_campaign(world=world, limit=30)
        empty = run_campaign(world=world, limit=30, fault_plan=FaultPlan())
        assert dataset_to_json(empty) == dataset_to_json(plain)

    def test_faulted_campaign_replays_byte_identically(self, world):
        plan = FaultPlan(
            rules=(
                FaultRule(name="flaky-dns", layer="dns", kind="drop",
                          probability=0.25),
                FaultRule(name="slow-web", layer="web", kind="http_error",
                          probability=0.2, status=503),
            ),
            seed=21,
        )
        first = run_campaign(world=world, limit=30, fault_plan=plan)
        second = run_campaign(world=world, limit=30, fault_plan=plan)
        assert dataset_to_json(first) == dataset_to_json(second)

    def test_rank_window_degrades_exactly_the_windowed_sites(self, world):
        plan = FaultPlan(
            rules=(
                FaultRule(name="head-outage", layer="web", kind="http_error",
                          status=502, rank_window=(1, 5)),
            )
        )
        dataset = run_campaign(world=world, limit=30, fault_plan=plan)
        assert len(dataset.websites) == 30
        for website in dataset.websites:
            if website.rank <= 5:
                assert website.tls.degraded
                assert website.tls.failure_mode == "http: status 502"
                assert website.tls.attempts == DEFAULT_RETRY_POLICY.max_attempts
            else:
                assert not website.tls.degraded
                assert website.tls.failure_mode == ""

    def test_outage_prediction_matches_injected_reality(self, world):
        from repro.failures import outage_fault_plan, validate_outage_prediction

        measured = run_campaign(
            world=world, fault_plan=outage_fault_plan(world, "dns", "dyn")
        )
        report = validate_outage_prediction(world, "dyn", measured)
        assert report.predicted, "the dyn provider should have customers"
        assert report.consistent
        assert report.agreement_rate() == 1.0

    @pytest.mark.parametrize("limit", [0, 30])
    def test_outage_prediction_covers_exactly_the_measured_sites(
        self, world, limit
    ):
        from repro.failures import outage_fault_plan, validate_outage_prediction

        measured = run_campaign(
            world=world, limit=limit,
            fault_plan=outage_fault_plan(world, "dns", "dyn"),
        )
        report = validate_outage_prediction(world, "dyn", measured)
        assert set(report.predicted) <= {w.domain for w in measured.websites}
        assert report.consistent
