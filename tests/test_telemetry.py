"""Unit tests for repro.telemetry: metrics, spans, exporters, config.

The contracts under test are the ones the engine leans on (DESIGN §10):
integer metric arithmetic merges exactly and associatively, span trees
are well-formed by construction on the simulated clock, and every
exporter emits one canonical byte form.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    ATTEMPT_BUCKETS,
    SMALL_COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Telemetry,
    TelemetryConfig,
    Tracer,
    chrome_trace,
    metrics_from_json,
    metrics_to_json,
    summary_table,
)
from repro.telemetry.metrics import metric_key


class TestMetricKey:
    def test_no_labels_is_bare_name(self):
        assert metric_key("dns.queries", {}) == "dns.queries"

    def test_labels_sorted_by_key(self):
        assert (
            metric_key("sites.degraded", {"mode": "x", "layer": "dns"})
            == "sites.degraded{layer=dns,mode=x}"
        )

    def test_label_order_is_canonical(self):
        a = metric_key("m", {"a": 1, "b": 2})
        b = metric_key("m", {"b": 2, "a": 1})
        assert a == b


class TestHistogram:
    def test_bounds_must_be_sorted_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((3, 1, 2))

    def test_bucketing_is_inclusive_upper_bound(self):
        h = Histogram((1, 2, 3))
        for value in (0, 1, 2, 3, 4, 99):
            h.observe(value)
        # 0,1 <=1 | 2 <=2 | 3 <=3 | 4,99 overflow
        assert h.counts == [2, 1, 1, 2]
        assert h.total == 6
        assert h.sum == 0 + 1 + 2 + 3 + 4 + 99

    def test_mean(self):
        h = Histogram(SMALL_COUNT_BUCKETS)
        assert h.mean == 0.0
        h.observe(2)
        h.observe(4)
        assert h.mean == 3.0

    def test_merge_requires_equal_bounds(self):
        with pytest.raises(ValueError):
            Histogram((1, 2)).merge(Histogram((1, 3)))

    def test_roundtrip(self):
        h = Histogram(ATTEMPT_BUCKETS)
        for value in (1, 1, 2, 7):
            h.observe(value)
        again = Histogram.from_dict(h.to_dict())
        assert again.to_dict() == h.to_dict()

    def test_from_dict_validates_bucket_count(self):
        payload = {"bounds": [1, 2], "counts": [0, 0], "total": 0, "sum": 0}
        with pytest.raises(ValueError):
            Histogram.from_dict(payload)


class TestMetricsRegistry:
    def test_count_and_read_with_labels(self):
        reg = MetricsRegistry()
        reg.count("dns.queries")
        reg.count("dns.queries", 2)
        reg.count("dns.queries", layer="dns")
        assert reg.counter("dns.queries") == 3
        assert reg.counter("dns.queries", layer="dns") == 1
        assert reg.counter("missing") == 0

    def test_observe_and_read(self):
        reg = MetricsRegistry()
        reg.observe("site.attempts", 2, ATTEMPT_BUCKETS, layer="dns")
        h = reg.histogram("site.attempts", layer="dns")
        assert h is not None and h.total == 1
        assert reg.histogram("site.attempts") is None

    def test_to_dict_is_sorted(self):
        reg = MetricsRegistry()
        reg.count("zeta")
        reg.count("alpha")
        assert list(reg.to_dict()["counters"]) == ["alpha", "zeta"]

    def test_drain_serializes_and_resets(self):
        reg = MetricsRegistry()
        reg.count("sites")
        reg.observe("x", 1)
        state = reg.drain()
        assert state["counters"] == {"sites": 1}
        assert reg.empty
        assert reg.drain() == {"counters": {}, "histograms": {}}

    def test_merge_dict_equals_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.count("sites", 2)
            reg.observe("x", 3)
        merged = MetricsRegistry()
        merged.merge(a)
        merged_dict = MetricsRegistry()
        merged_dict.merge_dict(a.to_dict())
        assert merged.to_dict() == merged_dict.to_dict()


def _apply(reg: MetricsRegistry, events) -> None:
    for kind, name, value in events:
        if kind == "count":
            reg.count(name, value)
        else:
            reg.observe(name, value)


_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["count", "observe"]),
        st.sampled_from(["a", "b", "c{l=1}"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=30,
)


class TestMergeAssociativity:
    @given(_EVENTS, _EVENTS, _EVENTS)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, ev_a, ev_b, ev_c):
        def registry(events):
            reg = MetricsRegistry()
            _apply(reg, events)
            return reg

        left = MetricsRegistry()
        left.merge(registry(ev_a))
        left.merge(registry(ev_b))
        inner = MetricsRegistry()
        inner.merge(registry(ev_b))
        inner.merge(registry(ev_c))
        left.merge(registry(ev_c))
        right = registry(ev_a)
        right.merge(inner)
        assert left.to_dict() == right.to_dict()

    @given(_EVENTS, _EVENTS)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_registry_over_concatenation(self, ev_a, ev_b):
        merged = MetricsRegistry()
        for events in (ev_a, ev_b):
            shard = MetricsRegistry()
            _apply(shard, events)
            merged.merge_dict(shard.drain())
        direct = MetricsRegistry()
        _apply(direct, ev_a + ev_b)
        assert merged.to_dict() == direct.to_dict()


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class TestTracer:
    def test_spans_nest_and_cover_children(self):
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("outer", "cat"):
            clock.t = 1.0
            with tracer.span("inner"):
                clock.t = 2.5
            tracer.event("mark", note="hi")
            clock.t = 3.0
        (root,) = tracer.drain()
        assert root.name == "outer" and root.category == "cat"
        assert root.start == 0.0 and root.end == 3.0
        inner, mark = root.children
        assert inner.start == 1.0 and inner.end == 2.5
        assert mark.kind == "instant" and mark.attrs == {"note": "hi"}
        assert root.duration == 3.0
        assert tracer.open_spans == 0

    def test_seq_increases_in_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("c")
            tracer.event("d")
        (root,) = tracer.drain()
        seqs = [span.seq for span in root.walk()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_attrs_via_context_manager_set(self):
        tracer = Tracer()
        with tracer.span("op", domain="x.com") as sp:
            sp.set(ok=True)
        (root,) = tracer.drain()
        assert root.attrs == {"domain": "x.com", "ok": True}

    def test_exception_still_closes_the_span(self):
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                clock.t = 1.0
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.open_spans == 0
        (root,) = tracer.drain()
        assert root.end == 1.0
        assert root.children[0].end == 1.0

    def test_site_filter_records_only_matching_sites(self):
        tracer = Tracer(site_filter=frozenset({"keep.com"}))
        assert not tracer.recording
        tracer.begin_site("drop.com")
        with tracer.span("ignored"):
            pass
        tracer.end_site()
        tracer.begin_site("keep.com")
        with tracer.span("kept"):
            pass
        tracer.end_site()
        roots = tracer.drain()
        assert [r.name for r in roots] == ["kept"]
        assert not tracer.recording

    def test_unfiltered_tracer_records_outside_site_context(self):
        tracer = Tracer()
        tracer.begin_site("any.com")
        tracer.end_site()
        with tracer.span("interservice"):
            pass
        assert [r.name for r in tracer.drain()] == ["interservice"]

    def test_drain_detaches(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_null_span_is_reentrant_noop(self):
        with NULL_SPAN as a:
            with NULL_SPAN as b:
                a.set(x=1)
                b.set(y=2)
        assert a is b is NULL_SPAN


# A recursive op-tree: each node is (n_events, [children]). Driving the
# tracer from a random tree and asserting structural invariants is the
# property-level version of "well-formed by construction".
_OP_TREE = st.recursive(
    st.tuples(st.integers(min_value=0, max_value=2), st.just([])),
    lambda children: st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)


def _drive(tracer: Tracer, clock: _ManualClock, node, depth=0) -> None:
    n_events, children = node
    with tracer.span(f"op{depth}"):
        for i in range(n_events):
            tracer.event(f"ev{i}")
        for child in children:
            clock.t += 0.5
            _drive(tracer, clock, child, depth + 1)
        clock.t += 0.25


def _assert_well_formed(span) -> None:
    assert span.start <= span.end
    if span.kind == "instant":
        assert span.start == span.end
        assert not span.children
    previous_seq = span.seq
    for child in span.children:
        assert child.seq > previous_seq
        assert span.start <= child.start
        assert child.end <= span.end
        _assert_well_formed(child)
        previous_seq = max(s.seq for s in child.walk())


class TestTracerProperties:
    @given(st.lists(_OP_TREE, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_random_op_trees_produce_well_formed_forests(self, forest):
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        for node in forest:
            _drive(tracer, clock, node)
        assert tracer.open_spans == 0
        roots = tracer.drain()
        assert len(roots) == len(forest)
        for root in roots:
            _assert_well_formed(root)


class TestTracingUnderFaults:
    """Span trees must stay well-formed whatever a fault plan throws at
    the stack: drops, retries, brownouts, and OCSP rot all exit through
    the same context managers."""

    @given(
        p_drop=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        p_http=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        p_ocsp=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_fault_plans_never_break_the_span_forest(
        self, p_drop, p_http, p_ocsp, seed
    ):
        from repro import WorldConfig, build_world
        from repro.faults import FaultPlan, FaultRule
        from repro.measurement.runner import MeasurementCampaign, ranked_sites

        plan = FaultPlan(
            rules=(
                FaultRule(name="ns-flaky", layer="dns", kind="drop",
                          probability=round(p_drop, 2)),
                FaultRule(name="brownout", layer="web", kind="http_error",
                          status=503, probability=round(p_http, 2),
                          rank_window=(1, 3)),
                FaultRule(name="ocsp-rot", layer="tls", kind="ocsp_expired",
                          probability=round(p_ocsp, 2)),
            ),
            seed=seed,
        )
        telemetry = TelemetryConfig(metrics=True, trace=True).build()
        world = build_world(WorldConfig(n_websites=120, seed=5))
        campaign = MeasurementCampaign(
            world, fault_plan=plan, telemetry=telemetry
        )
        for domain, rank in ranked_sites(world, limit=3):
            campaign.measure_site(domain, rank)
        assert telemetry.tracer.open_spans == 0
        roots = telemetry.tracer.drain()
        assert [r.name for r in roots] == ["site.measure"] * 3
        for root in roots:
            _assert_well_formed(root)
            phases = [c.name for c in root.children if c.kind == "span"]
            assert phases == ["site.crawl", "site.dns", "site.tls", "site.cdn"]


class TestChromeTrace:
    def _trace(self):
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("site.measure", "measure", domain="x.com"):
            clock.t = 0.5
            tracer.event("cache.hit", "dns", qname="x.com")
            with tracer.span("dns.lookup", "dns"):
                clock.t = 1.25
        return chrome_trace(tracer.drain(), label="test trace")

    def test_events_are_balanced_and_nested(self):
        payload = json.loads(self._trace())
        events = payload["traceEvents"]
        assert [e["ph"] for e in events] == ["M", "M", "B", "i", "B", "E", "E"]
        assert events[0]["args"]["name"] == "test trace"
        assert events[1]["args"]["name"] == "simulated clock"

    def test_timestamps_are_simulated_microseconds(self):
        events = json.loads(self._trace())["traceEvents"]
        begin = [e for e in events if e["ph"] == "B"]
        assert begin[0]["ts"] == 0
        assert begin[1]["ts"] == 500_000
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t" and instant["ts"] == 500_000

    def test_output_is_canonical_json(self):
        text = self._trace()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert self._trace() == text

    def test_args_carry_seq_and_attrs(self):
        events = json.loads(self._trace())["traceEvents"]
        root = next(e for e in events if e.get("name") == "site.measure")
        assert root["args"]["domain"] == "x.com"
        assert root["args"]["seq"] == 1


def _load_schema_checker():
    import importlib.util
    from pathlib import Path

    path = (
        Path(__file__).resolve().parent.parent
        / "scripts"
        / "check_trace_schema.py"
    )
    spec = importlib.util.spec_from_file_location("check_trace_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceSchemaChecker:
    """The CI gate (scripts/check_trace_schema.py) must accept what the
    exporter produces and reject structural corruption."""

    def test_exporter_output_validates(self):
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("site.measure", "measure", domain="x.com"):
            tracer.event("cache.hit", "dns")
            with tracer.span("dns.lookup", "dns"):
                clock.t = 1.0
        payload = json.loads(chrome_trace(tracer.drain()))
        assert _load_schema_checker().validate(payload) == []

    def test_corruptions_are_rejected(self):
        checker = _load_schema_checker()
        clock = _ManualClock()
        tracer = Tracer(now=clock.now)
        with tracer.span("a"):
            pass
        text = chrome_trace(tracer.drain())
        intact = json.loads(text)
        assert checker.validate(intact) == []
        unbalanced = json.loads(text)
        unbalanced["traceEvents"] = [
            e for e in unbalanced["traceEvents"] if e["ph"] != "E"
        ]
        assert any("never closed" in e for e in checker.validate(unbalanced))
        drifting = json.loads(text)
        drifting["traceEvents"][-1]["ts"] = -5
        assert checker.validate(drifting)


class TestMetricsExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.count("sites", 25)
        reg.observe("site.attempts", 2, ATTEMPT_BUCKETS, layer="dns")
        return reg

    def test_roundtrip(self):
        reg = self._registry()
        again = metrics_from_json(metrics_to_json(reg))
        assert again.to_dict() == reg.to_dict()

    def test_registry_and_dict_inputs_serialize_identically(self):
        reg = self._registry()
        assert metrics_to_json(reg) == metrics_to_json(reg.to_dict())

    def test_format_marker_is_enforced(self):
        with pytest.raises(ValueError, match="repro-metrics/1"):
            metrics_from_json(json.dumps({"format": "nope", "counters": {}}))

    def test_notes_ride_along(self):
        payload = json.loads(metrics_to_json(self._registry(), notes={"k": 1}))
        assert payload["notes"] == {"k": 1}

    def test_summary_table_lists_series(self):
        text = summary_table(self._registry(), title="t")
        assert text.splitlines()[0] == "t"
        assert "sites" in text and "site.attempts{layer=dns}" in text
        assert "n=1 mean=2.00" in text

    def test_summary_table_empty(self):
        assert "(empty)" in summary_table(MetricsRegistry())


class TestTelemetryFacade:
    def test_config_is_picklable(self):
        config = TelemetryConfig(
            metrics=True, diagnostics=True, trace=True, trace_sites=("a.com",)
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_build_wires_the_requested_components(self):
        tel = TelemetryConfig(metrics=True).build()
        assert tel.metrics is not None
        assert tel.tracer is None and tel.diagnostics is None
        tel = TelemetryConfig(
            metrics=False, trace=True, trace_sites=("a.com",)
        ).build()
        assert tel.metrics is None
        assert tel.tracer is not None
        assert tel.tracer.site_filter == frozenset({"a.com"})

    def test_disabled_components_are_noops(self):
        tel = TelemetryConfig(metrics=False).build()
        assert tel.span("x") is NULL_SPAN
        tel.event("x")
        tel.count("sites")
        tel.diag("dns.queries")
        tel.observe("x", 1)
        assert tel.drain_metrics() is None

    def test_campaign_and_diagnostic_scopes_are_separate(self):
        tel = TelemetryConfig(metrics=True, diagnostics=True).build()
        tel.count("sites")
        tel.diag("dns.queries", 5)
        assert tel.metrics.counter("sites") == 1
        assert tel.metrics.counter("dns.queries") == 0
        assert tel.diagnostics.counter("dns.queries") == 5
        state = tel.drain_metrics()
        assert state["counters"] == {"sites": 1}
        assert tel.diagnostics.counter("dns.queries") == 5
