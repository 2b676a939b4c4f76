"""repro.telemetry — deterministic tracing & metrics for the simulated stack.

The observability layer every simulator and the engine report into.
Three design rules keep it compatible with the repository's determinism
contract (DESIGN §10):

1. **Simulated time only.** Spans and events are stamped from the
   vantage's :class:`~repro.dnssim.clock.SimulatedClock` (injected as a
   ``now`` callable — this package sits *below* dnssim in the layer DAG
   and never imports it). Wall-clock reads are quarantined in
   :mod:`repro.telemetry.profile`, whose values feed operator-facing
   progress output and may never reach a serialized artifact (REP006).

2. **Two metric scopes.** The *campaign registry* holds only
   shard-stable metrics: per-site values that are pure functions of the
   site's own measurement, independent of resolver-cache warmth — so
   per-shard registry state serializes into checkpoints and merges
   associatively to byte-identical aggregates at any worker/shard
   count. Raw vantage counters (wire queries, cache hits, fault draws)
   are warmth-dependent by nature and live in the separate
   *diagnostics registry*, which is per-process and never merged.

3. **Cheap when off.** Instrumented layers hold ``telemetry = None`` by
   default and guard every hook with an attribute check; an installed
   facade with no tracer/metrics degrades to the same guard check, so
   disabled-mode overhead is a branch, not a call.
"""

from __future__ import annotations

from repro.telemetry.context import Telemetry, TelemetryConfig
from repro.telemetry.export import (
    chrome_trace,
    metrics_from_json,
    metrics_to_json,
    summary_table,
)
from repro.telemetry.metrics import (
    ATTEMPT_BUCKETS,
    SMALL_COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NULL_SPAN, Span, Tracer

__all__ = [
    "ATTEMPT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SMALL_COUNT_BUCKETS",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "chrome_trace",
    "metrics_from_json",
    "metrics_to_json",
    "summary_table",
]
