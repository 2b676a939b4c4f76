"""Telemetry overhead: the disabled path must cost (almost) nothing.

Instrumentation hooks sit on the resolver/crawler hot paths, guarded by
``if tel is not None``. This benchmark prices those guards three ways:

* ``baseline``  — no telemetry installed (``telemetry=None``);
* ``disabled``  — a :class:`Telemetry` facade installed with every
  component off (the guard-plus-no-op path);
* ``enabled``   — metrics + diagnostics + full tracing.

Acceptance criterion (DESIGN §10): the *disabled* variants stay within
5% of baseline, asserted on min-of-rounds (the noise-floor estimator).
The enabled cost is recorded in ``extra_info`` for the benchmark JSON
but not asserted — it buys spans and is allowed to cost something.

    pytest benchmarks/test_telemetry_overhead.py --benchmark-only -s

``REPRO_TELEMETRY_BENCH_N`` (default 400) sets the world size; CI runs
a smaller smoke size.
"""

from __future__ import annotations

import os

import pytest

from repro import WorldConfig, build_world
from repro.engine import run_campaign
from repro.telemetry import TelemetryConfig

OVERHEAD_N = int(os.environ.get("REPRO_TELEMETRY_BENCH_N", "400"))
OVERHEAD_SEED = 23
ROUNDS = 3
MAX_DISABLED_OVERHEAD = 1.05

_VARIANTS = {
    "baseline": lambda: None,
    "disabled": lambda: TelemetryConfig(
        metrics=False, diagnostics=False, trace=False
    ).build(),
    "enabled": lambda: TelemetryConfig(
        metrics=True, diagnostics=True, trace=True
    ).build(),
}

# variant -> min seconds per round, for the cross-variant assertion.
_RESULTS: dict[str, float] = {}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_telemetry_overhead(benchmark, variant):
    def setup():
        # A fresh world per round: resolver caches and SOA caches warm
        # up during a campaign, so reuse would bias later rounds.
        world = build_world(
            WorldConfig(n_websites=OVERHEAD_N, seed=OVERHEAD_SEED)
        )
        return (world,), {}

    def run(world):
        return run_campaign(world=world, telemetry=_VARIANTS[variant]())

    dataset = benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    assert len(dataset.websites) == OVERHEAD_N

    best = min(benchmark.stats.stats.data)
    _RESULTS[variant] = best
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["n_websites"] = OVERHEAD_N
    benchmark.extra_info["min_seconds"] = round(best, 4)
    print(
        f"\ntelemetry overhead [{variant}]: "
        f"{OVERHEAD_N} sites, min {best:.3f}s over {ROUNDS} rounds"
    )

    if variant == "disabled" and "baseline" in _RESULTS:
        ratio = best / _RESULTS["baseline"]
        benchmark.extra_info["overhead_vs_baseline"] = round(ratio, 4)
        print(f"telemetry overhead [disabled/baseline]: {ratio:.3f}x")
        assert ratio <= MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {ratio:.3f}x baseline "
            f"(criterion: <= {MAX_DISABLED_OVERHEAD}x); the guard path "
            f"has grown real work"
        )
    if variant == "enabled" and "baseline" in _RESULTS:
        ratio = best / _RESULTS["baseline"]
        benchmark.extra_info["overhead_vs_baseline"] = round(ratio, 4)
        print(f"telemetry overhead [enabled/baseline]: {ratio:.3f}x")
