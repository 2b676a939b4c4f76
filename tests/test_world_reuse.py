"""Measuring one world twice gives the bytes of measuring two fresh worlds.

A :class:`World` holds infrastructure only; every campaign measures
through its own cold vantage (resolver, cache, web client, crawler).
So no campaign may leak resolver state, cached answers or an installed
telemetry facade into the next one on the same world. The reused world
here is shared by every case of its seed, so each case also runs after
the campaigns of the cases before it.
"""

from __future__ import annotations

import pytest

from repro import World, WorldConfig, build_world
from repro.engine import run_campaign
from repro.faults import FaultPlan
from repro.measurement.io import dataset_to_json
from repro.telemetry import TelemetryConfig, chrome_trace, metrics_to_json
from tests.test_golden_corpus import canonical_chaos_plan

REUSE_N = 300
REUSE_LIMIT = 80
SEEDS = (11, 42)


def _config(seed: int) -> WorldConfig:
    return WorldConfig(n_websites=REUSE_N, seed=seed)


@pytest.fixture(scope="module")
def reused_worlds() -> dict[int, World]:
    return {seed: build_world(_config(seed)) for seed in SEEDS}


def _measure(world, region, fault_plan) -> tuple[str, str]:
    """One campaign's dataset JSON and shard-stable metrics JSON."""
    telemetry = TelemetryConfig(metrics=True).build()
    dataset = run_campaign(
        world=world, limit=REUSE_LIMIT, region=region,
        fault_plan=fault_plan, telemetry=telemetry,
    )
    assert telemetry.campaign_metrics is not None
    metrics = metrics_to_json(telemetry.campaign_metrics)
    return dataset_to_json(dataset), metrics


# The decorator nearest the function varies slowest, so on each seed's
# world a fault-free campaign also follows a chaos one.
@pytest.mark.parametrize("chaos", [False, True], ids=["fault-free", "chaos"])
@pytest.mark.parametrize("region", [None, "cn"])
@pytest.mark.parametrize("seed", SEEDS)
def test_measuring_one_world_twice_matches_a_fresh_world(
    reused_worlds, seed, region, chaos
):
    fault_plan = canonical_chaos_plan() if chaos else FaultPlan()
    expected = _measure(build_world(_config(seed)), region, fault_plan)
    world = reused_worlds[seed]
    assert _measure(world, region, fault_plan) == expected
    assert _measure(world, region, fault_plan) == expected


def test_telemetry_stays_with_its_own_campaign():
    world = build_world(_config(SEEDS[0]))
    traced = TelemetryConfig(
        metrics=False, diagnostics=True, trace=True
    ).build()
    run_campaign(world=world, limit=20, telemetry=traced)
    assert traced.diagnostics is not None and traced.tracer is not None
    diagnostics = traced.diagnostics.to_dict()
    spans = chrome_trace(traced.tracer.roots)
    assert spans.count('"ph": "B"') > 20
    run_campaign(world=world, limit=20)
    assert traced.diagnostics.to_dict() == diagnostics
    assert chrome_trace(traced.tracer.roots) == spans
