"""Measuring one world twice gives the bytes of measuring two fresh worlds.

A :class:`World` holds infrastructure only; every campaign measures
through its own cold vantage (resolver, cache, web client, crawler).
So no campaign may leak resolver state, cached answers or an installed
telemetry facade into the next one on the same world. The reused world
here is shared by every case of its seed, so each case also runs after
the campaigns of the cases before it.

A world also builds that infrastructure on demand: reading its spec or
config never materializes it, and a world first built mid-campaign
measures the bytes of one built up front.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.worldgen.world as world_module
from repro import World, WorldConfig, build_world
from repro.cli import main
from repro.core.pipeline import dns_display_directory
from repro.engine import run_campaign, run_timeline
from repro.faults import FaultPlan
from repro.measurement.io import dataset_to_json
from repro.measurement.runner import build_cdn_map, ca_directory, ranked_sites
from repro.telemetry import TelemetryConfig, chrome_trace, metrics_to_json
from repro.worldgen.generate import generate_snapshot
from repro.worldgen.timeline import Timeline, TimelineConfig
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


# -- on-demand worlds -------------------------------------------------------


@pytest.fixture
def builds(monkeypatch) -> list[object]:
    """Every spec a :class:`World` materializes, in order."""
    built: list[object] = []
    real = world_module.materialize

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(world_module, "materialize", counting)
    return built


def _timeline(epochs: int) -> TimelineConfig:
    return TimelineConfig(n_websites=120, seed=5, epochs=epochs)


def test_reading_an_epoch_world_builds_nothing(builds):
    world = Timeline(_timeline(3)).world(2)
    assert world.spec.year == world.year == world.config.year
    assert repr(world).startswith(f"World(year={world.year}")
    assert dns_display_directory(world)
    assert ranked_sites(world, 10)
    assert build_cdn_map(world) is not None
    assert ca_directory(world)
    world.clear_faults()
    world.restore_all()
    assert world.fault_injector is None
    assert builds == []
    world.vantage()
    world.vantage()
    assert builds == [world.spec]


def test_run_timeline_builds_each_epoch_once(builds):
    config = _timeline(4)
    results = run_timeline(config, limit=40)
    assert len(results) == 4
    assert len(builds) == 4


def test_compare_builds_each_epoch_once(builds, capsys):
    assert main(["compare", "--n", "120", "--seed", "5", "--epochs", "3",
                 "--limit", "40"]) == 0
    assert "epoch 2" in capsys.readouterr().out
    assert len(builds) == 3


@pytest.mark.parametrize("chaos", [False, True], ids=["fault-free", "chaos"])
@pytest.mark.parametrize("seed", SEEDS)
def test_an_unbuilt_world_measures_like_a_built_one(seed, chaos):
    fault_plan = canonical_chaos_plan() if chaos else FaultPlan()
    config = replace(_config(seed), year=2016)
    unbuilt = World(generate_snapshot(config), config)
    assert _measure(unbuilt, None, fault_plan) == _measure(
        build_world(config), None, fault_plan
    )
