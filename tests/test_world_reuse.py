"""Measuring one world twice gives the bytes of measuring two fresh worlds.

A :class:`World` holds infrastructure only; every campaign measures
through its own cold vantage (clock, fault injector, resolver, cache,
web client, crawler). So no campaign may leak resolver state, cached
answers, simulated time, an injector or an installed telemetry facade
into the next one on the same world: its dataset, its metrics and its
trace are a fresh world's. The reused world here is shared by every
case of its seed, so each case also runs after the campaigns of the
cases before it. The same holds for an incident replay: a second
GlobalSign replay on one world sees what the first one saw.

A world also builds that infrastructure on demand: reading its spec or
config never materializes it, and a world first built mid-campaign
measures the bytes of one built up front.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import repro
import repro.worldgen.world as world_module
from repro import World, WorldConfig, build_world
from repro.cli import main
from repro.core.pipeline import dns_display_directory
from repro.engine import run_campaign, run_timeline
from repro.failures import (
    simulate_ca_outage,
    simulate_cdn_outage,
    simulate_dns_outage,
    simulate_mass_revocation,
)
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


def _measure(world, region, fault_plan) -> tuple[str, str, str]:
    """One campaign's dataset JSON, shard-stable metrics JSON and Chrome
    trace (span times read the campaign's simulated clock)."""
    telemetry = TelemetryConfig(metrics=True, trace=True).build()
    dataset = run_campaign(
        world=world, limit=REUSE_LIMIT, region=region,
        fault_plan=fault_plan, telemetry=telemetry,
    )
    assert telemetry.campaign_metrics is not None
    assert telemetry.tracer is not None
    metrics = metrics_to_json(telemetry.campaign_metrics)
    trace = chrome_trace(telemetry.tracer.drain())
    return dataset_to_json(dataset), metrics, trace


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


def test_an_incident_replay_on_a_reused_world_matches_a_fresh_world(
    reused_worlds,
):
    """The GlobalSign replay advances its client's clock past the bad
    responses' lifetime. That clock is the replay's own vantage's, and
    so are the staples the sites' servers hand it, so a second replay
    on the same world denies the sites the first one did. (With the
    clock and the staple caches on the world, the second replay found
    4 of these 40 sites stapling still-fresh GOOD proofs.) The outage
    replays take their provider down on their own vantage only, so none
    of them leaves the world changed for the next."""
    world = reused_worlds[42]
    fresh = build_world(_config(42))
    sites = [
        w.domain for w in world.spec.websites if w.ca_key == "digicert"
    ][:40]
    replays = (
        lambda w: simulate_mass_revocation(w, "digicert", sites),
        lambda w: simulate_dns_outage(w, "dyn"),
        lambda w: simulate_cdn_outage(w, "cloudfront"),
        lambda w: simulate_ca_outage(w, "thawte"),
    )
    expected = [replay(fresh) for replay in replays]
    assert len(expected[0].denied_during) == 40
    assert all(result.affected for result in expected[1:])
    for _ in range(2):
        assert [replay(world) for replay in replays] == expected


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


# -- the heap a build leaves ---------------------------------------------


class TestHeapBudget:
    """What a built world keeps for the collector to walk (seed 42).

    A virtual host is data answered by one function per kind, so a build
    makes no closure; when each host carried its own handler, a build
    left 2,998 closures at n=500 (5,891 at n=1,000) and 116.6 GC-tracked
    objects per site. Records are shared values (one A and NS rdata per
    value, one record per owner and value, one SOA per identity), zones
    key their records by ``(name, int(type))``, which the collector stops
    tracking, the spec and infrastructure hold their string sequences
    as tuples, and sites on the same DNS providers share one tuple of
    them. That took a build from 97.3 to 59.7 tracked objects per site at
    n=500, and from 80.1 to 48.9 at n=3,000.
    """

    @staticmethod
    def _build(n: int) -> tuple[World, float]:
        """A built world, and the tracked objects it adds per site.

        The caller holds the world, so whatever the build made is still
        alive while the caller scans the heap.
        """
        # No comprehensions here: on Python < 3.12 each one is a
        # ``<locals>`` function of its own.
        gc.collect()
        tracked = len(gc.get_objects())
        world = build_world(WorldConfig(n_websites=n, seed=42))
        gc.collect()
        assert world.spec.websites
        return world, (len(gc.get_objects()) - tracked) / n

    def test_a_build_makes_no_closures_and_stays_in_budget(self):
        gc.collect()
        before = list(filter(_is_local_function, gc.get_objects()))
        seen = set(map(id, before))
        world, per_site = self._build(500)
        made = []
        for fn in filter(_is_local_function, gc.get_objects()):
            if id(fn) not in seen:
                made.append(fn.__qualname__)
        assert world.spec.websites
        assert made == []
        assert per_site <= 62

    def test_a_paper_scale_build_stays_in_budget(self):
        _world, per_site = self._build(3000)
        assert per_site <= 50


class TestBuildsShareNothing:
    """The record tables that share values live on the materializer, so
    they die with it: no build sees another's records."""

    @staticmethod
    def _values(world: World) -> set[int]:
        """The ids of every record and rdata object the world's zones hold."""
        ids: set[int] = set()
        for server in world.dns_network.servers():
            for zone in server.zones():
                for rr in zone.all_records():
                    ids.add(id(rr))
                    ids.add(id(rr.rdata))
        return ids

    def test_two_builds_of_one_config_share_no_record_object(self):
        config = WorldConfig(n_websites=200, seed=42)
        first, second = build_world(config), build_world(config)
        assert self._values(first).isdisjoint(self._values(second))

    def test_an_earlier_build_leaves_a_campaign_unchanged(self):
        """A seed-42 campaign measures, after a seed-11 world was built,
        the bytes it measures in a fresh process that builds nothing
        else."""
        script = (
            "import sys\n"
            "from repro import WorldConfig, build_world\n"
            "from repro.engine import run_campaign\n"
            "from repro.measurement.io import dataset_to_json\n"
            f"world = build_world(WorldConfig(n_websites={REUSE_N}, seed=42))\n"
            "sys.stdout.write(dataset_to_json(run_campaign(\n"
            f"    world=world, shards=1, workers=1, limit={REUSE_LIMIT})))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        build_world(_config(11))
        world = build_world(_config(42))
        assert dataset_to_json(
            run_campaign(world=world, shards=1, workers=1, limit=REUSE_LIMIT)
        ) == fresh


def _is_local_function(obj: object) -> bool:
    return (
        isinstance(obj, types.FunctionType) and "<locals>" in obj.__qualname__
    )
