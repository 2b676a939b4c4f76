"""Benchmark fixtures: one shared world pair, measured and analyzed once.

``REPRO_BENCH_N`` controls world size (default 3000 — a 33x-downscaled
Alexa top-100K). Every benchmark prints its regenerated paper artifact, so
``pytest benchmarks/ --benchmark-only`` reproduces every table and figure
in one run.
"""

from __future__ import annotations

import os

import pytest

from repro import WorldConfig, analyze_world, build_world_pair
from repro.worldgen import hospital_snapshot
from repro.worldgen.world import World

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "3000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def bench_config() -> WorldConfig:
    return WorldConfig(n_websites=BENCH_N, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def worlds(bench_config):
    world_2016, world_2020, churn = build_world_pair(bench_config)
    return world_2016, world_2020, churn


@pytest.fixture
def vantage(worlds):
    """A cold measurement vantage on the 2020 world, one per benchmark."""
    return worlds[1].vantage()


@pytest.fixture(scope="session")
def snapshot_2016(worlds):
    return analyze_world(worlds[0])


@pytest.fixture(scope="session")
def snapshot_2020(worlds):
    return analyze_world(worlds[1])


@pytest.fixture(scope="session")
def hospital_snapshot_analyzed(bench_config):
    spec = hospital_snapshot(bench_config, n_hospitals=200)
    world = World(spec, bench_config)
    return analyze_world(world)
