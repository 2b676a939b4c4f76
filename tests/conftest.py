"""Shared fixtures: session-scoped worlds so integration tests are fast.

The small world (600 sites) is enough for structural assertions; rate
assertions use loose bounds at this scale and are tightened in the
benchmarks, which run at larger N.
"""

from __future__ import annotations

import pytest

from repro import WorldConfig, analyze_world, build_world, build_world_pair

SMALL_N = 600
SEED = 11


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden-corpus files under tests/goldens/ "
        "instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen_goldens(request) -> bool:
    return request.config.getoption("--regen-goldens")


@pytest.fixture(scope="session")
def world_2020():
    return build_world(WorldConfig(n_websites=SMALL_N, seed=SEED))


@pytest.fixture
def vantage(world_2020):
    """A cold measurement vantage on the session world, one per test."""
    return world_2020.vantage()


@pytest.fixture(scope="session")
def snapshot_2020(world_2020):
    return analyze_world(world_2020)


@pytest.fixture(scope="session")
def world_pair():
    return build_world_pair(WorldConfig(n_websites=SMALL_N, seed=SEED))


@pytest.fixture(scope="session")
def snapshot_pair(world_pair):
    world_2016, world_2020, _churn = world_pair
    return analyze_world(world_2016), analyze_world(world_2020)
