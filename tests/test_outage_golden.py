"""Incident replays pinned to goldens recorded from availability switches.

The outage simulations once took a provider down by switching its
listener IPs off on the world and back on afterwards, and the GlobalSign
replay flipped a revoke-everything flag on the CA's OCSP responder.
These goldens were recorded from that switch-based path on one small
seeded world. They cover:

* every DNS provider (landing pages; the paper's three incident
  providers with their resources too);
* every CDN and every CA with a service server;
* a GlobalSign mass-revocation replay over every site.

The replays now run through fault plans on a vantage and must give the
same bytes. Regenerate with ``pytest tests/test_outage_golden.py
--regen-goldens`` only when a change means to alter an incident's
outcome.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro import World, WorldConfig, build_world
from repro.failures import (
    OutageResult,
    simulate_ca_outage,
    simulate_cdn_outage,
    simulate_dns_outage,
    simulate_mass_revocation,
)
from tests.test_golden_corpus import _check_golden

OUTAGE_N = 100
OUTAGE_SEED = 5
# The providers of the paper's DNS incidents, probed with resources too.
RESOURCE_CHECKED_DNS = ("cloudflare", "dnsmadeeasy", "dyn")


@pytest.fixture(scope="module")
def outage_world() -> World:
    return build_world(WorldConfig(n_websites=OUTAGE_N, seed=OUTAGE_SEED))


def _golden_json(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _outcome(result: OutageResult) -> dict:
    """An outage's outcome without its unaffected list: every site is
    probed, so the sites left out of the other lists are exactly those."""
    outcome = result.to_dict()
    del outcome["unaffected"]
    return outcome


def test_provider_outages_match_golden(outage_world, regen_goldens):
    world = outage_world
    assert set(RESOURCE_CHECKED_DNS) <= set(world.dns_infra)
    payload = {
        "dns": {
            key: _outcome(
                simulate_dns_outage(world, key, check_resources=False)
            )
            for key in sorted(world.dns_infra)
        },
        "dns_with_resources": {
            key: _outcome(simulate_dns_outage(world, key))
            for key in RESOURCE_CHECKED_DNS
        },
        "cdn": {
            key: _outcome(simulate_cdn_outage(world, key))
            for key in sorted(world.cdn_infra)
        },
        "ca": {
            key: _outcome(simulate_ca_outage(world, key))
            for key in sorted(world.ca_infra)
            if world.ca_infra[key].service_server is not None
        },
    }
    _check_golden("outages.json", _golden_json(payload), regen_goldens)


def test_globalsign_replay_matches_golden(outage_world, regen_goldens):
    sites = [site.domain for site in outage_world.spec.websites]
    result = simulate_mass_revocation(outage_world, "globalsign", sites)
    assert result.denied_during
    _check_golden(
        "revocation_globalsign.json", _golden_json(asdict(result)),
        regen_goldens,
    )
