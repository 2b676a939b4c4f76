"""Golden-corpus regression tests.

A fixed world config and a fixed, checked-in fault plan must serialize
to the *exact bytes* stored under ``tests/goldens/`` — any drift in the
world generator, the resolver, the measurers, the fault draws, or the
wire format shows up here as a byte diff before it shows up as a silent
change in paper numbers.

The goldens are also the engine's oracle: ``run_campaign`` must
reproduce both dataset goldens at one shard on one worker, at five
shards on one worker, and at five shards on ``REPRO_ENGINE_WORKERS``
(default 2) workers.

When a change intentionally alters the output (e.g. a new wire field),
regenerate with::

    pytest tests/test_golden_corpus.py --regen-goldens

and commit the updated goldens alongside the change. Only the
one-shard, one-worker campaigns write goldens; the sharded cases are
always compared.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

import pytest

from repro import WorldConfig
from repro.engine import run_campaign
from repro.faults import FaultPlan, FaultRule
from repro.measurement.io import dataset_from_json, dataset_to_json

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_N = 120
GOLDEN_SEED = 17
GOLDEN_LIMIT = 25
WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "2"))


def canonical_chaos_plan() -> FaultPlan:
    """The checked-in chaos scenario: a Dyn-style flaky provider plus a
    head-of-list web brownout, expressed only in shard-stable terms
    (server scopes and rank windows)."""
    return FaultPlan(
        rules=(
            FaultRule(name="dyn-flaky", layer="dns", kind="drop",
                      server="dynect.net", probability=0.85),
            FaultRule(name="ultradns-slow", layer="dns", kind="slow",
                      server="ultradns.net", probability=0.25, delay=1.5),
            FaultRule(name="head-brownout", layer="web", kind="http_error",
                      status=503, probability=0.9, rank_window=(1, 8)),
            FaultRule(name="ocsp-rot", layer="tls", kind="ocsp_expired",
                      probability=0.5),
        ),
        seed=2020,
    )


@pytest.fixture(scope="module")
def golden_config() -> WorldConfig:
    return WorldConfig(n_websites=GOLDEN_N, seed=GOLDEN_SEED)


def _check_golden(name: str, produced: str, regen: bool) -> None:
    path = GOLDEN_DIR / name
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden file {path} is missing; run "
        f"'pytest tests/test_golden_corpus.py --regen-goldens' to create it"
    )
    expected = path.read_text(encoding="utf-8")
    assert produced == expected, (
        f"output drifted from {path}; if the change is intentional, "
        f"regenerate with --regen-goldens and commit the diff"
    )


def _campaign_json(
    config: WorldConfig,
    shards: int = 1,
    workers: int = 1,
    fault_plan: Optional[FaultPlan] = None,
) -> str:
    dataset = run_campaign(
        config, shards=shards, workers=workers, limit=GOLDEN_LIMIT,
        fault_plan=fault_plan,
    )
    return dataset_to_json(dataset) + "\n"


class TestGoldenCorpus:
    def test_chaos_plan_matches_golden(self, regen_goldens):
        _check_golden(
            "chaos_plan.json",
            canonical_chaos_plan().to_json() + "\n",
            regen_goldens,
        )

    def test_zero_fault_campaign_matches_golden(
        self, golden_config, regen_goldens
    ):
        _check_golden(
            "dataset_nofault.json", _campaign_json(golden_config),
            regen_goldens,
        )

    def test_chaos_campaign_matches_golden(self, golden_config, regen_goldens):
        _check_golden(
            "dataset_chaos.json",
            _campaign_json(golden_config, fault_plan=canonical_chaos_plan()),
            regen_goldens,
        )

    @pytest.mark.parametrize("shards,workers", [(5, 1), (5, WORKERS)])
    @pytest.mark.parametrize("chaos", [False, True], ids=["nofault", "chaos"])
    def test_sharded_campaigns_match_goldens(
        self, golden_config, shards, workers, chaos
    ):
        name = "dataset_chaos.json" if chaos else "dataset_nofault.json"
        produced = _campaign_json(
            golden_config, shards, workers,
            canonical_chaos_plan() if chaos else None,
        )
        _check_golden(name, produced, regen=False)

    def test_chaos_trace_matches_golden(self, golden_config, regen_goldens):
        """The deep trace of twitter.com (the Dyn-customer corner case)
        under the chaos plan: span timestamps come from the simulated
        clock only, so the Chrome trace JSON is byte-reproducible."""
        from repro.telemetry import TelemetryConfig, chrome_trace

        telemetry = TelemetryConfig(
            metrics=False, trace=True, trace_sites=("twitter.com",)
        ).build()
        run_campaign(
            golden_config,
            limit=GOLDEN_LIMIT,
            fault_plan=canonical_chaos_plan(),
            telemetry=telemetry,
        )
        _check_golden(
            "trace_twitter_chaos.json",
            chrome_trace(telemetry.tracer.drain(),
                         label="repro trace twitter.com"),
            regen_goldens,
        )

    def test_trace_golden_is_a_wellformed_chrome_trace(self):
        """Structural guard on the checked-in trace: one balanced B/E
        tree per root, metadata first, instants marked as such."""
        payload = json.loads(
            (GOLDEN_DIR / "trace_twitter_chaos.json").read_text(
                encoding="utf-8"
            )
        )
        events = payload["traceEvents"]
        assert [e["ph"] for e in events[:2]] == ["M", "M"]
        depth = 0
        for event in events[2:]:
            assert event["ph"] in {"B", "E", "i"}
            if event["ph"] == "B":
                depth += 1
            elif event["ph"] == "E":
                depth -= 1
                assert depth >= 0
            else:
                assert event["s"] == "t"
        assert depth == 0
        names = {e.get("name") for e in events}
        assert "site.measure" in names and "dns.lookup" in names

    def test_chaos_golden_actually_exercises_faults(self):
        """Guard against a vacuous corpus: the checked-in chaos dataset
        must contain degraded records and multi-attempt recoveries."""
        path = GOLDEN_DIR / "dataset_chaos.json"
        dataset = dataset_from_json(path.read_text(encoding="utf-8"))
        assert any(w.dns.degraded or w.tls.degraded for w in dataset.websites)
        assert any(
            max(w.dns.attempts, w.tls.attempts, w.cdn.attempts) > 1
            for w in dataset.websites
        )

    def test_goldens_parse_under_the_current_reader(self):
        for name in ("dataset_nofault.json", "dataset_chaos.json"):
            dataset = dataset_from_json(
                (GOLDEN_DIR / name).read_text(encoding="utf-8")
            )
            assert len(dataset.websites) == GOLDEN_LIMIT
