"""Tests for the campaign-execution engine (repro.engine).

The core guarantee under test: for a fixed world fingerprint, the
engine's merged dataset serializes to the *exact bytes* of the
committed goldens, at any shard/worker count (``test_golden_corpus``
pins those bytes; here one-shard, one-worker runs are the reference)
and any interrupt/resume history. ``REPRO_ENGINE_WORKERS`` (default
2) sets the parallel worker count so CI can push it higher.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from collections import Counter

import pytest

from repro import WorldConfig, build_world
from repro.dnssim.records import RRType
from repro.engine import (
    CampaignStats,
    CheckpointStore,
    ProgressReporter,
    StaleCheckpointError,
    WorldFingerprint,
    partition_sites,
    plan_campaign,
    run_campaign,
)
from repro.failures import outage_fault_plan
from repro.faults import FaultPlan, FaultRule
from repro.measurement.io import (
    DatasetFormatError,
    dataset_from_json,
    dataset_to_json,
    shard_payload_from_json,
    shard_to_json,
)

ENGINE_N = 240
ENGINE_SEED = 7
WORKERS = int(os.environ.get("REPRO_ENGINE_WORKERS", "2"))


@pytest.fixture(scope="module")
def engine_config() -> WorldConfig:
    return WorldConfig(n_websites=ENGINE_N, seed=ENGINE_SEED)


@pytest.fixture(scope="module")
def engine_world(engine_config):
    """One prebuilt world for every reference campaign in this module."""
    return build_world(engine_config)


@pytest.fixture(scope="module")
def serial_json(engine_world) -> str:
    """The reference: one shard on one worker over a prebuilt world."""
    return dataset_to_json(
        run_campaign(world=engine_world, shards=1, workers=1)
    )


class TestPlanning:
    def test_partition_is_contiguous_and_near_equal(self):
        sites = [(f"site{i}.com", i + 1) for i in range(10)]
        shards = partition_sites(sites, 3)
        assert [s.n_sites for s in shards] == [4, 3, 3]
        flattened = [site for shard in shards for site in shard.sites]
        assert flattened == sites
        assert [s.shard_id for s in shards] == [0, 1, 2]

    def test_partition_never_makes_empty_shards(self):
        sites = [("a.com", 1), ("b.com", 2)]
        shards = partition_sites(sites, 8)
        assert len(shards) == 2
        assert all(s.n_sites == 1 for s in shards)

    def test_partition_rejects_bad_count(self):
        with pytest.raises(ValueError):
            partition_sites([("a.com", 1)], 0)

    def test_plan_covers_ranked_list_in_order(self, engine_config):
        world = build_world(engine_config)
        plan = plan_campaign(world, n_shards=7, limit=50)
        assert plan.n_sites == 50
        ranks = [
            rank for shard in plan.shards for _, rank in shard.sites
        ]
        assert ranks == sorted(ranks)
        assert plan.fingerprint == WorldFingerprint(
            n_websites=ENGINE_N, seed=ENGINE_SEED, year=2020, limit=50
        )

    def test_planning_leaves_the_world_fault_free(self, engine_config):
        world = build_world(engine_config)
        plan_campaign(world, n_shards=2, fault_plan=_chaos_plan())
        assert world.vantage().resolver.lookup(
            _dyn_only_site(world), RRType.A
        ).records

    def test_fingerprint_json_roundtrip(self):
        fp = WorldFingerprint(
            n_websites=300, seed=9, year=2016, region="eu", limit=10
        )
        assert WorldFingerprint.from_json(fp.to_json()) == fp

    def test_shard_digest_tracks_content(self):
        sites = (("a.com", 1), ("b.com", 2))
        from repro.engine import ShardSpec

        assert (
            ShardSpec(0, sites).digest()
            != ShardSpec(0, (("a.com", 1), ("c.com", 2))).digest()
        )


class TestEquivalence:
    """Serial, 1-worker sharded, and N-worker sharded runs are
    byte-identical — the PR's acceptance criterion."""

    def test_single_shard_single_worker(self, engine_config, serial_json):
        result = run_campaign(engine_config, shards=1, workers=1)
        assert dataset_to_json(result) == serial_json

    def test_many_shards_single_worker(self, engine_config, serial_json):
        result = run_campaign(engine_config, shards=8, workers=1)
        assert dataset_to_json(result) == serial_json

    def test_many_shards_many_workers(self, engine_config, serial_json):
        result = run_campaign(engine_config, shards=8, workers=WORKERS)
        assert dataset_to_json(result) == serial_json

    def test_limit_and_shards(self, engine_config, engine_world):
        direct = run_campaign(world=engine_world, limit=40)
        sharded = run_campaign(engine_config, shards=5, workers=1, limit=40)
        assert dataset_to_json(sharded) == dataset_to_json(direct)


class _AbortAfter(ProgressReporter):
    """Simulates a kill: raises after k shards have been checkpointed."""

    def __init__(self, k: int):
        self.k = k

    def on_shard_done(self, shard_id, n_sites, stats) -> None:
        if stats.shards_done >= self.k:
            raise KeyboardInterrupt("simulated kill")


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_bytes(
        self, engine_config, serial_json, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                engine_config,
                shards=6,
                workers=1,
                checkpoint_dir=str(ckpt),
                progress=_AbortAfter(2),
            )
        store = CheckpointStore(ckpt)
        assert store.completed_shards() == {0, 1}

        stats = CampaignStats()
        result = run_campaign(
            engine_config,
            shards=6,
            workers=1,
            checkpoint_dir=str(ckpt),
            resume=True,
            stats=stats,
        )
        assert stats.shards_skipped == 2
        assert stats.shards_done == 4
        assert dataset_to_json(result) == serial_json

    def test_fully_checkpointed_run_remerges_identically(
        self, engine_config, serial_json, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        first = run_campaign(
            engine_config, shards=4, workers=1, checkpoint_dir=str(ckpt)
        )
        assert dataset_to_json(first) == serial_json
        stats = CampaignStats()
        again = run_campaign(
            engine_config,
            shards=4,
            workers=1,
            checkpoint_dir=str(ckpt),
            resume=True,
            stats=stats,
        )
        assert stats.shards_done == 0
        assert stats.shards_skipped == 4
        assert dataset_to_json(again) == serial_json

    def test_existing_checkpoint_requires_resume_flag(
        self, engine_config, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        run_campaign(
            engine_config, shards=2, workers=1, checkpoint_dir=str(ckpt)
        )
        with pytest.raises(ValueError, match="resume"):
            run_campaign(
                engine_config, shards=2, workers=1, checkpoint_dir=str(ckpt)
            )

    def test_torn_shard_write_is_invisible(self, engine_config, tmp_path):
        """A .tmp file left by a killed write is not a completed shard."""
        store = CheckpointStore(tmp_path / "ckpt")
        store.directory.mkdir(parents=True)
        (store.directory / "shard-0003.json.tmp").write_text("{partial")
        assert store.completed_shards() == set()


class TestStaleCheckpoints:
    @pytest.fixture()
    def checkpointed(self, engine_config, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_campaign(
            engine_config, shards=3, workers=1, checkpoint_dir=str(ckpt)
        )
        return ckpt

    def test_world_fingerprint_mismatch_is_refused(self, checkpointed):
        other = WorldConfig(n_websites=ENGINE_N, seed=ENGINE_SEED + 1)
        with pytest.raises(StaleCheckpointError, match="seed=8"):
            run_campaign(
                other,
                shards=3,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )

    def test_shard_count_mismatch_is_refused(self, engine_config, checkpointed):
        with pytest.raises(StaleCheckpointError, match="shards"):
            run_campaign(
                engine_config,
                shards=5,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )

    def test_tampered_manifest_is_refused(self, engine_config, checkpointed):
        manifest_path = checkpointed / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["shards"][0]["sites_sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(StaleCheckpointError, match="different site list"):
            run_campaign(
                engine_config,
                shards=3,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )

    @pytest.mark.parametrize("damage", ["truncated", "swapped"])
    def test_damaged_shard_is_refused(
        self, engine_config, checkpointed, damage
    ):
        """A shard file whose records are not its planned sites, in rank
        order, is refused on resume — a dropped record, or a same-size
        payload for another shard's sites."""
        first = checkpointed / "shard-0000.json"
        payload = json.loads(first.read_text())
        if damage == "truncated":
            payload["websites"].pop()
        else:
            other = json.loads((checkpointed / "shard-0001.json").read_text())
            assert len(other["websites"]) == len(payload["websites"])
            payload["websites"] = other["websites"]
        first.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shard 0 .* do not match"):
            run_campaign(
                engine_config,
                shards=3,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )

    @pytest.mark.parametrize(
        "garbage", [b"garbage\n", b"\x89PNG\r\n\x1a\n\xff\xfe"],
        ids=["text", "bytes"],
    )
    def test_unreadable_shard_names_its_file(
        self, engine_config, checkpointed, garbage
    ):
        shard = checkpointed / "shard-0001.json"
        shard.write_bytes(garbage)
        with pytest.raises(DatasetFormatError) as excinfo:
            run_campaign(
                engine_config,
                shards=3,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )
        message = str(excinfo.value)
        assert f"checkpoint shard 1 at {shard}" in message
        assert "delete the damaged checkpoint shard and resume" in message

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (lambda m: [], "it is an array, not an object"),
            (
                lambda m: {"manifest_format_version": 1, "fingerprint": 5},
                '"fingerprint" is an integer, not an object',
            ),
            (
                lambda m: {**m, "fingerprint": {**m["fingerprint"], "seed": "7"}},
                'fingerprint field "seed" is a string, not an integer',
            ),
            (
                lambda m: {
                    **m, "fingerprint": {**m["fingerprint"], "fault_digest": 5}
                },
                'fingerprint field "fault_digest" is an integer, not a string',
            ),
            (lambda m: {**m, "shards": "0-2"}, '"shards" is a string, not an array'),
            (
                lambda m: {**m, "shards": [7, *m["shards"][1:]]},
                'a "shards" entry is an integer, not an object',
            ),
        ],
        ids=[
            "array", "fingerprint-int", "seed-str", "digest-int",
            "shards-str", "shard-entry-int",
        ],
    )
    def test_misshapen_manifest_is_refused(
        self, engine_config, checkpointed, damage, problem
    ):
        """A manifest that parses but has the wrong shape is refused with
        a :class:`StaleCheckpointError` that says what is wrong."""
        manifest_path = checkpointed / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps(damage(manifest)))
        with pytest.raises(StaleCheckpointError) as excinfo:
            run_campaign(
                engine_config,
                shards=3,
                workers=1,
                checkpoint_dir=str(checkpointed),
                resume=True,
            )
        assert str(excinfo.value) == (
            f"malformed checkpoint manifest at {manifest_path}: {problem}; "
            f"use a fresh --checkpoint-dir"
        )

    def test_unreadable_manifest_is_refused(self, engine_config, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "manifest.json").write_text("not json")
        with pytest.raises(StaleCheckpointError, match="unreadable"):
            run_campaign(
                engine_config,
                shards=3,
                workers=1,
                checkpoint_dir=str(ckpt),
                resume=True,
            )


def _chaos_plan() -> FaultPlan:
    """A shard-stable chaos scenario: DNS faults scoped to provider
    nameservers, web faults scheduled by rank window — the two scoping
    mechanisms whose fault draws are independent of cache state and
    worker assignment."""
    return FaultPlan(
        rules=(
            FaultRule(name="dyn-flaky", layer="dns", kind="drop",
                      server="dynect.net", probability=0.5),
            FaultRule(name="head-brownout", layer="web", kind="http_error",
                      status=502, probability=0.7, rank_window=(1, 10)),
            FaultRule(name="ocsp-rot", layer="tls", kind="ocsp_expired",
                      probability=0.3),
        ),
        seed=2020,
    )


class TestChaosDeterminism:
    """Under a fault plan, serial and sharded/parallel runs — including
    interrupted-and-resumed ones — still merge to identical bytes."""

    @pytest.fixture(scope="class")
    def chaos_json(self, engine_config) -> str:
        dataset = run_campaign(
            world=build_world(engine_config), shards=1, workers=1,
            fault_plan=_chaos_plan(),
        )
        return dataset_to_json(dataset)

    def test_chaos_campaign_completes_with_degraded_records(self, chaos_json):
        dataset = dataset_from_json(chaos_json)
        assert len(dataset.websites) == ENGINE_N
        assert any(
            w.dns.degraded or w.tls.degraded or w.cdn.degraded
            for w in dataset.websites
        )
        assert any(
            max(w.dns.attempts, w.tls.attempts, w.cdn.attempts) > 1
            for w in dataset.websites
        )

    @pytest.mark.parametrize("shards,workers", [(1, 1), (8, 1), (8, WORKERS), (8, 4)])
    def test_sharded_chaos_matches_serial_bytes(
        self, engine_config, chaos_json, shards, workers
    ):
        result = run_campaign(
            engine_config, shards=shards, workers=workers,
            fault_plan=_chaos_plan(),
        )
        assert dataset_to_json(result) == chaos_json

    def test_empty_plan_matches_planless_run(self, engine_config, serial_json):
        result = run_campaign(
            engine_config, shards=4, workers=1, fault_plan=FaultPlan()
        )
        assert dataset_to_json(result) == serial_json

    def test_kill_and_resume_under_faults_matches_uninterrupted(
        self, engine_config, chaos_json, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                engine_config,
                shards=6,
                workers=1,
                checkpoint_dir=str(ckpt),
                progress=_AbortAfter(2),
                fault_plan=_chaos_plan(),
            )
        assert CheckpointStore(ckpt).completed_shards() == {0, 1}
        result = run_campaign(
            engine_config,
            shards=6,
            workers=1,
            checkpoint_dir=str(ckpt),
            resume=True,
            fault_plan=_chaos_plan(),
        )
        assert dataset_to_json(result) == chaos_json

    def test_resume_under_a_different_plan_is_refused(
        self, engine_config, tmp_path
    ):
        """The plan digest joins the world fingerprint: shards measured
        under one fault plan must not merge into another's campaign."""
        ckpt = tmp_path / "ckpt"
        run_campaign(
            engine_config, shards=2, workers=1, checkpoint_dir=str(ckpt),
            fault_plan=_chaos_plan(),
        )
        with pytest.raises(StaleCheckpointError, match="faults="):
            run_campaign(
                engine_config, shards=2, workers=1,
                checkpoint_dir=str(ckpt), resume=True,
            )

    def test_fingerprint_distinguishes_plans(self, engine_config):
        world = build_world(engine_config)
        plain = plan_campaign(world, n_shards=2)
        faulted = plan_campaign(world, n_shards=2, fault_plan=_chaos_plan())
        assert plain.fingerprint != faulted.fingerprint
        assert plain.fingerprint.fault_digest is None
        assert faulted.fingerprint.fault_digest == _chaos_plan().digest()
        assert "faults=" in faulted.fingerprint.describe()


def _dyn_only_site(world) -> str:
    """A site whose only nameservers are Dyn's: unresolvable while the
    Dyn outage plan is installed."""
    ranked = sorted(world.spec.websites, key=lambda w: w.rank)
    return next(w.domain for w in ranked if w.dns.providers == ("dyn",))


class TestFaultLifecycle:
    """A campaign's fault injector lives on its own vantage: after the
    run returns or is interrupted, the caller's world answers exactly as
    a freshly built one does."""

    @pytest.fixture(scope="class")
    def fresh_answer(self, engine_config):
        world = build_world(engine_config)
        return world.vantage().resolver.lookup(
            _dyn_only_site(world), RRType.A
        )

    def _assert_fault_free(self, world, fresh_answer) -> None:
        answer = world.vantage().resolver.lookup(
            _dyn_only_site(world), RRType.A
        )
        assert answer == fresh_answer
        assert answer.records

    def test_finished_run_clears_its_injector(
        self, engine_config, fresh_answer
    ):
        world = build_world(engine_config)
        run_campaign(
            world=world, limit=20,
            fault_plan=outage_fault_plan(world, "dns", "dyn"),
        )
        self._assert_fault_free(world, fresh_answer)

    def test_interrupted_run_clears_its_injector(
        self, engine_config, fresh_answer
    ):
        world = build_world(engine_config)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                world=world, shards=4, workers=1, limit=20,
                progress=_AbortAfter(1),
                fault_plan=outage_fault_plan(world, "dns", "dyn"),
            )
        self._assert_fault_free(world, fresh_answer)


def _metrics_telemetry():
    from repro.telemetry import TelemetryConfig

    return TelemetryConfig(metrics=True).build()


def _campaign_metrics_json(engine_config, **kwargs) -> str:
    from repro.telemetry import metrics_to_json

    telemetry = _metrics_telemetry()
    run_campaign(engine_config, telemetry=telemetry, **kwargs)
    assert telemetry.campaign_metrics is not None
    return metrics_to_json(telemetry.campaign_metrics)


class TestMetricsDeterminism:
    """The telemetry acceptance criterion: campaign metrics merge to
    byte-identical JSON at any shard/worker count, with and without a
    fault plan, across interrupt/resume histories."""

    @pytest.fixture(scope="class")
    def serial_metrics(self, engine_config) -> str:
        return _campaign_metrics_json(engine_config, shards=1, workers=1)

    @pytest.fixture(scope="class")
    def chaos_metrics(self, engine_config) -> str:
        return _campaign_metrics_json(
            engine_config, shards=1, workers=1, fault_plan=_chaos_plan()
        )

    @pytest.mark.parametrize(
        "shards,workers", [(8, 1), (8, WORKERS), (8, 4)]
    )
    def test_metrics_byte_identical_across_workers(
        self, engine_config, serial_metrics, shards, workers
    ):
        produced = _campaign_metrics_json(
            engine_config, shards=shards, workers=workers
        )
        assert produced == serial_metrics

    @pytest.mark.parametrize(
        "shards,workers", [(8, 1), (8, WORKERS), (8, 4)]
    )
    def test_chaos_metrics_byte_identical_across_workers(
        self, engine_config, chaos_metrics, shards, workers
    ):
        produced = _campaign_metrics_json(
            engine_config,
            shards=shards,
            workers=workers,
            fault_plan=_chaos_plan(),
        )
        assert produced == chaos_metrics

    def test_chaos_metrics_record_the_faults(self, engine_config):
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(metrics=True).build()
        run_campaign(
            engine_config, shards=4, workers=1, fault_plan=_chaos_plan(),
            telemetry=telemetry,
        )
        counters = telemetry.campaign_metrics["counters"]
        assert counters["sites"] == ENGINE_N
        assert counters["faults.sites_live{rule=head-brownout}"] == 10
        assert any(k.startswith("sites.degraded{") for k in counters)

    def test_kill_and_resume_merges_checkpointed_metrics(
        self, engine_config, serial_metrics, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                engine_config,
                shards=6,
                workers=1,
                checkpoint_dir=str(ckpt),
                progress=_AbortAfter(2),
                telemetry=_metrics_telemetry(),
            )
        # The resumed run merges shards 0-1 from their checkpointed
        # registry state, not from a live registry.
        produced = _campaign_metrics_json(
            engine_config,
            shards=6,
            workers=1,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        assert produced == serial_metrics

    def test_resume_without_checkpointed_metrics_is_refused(
        self, engine_config, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        run_campaign(
            engine_config, shards=2, workers=1, checkpoint_dir=str(ckpt)
        )
        with pytest.raises(ValueError, match="without telemetry"):
            run_campaign(
                engine_config,
                shards=2,
                workers=1,
                checkpoint_dir=str(ckpt),
                resume=True,
                telemetry=_metrics_telemetry(),
            )

    def test_telemetry_less_shards_keep_the_v3_era_bytes(
        self, engine_config, tmp_path
    ):
        """No telemetry → no ``metrics`` key: checkpoints from plain runs
        are byte-identical to what pre-telemetry builds wrote."""
        ckpt = tmp_path / "ckpt"
        run_campaign(
            engine_config, shards=2, workers=1, limit=20,
            checkpoint_dir=str(ckpt),
        )
        payload = json.loads((ckpt / "shard-0000.json").read_text())
        assert "metrics" not in payload


def _count_shard_codec_calls(monkeypatch) -> Counter:
    """Count calls to the shard encoder and decoder, wherever a module
    of the engine or the io module binds them."""
    import repro.measurement.io as io_module

    counts: Counter = Counter()
    for name in ("shard_to_json", "shard_payload_from_json"):
        original = getattr(io_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if (
                module_name == io_module.__name__
                or module_name.startswith("repro.engine")
            ) and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestShardsCrossInMemory:
    """Shard JSON is a checkpoint format only: records reach the merge
    in memory, and the checkpoint store encodes each fresh shard once
    and decodes each resumed shard once."""

    def test_serial_campaign_without_checkpoints_skips_shard_json(
        self, engine_config, serial_json, monkeypatch
    ):
        counts = _count_shard_codec_calls(monkeypatch)
        result = run_campaign(engine_config, shards=8, workers=1)
        assert dataset_to_json(result) == serial_json
        assert counts == Counter()

    def test_checkpoint_encodes_fresh_and_decodes_resumed_shards_once(
        self, engine_config, serial_json, tmp_path, monkeypatch
    ):
        counts = _count_shard_codec_calls(monkeypatch)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                engine_config, shards=6, workers=1,
                checkpoint_dir=str(ckpt), progress=_AbortAfter(2),
            )
        assert counts == Counter(shard_to_json=2)
        counts.clear()
        result = run_campaign(
            engine_config, shards=6, workers=1,
            checkpoint_dir=str(ckpt), resume=True,
        )
        assert dataset_to_json(result) == serial_json
        assert counts == Counter(shard_to_json=4, shard_payload_from_json=2)


def _containers(value, found: list) -> None:
    """Every list, dict and set reachable from a record, by identity."""
    if isinstance(value, (list, dict, set)):
        found.append(value)
    if isinstance(value, dict):
        for item in value.values():
            _containers(item, found)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            _containers(item, found)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            _containers(getattr(value, name), found)


class TestLiveRecordsCrossAsData:
    """What lets shards cross in memory: a live shard equals its decoded
    checkpoint (and its pickle), and no two records of one campaign
    share a mutable container, so nothing done to one record's data can
    show up in another."""

    @pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
    def test_live_shards_equal_their_round_trips(self, engine_world, chaos):
        from repro.engine.executor import measure_shard
        from repro.measurement.runner import MeasurementCampaign

        fault_plan = _chaos_plan() if chaos else None
        campaign = MeasurementCampaign(
            engine_world, fault_plan=fault_plan,
            telemetry=_metrics_telemetry(),
        )
        plan = plan_campaign(engine_world, n_shards=6, fault_plan=fault_plan)
        owners: dict[int, str] = {}
        measured = []  # keeps every record alive, so no id() is reused
        for spec in plan.shards:
            websites, metrics = measure_shard(campaign, spec)
            assert metrics is not None
            assert shard_payload_from_json(shard_to_json(websites, metrics)) == (
                websites, metrics,
            )
            assert pickle.loads(pickle.dumps(websites)) == websites
            measured.extend(websites)
            for website in websites:
                found: list = []
                _containers(website, found)
                for container in found:
                    owner = owners.setdefault(id(container), website.domain)
                    assert owner == website.domain, (
                        f"{website.domain} shares a {type(container).__name__} "
                        f"with {owner}"
                    )


_WALLCLOCK_KEY_FRAGMENTS = (
    "wall", "elapsed", "monotonic", "perf_counter", "timestamp",
    "created_at", "started_at", "finished_at", "duration_s",
)


def _assert_no_wallclock_keys(payload, path="$"):
    if isinstance(payload, dict):
        for key, value in payload.items():
            lowered = key.lower()
            for fragment in _WALLCLOCK_KEY_FRAGMENTS:
                assert fragment not in lowered, (
                    f"wall-clock-ish key {key!r} at {path} in a serialized "
                    f"artifact (REP006: only simulated time may be persisted)"
                )
            _assert_no_wallclock_keys(value, f"{path}.{key}")
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            _assert_no_wallclock_keys(item, f"{path}[{i}]")


class TestNoWallClockInArtifacts:
    """Regression guard for the progress-timer coupling: no serialized
    artifact (dataset, metrics, checkpoint shard, manifest) may carry a
    wall-clock-derived field, and two runs produce identical bytes even
    though real time passed between them."""

    def test_artifacts_carry_no_wallclock_fields(self, engine_config, tmp_path):
        from repro.telemetry import metrics_to_json

        ckpt = tmp_path / "ckpt"
        telemetry = _metrics_telemetry()
        dataset = run_campaign(
            engine_config, shards=3, workers=1, limit=30,
            checkpoint_dir=str(ckpt), telemetry=telemetry,
        )
        _assert_no_wallclock_keys(json.loads(dataset_to_json(dataset)))
        _assert_no_wallclock_keys(
            json.loads(metrics_to_json(telemetry.campaign_metrics))
        )
        for artifact in sorted(ckpt.glob("*.json")):
            _assert_no_wallclock_keys(
                json.loads(artifact.read_text()), artifact.name
            )

    def test_wallclock_stats_exist_but_stay_out_of_band(self, engine_config):
        """The operator-facing timings live in CampaignStats (backed by
        repro.telemetry.profile), not in any serialized payload."""
        stats = CampaignStats()
        dataset = run_campaign(
            engine_config, shards=2, workers=1, limit=20, stats=stats
        )
        assert stats.measure_seconds >= 0.0
        assert "seconds" not in dataset_to_json(dataset)

    def test_reruns_are_byte_identical_despite_real_time_passing(
        self, engine_config
    ):
        import time as _time

        first = _campaign_metrics_json(engine_config, shards=2, workers=1,
                                       limit=20)
        _time.sleep(0.05)
        second = _campaign_metrics_json(engine_config, shards=2, workers=1,
                                        limit=20)
        assert first == second


class TestStats:
    def test_stats_and_phases_are_recorded(self, engine_config):
        stats = CampaignStats()
        run_campaign(engine_config, shards=4, workers=1, stats=stats)
        assert stats.shards_total == 4
        assert stats.shards_done == 4
        assert stats.sites_done == ENGINE_N
        assert set(stats.phase_seconds) == {"plan", "measure", "merge"}
        assert stats.sites_per_sec > 0

    def test_console_progress_writes_to_stream(self, engine_config):
        import io

        from repro.engine import ConsoleProgress

        stream = io.StringIO()
        run_campaign(
            engine_config,
            shards=2,
            workers=1,
            limit=20,
            progress=ConsoleProgress(stream),
        )
        output = stream.getvalue()
        assert "plan: 20 sites in 2 shards" in output
        assert "shard 0001 done" in output
        assert "finished:" in output
