"""Differential tests for incremental epoch remeasurement (repro.engine.epochs).

The contract under test: for every epoch of a timeline, the incrementally
spliced dataset serializes to the exact bytes a full from-scratch campaign
against that epoch's world produces. This is the longitudinal extension of
the engine's determinism guarantee, and what lets `BENCH_epoch.json` claim
the incremental path is a pure speedup rather than an approximation.
"""

import json

import pytest

from repro.engine.epochs import EpochResult, run_timeline
from repro.measurement.io import DatasetFormatError, dataset_to_json
from repro.worldgen.timeline import Timeline, TimelineConfig

CFG = TimelineConfig(n_websites=150, seed=7, epochs=4, churn_rate=0.10)


@pytest.fixture(scope="module")
def full_results():
    """The from-scratch baseline: every epoch measured in full, serially."""
    return run_timeline(CFG, full=True)


@pytest.fixture(scope="module")
def full_bytes(full_results):
    return [dataset_to_json(r.dataset) for r in full_results]


class TestIncrementalEqualsFull:
    def test_serial_incremental_is_byte_identical(self, full_bytes):
        results = run_timeline(CFG)
        assert len(results) == CFG.epochs
        for result, expected in zip(results, full_bytes):
            assert dataset_to_json(result.dataset) == expected, (
                f"epoch {result.epoch} diverged from full recompute"
            )

    def test_sharded_two_worker_incremental_is_byte_identical(
        self, full_bytes
    ):
        results = run_timeline(CFG, shards=4, workers=2)
        for result, expected in zip(results, full_bytes):
            assert dataset_to_json(result.dataset) == expected, (
                f"epoch {result.epoch} diverged under 2 workers"
            )

    def test_incremental_measures_only_the_churn_slice(self, full_results):
        results = run_timeline(CFG)
        assert results[0].sites_measured == CFG.n_websites
        for result in results[1:]:
            assert result.sites_measured == len(result.changes.changed)
            # With only 4 epochs each step spans >1 year of market drift,
            # so the slice is sizeable — but it must stay a strict subset,
            # or "incremental" buys nothing. (The benchmark's 20-epoch
            # timeline pins the interesting ~6x regime.)
            assert result.sites_measured < CFG.n_websites

    def test_epoch_metadata(self, full_results):
        for k, result in enumerate(full_results):
            assert isinstance(result, EpochResult)
            assert result.epoch == k
            assert result.sites_total == CFG.n_websites
        assert full_results[0].year == 2016
        assert full_results[-1].year == 2020


class TestEpochSubset:
    def test_subset_matches_the_full_run(self, full_bytes):
        (only,) = run_timeline(CFG, epochs=[2])
        assert only.epoch == 2
        assert dataset_to_json(only.dataset) == full_bytes[2]

    def test_subset_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_timeline(CFG, epochs=[CFG.epochs])
        with pytest.raises(ValueError):
            run_timeline(CFG, epochs=[-1])


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_bytes(
        self, tmp_path, full_bytes
    ):
        root = tmp_path / "ckpt"
        # First pass: run epochs 0..1 only, leaving later epochs undone.
        partial = run_timeline(
            CFG, shards=3, checkpoint_dir=root, epochs=[1]
        )
        assert len(partial) == 1
        assert (root / "epoch-0000").is_dir()
        # Second pass resumes the same directory and finishes the timeline;
        # completed epoch shards are loaded, not re-measured.
        results = run_timeline(
            CFG, shards=3, checkpoint_dir=root, resume=True
        )
        for result, expected in zip(results, full_bytes):
            assert dataset_to_json(result.dataset) == expected

    def test_truncated_epoch_shard_is_refused_on_resume(self, tmp_path):
        """A record dropped from a later epoch's shard must not be
        papered over with the previous epoch's record for that site."""
        root = tmp_path / "ckpt"
        run_timeline(CFG, shards=2, checkpoint_dir=root, epochs=[1])
        shard = root / "epoch-0001" / "shard-0000.json"
        payload = json.loads(shard.read_text())
        payload["websites"].pop()
        shard.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shard 0"):
            run_timeline(
                CFG, shards=2, checkpoint_dir=root, epochs=[1], resume=True
            )

    def test_garbage_epoch_shard_names_its_file_on_resume(self, tmp_path):
        root = tmp_path / "ckpt"
        run_timeline(CFG, shards=2, checkpoint_dir=root, epochs=[1])
        shard = root / "epoch-0001" / "shard-0001.json"
        shard.write_bytes(b"\x89PNG\r\n\x1a\n\xff garbage")
        with pytest.raises(DatasetFormatError) as excinfo:
            run_timeline(
                CFG, shards=2, checkpoint_dir=root, epochs=[1], resume=True
            )
        message = str(excinfo.value)
        assert f"checkpoint shard 1 at {shard}" in message
        assert "delete the damaged checkpoint shard and resume" in message

    def test_dirty_checkpoint_without_resume_rejected(self, tmp_path):
        root = tmp_path / "ckpt"
        run_timeline(CFG, checkpoint_dir=root, epochs=[0])
        with pytest.raises(ValueError):
            run_timeline(CFG, checkpoint_dir=root)


class TestSharedTimeline:
    def test_caller_supplied_timeline_is_used(self, full_bytes):
        timeline = Timeline(CFG)
        results = run_timeline(CFG, timeline=timeline)
        for result, expected in zip(results, full_bytes):
            assert dataset_to_json(result.dataset) == expected
