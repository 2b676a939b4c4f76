"""Invariant-linter throughput: cold vs warm incremental cache.

Not a paper artifact — this measures the lint driver over the real
``src/repro`` tree, the same workload ``scripts/run_benchmarks.py``
freezes into ``BENCH_lint.json``:

* the **cold** pass parses every file and runs the full eight-rule
  pack (REP001, REP003, REP005–REP010, including the fixed-point taint
  solves);
* the **warm** pass answers every unchanged file from the content-hash
  cache and must re-parse **zero** files — that is the contract, not a
  soft target;
* a parallel (``jobs=4``) pass must produce the identical result.

Run with::

    pytest benchmarks/test_lint_scaling.py --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.staticcheck import DEFAULT_CONFIG, lint_paths
from repro.staticcheck.report import render_json

SRC = Path(repro.__file__).parent

COLD_FILES_PER_SEC_FLOOR = 5.0
#: A warm pass skips parsing entirely; anything less than 10x means the
#: cache is being missed.
WARM_SPEEDUP_FLOOR = 10.0


@pytest.fixture()
def cache_path(tmp_path) -> Path:
    return tmp_path / "lint-cache.json"


def test_cold_lint_throughput(benchmark, cache_path):
    def run():
        cache_path.unlink(missing_ok=True)
        return lint_paths([SRC], DEFAULT_CONFIG, cache_path=cache_path)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    seconds = min(benchmark.stats.stats.data)
    files_per_sec = result.files_checked / seconds

    assert result.findings == []  # src/ lints clean, always
    assert result.reparsed_files == result.files_checked

    benchmark.extra_info["files"] = result.files_checked
    benchmark.extra_info["files_per_sec"] = round(files_per_sec, 1)
    print(
        f"\nlint scaling [cold]: {result.files_checked} file(s) in "
        f"{seconds * 1000:.0f}ms = {files_per_sec:.1f} files/sec"
    )
    assert files_per_sec >= COLD_FILES_PER_SEC_FLOOR


def test_warm_cache_reparses_nothing_and_is_fast(benchmark, cache_path):
    import time

    start = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design
    cold = lint_paths([SRC], DEFAULT_CONFIG, cache_path=cache_path)
    cold_seconds = time.perf_counter() - start  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design

    def run():
        return lint_paths([SRC], DEFAULT_CONFIG, cache_path=cache_path)

    warm = benchmark.pedantic(run, rounds=3, iterations=1)
    warm_seconds = min(benchmark.stats.stats.data)

    # The acceptance contract: a warm run re-parses zero files.
    assert warm.reparsed_files == 0
    assert warm.cached_files == warm.files_checked
    assert render_json(warm).replace(
        f'"cached_files": {warm.cached_files}',
        f'"cached_files": {cold.cached_files}',
    ).replace(
        f'"reparsed_files": {warm.reparsed_files}',
        f'"reparsed_files": {cold.reparsed_files}',
    ) == render_json(cold)

    speedup = cold_seconds / warm_seconds
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nlint scaling [warm]: {warm.files_checked} file(s) in "
        f"{warm_seconds * 1000:.1f}ms (cold {cold_seconds * 1000:.0f}ms, "
        f"{speedup:.0f}x)"
    )
    assert speedup >= WARM_SPEEDUP_FLOOR


def test_parallel_lint_matches_serial(benchmark):
    serial = lint_paths([SRC], DEFAULT_CONFIG)

    def run():
        return lint_paths([SRC], DEFAULT_CONFIG, jobs=4)

    parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    assert render_json(parallel) == render_json(serial)
