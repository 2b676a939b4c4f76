"""The benchmark's own tests, at tiny sizes (outside the tier-1 testpaths).

    python -m pytest bench -q

Each workload runs twice on the same seed, once plain and once traced.
Both runs must pass their correctness checks and produce identical
deterministic outputs; the plain run must emit every end-to-end metric
BENCHMARK.json names, and the traced run every per-layer metric, each
with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ENTRY_POINTS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5
TINY_INPUTS = workloads.StoreInputs(n_websites=100, epochs=3)

#: (parameters, seconds) per workload: a tiny world and well under a
#: second of timed work.
TINY = {
    "campaign": (
        workloads.CampaignParams(
            n_websites=100, sites=60, shards=6, min_jobs=2, min_setups=2
        ),
        0.01,
    ),
    "timeline": (
        workloads.TimelineParams(n_websites=100, epochs=3, min_jobs=2, min_setups=2),
        0.01,
    ),
    "query": (
        workloads.QueryParams(
            inputs=TINY_INPUTS, setups=2, cycle_ops=500, chunk_ops=100
        ),
        0.2,
    ),
    "serve": (
        workloads.ServeParams(inputs=TINY_INPUTS, setups=2, warmup_requests=10),
        1.0,
    ),
}


def test_spec_matches_the_workloads():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_is_correct_deterministic_and_complete(name):
    params, seconds = TINY[name]
    plain = workloads.WORKLOADS[name](SEED, seconds, None, params)

    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    try:
        start = perf_counter()
        with tracer.span("bench.run"):
            traced = workloads.WORKLOADS[name](SEED, seconds, tracer, params)
        wall_s = perf_counter() - start
    finally:
        tracer.uninstall()

    assert plain.problems == []
    assert traced.problems == []
    assert plain.outputs == traced.outputs
    assert plain.attempted >= 1 and plain.failed == 0
    for entry in SPEC["end_to_end"]:
        value, unit = plain.metrics[entry["name"]]
        assert unit == entry["unit"], entry["name"]
        assert value > 0, entry["name"]
    layers = run.layer_metrics(tracer, traced)
    for entry in SPEC["per_layer"]:
        assert layers[entry["name"]][1] == entry["unit"], entry["name"]
    assert run.trace_problems(
        tracer, name, workloads.EXPECTED_LAYERS[name], wall_s
    ) == []


def test_tracer_uninstall_restores_every_binding():
    import repro.store
    import repro.store.compile
    from repro.dnssim.message import DnsMessage

    before = (
        repro.store.compile_dataset_text,
        repro.store.compile.compile_dataset_text,
        DnsMessage.__dict__["from_wire"],
    )
    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    assert repro.store.compile_dataset_text is not before[0]
    tracer.uninstall()
    after = (
        repro.store.compile_dataset_text,
        repro.store.compile.compile_dataset_text,
        DnsMessage.__dict__["from_wire"],
    )
    assert after == before


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
