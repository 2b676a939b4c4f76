"""Run the benchmark defined by BENCHMARK.json.

One workload, with every option::

    python3 bench/run.py --workload campaign --seed 42 --seconds 10 --trace 0

prints one line per metric (``workload name value unit``), comment lines
(``# ...``) with the deterministic outputs, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` metrics;
with ``--trace 1`` the layer wrappers are installed, every layer metric
is printed, the spans go to ``bench/out/<workload>.trace.json`` in Chrome
trace-event format, and the JSON carries the ``per_layer`` metrics.

Every workload, each in a fresh process so that process-global caches
cannot leak between them::

    python3 bench/run.py --seed 42            # end-to-end metrics
    python3 bench/run.py --seed 42 --trace    # also a traced run each

The exit status is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 42
WORKLOAD_NAMES = ("campaign", "timeline", "query", "serve")

#: Balance checks allow this share of disagreement.
TOLERANCE = 0.01


def _format(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _line(workload: str, name: str, value: float, unit: str) -> str:
    return f"{workload} {name} {_format(value)} {unit}"


def layer_metrics(tracer: Any, result: Any) -> dict[str, tuple[float, str]]:
    """Every layer metric a traced run yields, by name."""
    from workloads import percentile

    out: dict[str, tuple[float, str]] = {}
    stats = tracer.stats()
    for name, row in sorted(stats.items()):
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    site = stats.get("measurement.measure_site")
    if site:
        out["measurement.ms_per_site"] = (site["s"] / site["calls"] * 1e3, "ms")
    cache = tracer.outcomes("dnssim.cache")
    if cache:
        out["dnssim.cache_hit_ratio"] = (cache["hit"] / sum(cache.values()), "ratio")
    for kind in ("top", "site", "dependents", "whatif"):
        samples = tracer.samples(f"query.{kind}")
        if samples:
            out[f"query.{kind}.p50_us"] = (percentile(samples, 50.0) * 1e6, "us")
    handler = tracer.samples("serve.handler")
    if handler:
        out["serve.handler.p50_ms"] = (percentile(handler, 50.0) * 1e3, "ms")
    out["bench.unattributed_s"] = (
        sum(row["self_s"] for name, row in stats.items() if name.startswith("bench.")),
        "s",
    )
    out.update(result.layers)
    return out


def trace_problems(
    tracer: Any, workload: str, expected: frozenset[str], wall_s: float
) -> list[str]:
    """Loud failures of the traced run itself."""
    problems = []
    stats = tracer.stats()
    for name in sorted(expected):
        if not stats.get(name, {}).get("calls"):
            problems.append(
                f"{workload}: wrapper {name} recorded zero calls (a binding "
                f"that bypasses the patched attribute?)"
            )
    if tracer.open_spans():
        problems.append(f"{workload}: {tracer.open_spans()} span(s) never closed")
    for root_s, self_s in tracer.balance():
        if abs(root_s - self_s) > TOLERANCE * root_s:
            problems.append(
                f"{workload}: self times sum to {self_s:.4f}s in a tree of "
                f"{root_s:.4f}s"
            )
    run_s = stats.get("bench.run", {}).get("s", 0.0)
    if abs(run_s - wall_s) > TOLERANCE * wall_s:
        problems.append(
            f"{workload}: layer self times plus unattributed time sum to "
            f"{run_s:.4f}s, but the traced run took {wall_s:.4f}s"
        )
    return problems


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process and print its result."""
    import workloads
    from tracing import ENTRY_POINTS, Tracer

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(ENTRY_POINTS)
    start = perf_counter()
    if tracer is not None:
        with tracer.span("bench.run"):
            result = workloads.WORKLOADS[workload](seed, seconds, tracer)
    else:
        result = workloads.WORKLOADS[workload](seed, seconds)
    wall_s = perf_counter() - start

    problems = list(result.problems)
    if tracer is not None:
        tracer.uninstall()
        problems += trace_problems(
            tracer, workload, workloads.EXPECTED_LAYERS[workload], wall_s
        )
        printed = layer_metrics(tracer, result)
        printed["traced.throughput"] = result.metrics["throughput"]
        wanted = spec["per_layer"]
        workloads.OUT_DIR.mkdir(exist_ok=True)
        trace_path = workloads.OUT_DIR / f"{workload}.trace.json"
        tracer.write_chrome_trace(str(trace_path))
        print(f"# {workload} spans written to {trace_path.relative_to(ROOT)}")
    else:
        printed = dict(result.metrics)
        wanted = spec["end_to_end"]

    for name, (value, unit) in sorted(printed.items()):
        print(_line(workload, name, value, unit))
    for key, value in sorted(result.outputs.items()):
        print(f"# {workload} output {key} {json.dumps(value)}")
    for key, value in sorted(result.info.items()):
        print(f"# {workload} info {key} {json.dumps(value)}")

    metrics: dict[str, dict[str, Any]] = {}
    for entry in wanted:
        name = entry["name"]
        if name not in printed:
            problems.append(f"{workload}: metric {name} was not measured")
            continue
        value, unit = printed[name]
        if unit != entry["unit"]:
            problems.append(
                f"{workload}: metric {name} is in {unit}, BENCHMARK.json "
                f"says {entry['unit']}"
            )
        metrics[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"# FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def _child(workload: str, seed: int, seconds: float, trace: bool) -> tuple[int, dict[str, float]]:
    """Run one workload in a fresh interpreter, echoing its lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", _format(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    values: dict[str, float] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            continue
        print(line, flush=True)
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            values[fields[1]] = float(fields[2])
    return proc.returncode, values


def run_all(seed: int, seconds: float, trace: bool) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        code, plain = _child(workload, seed, seconds, False)
        status = status or code
        if trace:
            code, traced = _child(workload, seed, seconds, True)
            status = status or code
            if plain.get("throughput") and traced.get("traced.throughput"):
                overhead = plain["throughput"] / traced["traced.throughput"] - 1.0
                print(_line(workload, "trace.overhead", overhead, "ratio"), flush=True)
    return status


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark defined by BENCHMARK.json."
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="install the layer wrappers and report per-layer metrics",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an error, so the daemon and scratch files are
    # cleaned up by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.seconds is None:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
