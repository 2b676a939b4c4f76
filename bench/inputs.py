"""Generate the epoch datasets the ``query`` and ``serve`` workloads read.

Measures a seeded N-epoch timeline incrementally and writes each epoch's
dataset as ``epoch-NNNN.json`` into ``--out``. With ``--trace-out`` the
layer wrappers are installed and the tracer's dump is written there, so
the parent's traced run can merge it.

    python bench/inputs.py --seed 42 --n 600 --epochs 3 --churn 0.1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import ENTRY_POINTS, Tracer  # noqa: E402

from repro.engine import run_timeline  # noqa: E402
from repro.measurement.io import dataset_to_json  # noqa: E402
from repro.worldgen.timeline import Timeline, TimelineConfig  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--churn", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install(ENTRY_POINTS)
    config = TimelineConfig(
        n_websites=args.n, seed=args.seed,
        epochs=args.epochs, churn_rate=args.churn,
    )
    with tracer.span("bench.inputs") if tracer is not None else nullcontext():
        timeline = Timeline(config)
        for result in run_timeline(config, timeline=timeline):
            text = dataset_to_json(result.dataset)
            path = args.out / f"epoch-{result.epoch:04d}.json"
            path.write_text(text, encoding="utf-8")
    if tracer is not None:
        tracer.uninstall()
        args.trace_out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
