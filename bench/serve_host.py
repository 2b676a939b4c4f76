"""Run ``repro serve`` for the ``serve`` workload.

Everything after ``--`` is passed to ``repro.cli.main`` unchanged. With
``--trace-out`` the daemon-side wrappers (request handler, answer,
registry, rendering, store loads and query builders) are installed
first, and on the graceful SIGTERM drain the tracer's dump is written
there for the benchmark to merge with its client-side spans.

    python bench/serve_host.py [--trace-out FILE] -- serve NAME=PATH ...
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import DAEMON_ENTRY_POINTS, Tracer  # noqa: E402

from repro import cli  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: serve_host.py [--trace-out FILE] -- serve ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, serve_argv = argv[:split], argv[split + 1:]
    trace_out = None
    if own[:1] == ["--trace-out"] and len(own) == 2:
        trace_out = Path(own[1])
    elif own:
        print(f"serve_host.py: unknown arguments {own}", file=sys.stderr)
        return 2
    if trace_out is None:
        return cli.main(serve_argv)
    tracer = Tracer()
    tracer.install(DAEMON_ENTRY_POINTS)
    try:
        return cli.main(serve_argv)
    finally:
        tracer.uninstall()
        trace_out.write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
