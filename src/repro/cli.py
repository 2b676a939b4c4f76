"""Command-line interface: the paper's pipeline as a tool.

Subcommands::

    python -m repro summary   [--n 3000] [--seed 42] [--year 2020]
    python -m repro table     <1..11>  [--n ...] [--seed ...]
    python -m repro figure    <2..9>   [--n ...] [--seed ...]
    python -m repro audit     <domain> [--n ...] [--seed ...]
    python -m repro outage    <dns-provider-key> [--n ...] [--seed ...]
                              [--predict] [--json]
    python -m repro cascade   <provider-key> [--service dns|cdn|ca]
                              [--alpha A] [--threshold T] [--cooldown C]
                              [--heal-to H] [--ticks N] [--duration D]
                              [--config cascade.json] [--out traj.json]
                              [--json] [--validate] [--interactive]
                              [--why SITE] [--tick N] [--top K] [--n ...]
    python -m repro measure   [--workers W] [--shards S] [--out dataset.json]
                              [--checkpoint-dir DIR] [--resume] [--n ...]
                              [--fault-plan plan.json] [--fault-seed S]
                              [--metrics-out m.json]
                              [--trace-sites a.com,b.com --trace-out t.json]
                              [--epochs N --out DIR] [--churn R]
                              [--full-remeasure]
    python -m repro compare   [--epochs N] [--churn R] [--service S]
                              [--top K] [--workers W] [--shards S]
                              [--json] [--n ...] [--seed ...]
    python -m repro trace     <domain> [--n ...] [--fault-plan plan.json]
                              [--out trace.json]
    python -m repro stats     <checkpoint-dir | dataset.json> [--json]
    python -m repro analyze   <dataset.json> [--table N] [--providers SVC]
    python -m repro compile   <dataset.json | DIR --epochs> [--out ...]
    python -m repro query     <ds.rstore> [--top K] [--mode M] [--service S]
                              [--site DOMAIN] [--dependents P] [--whatif P]
                              [--json] [--interactive] [--stats]
    python -m repro serve     <name=store.rstore ...> [--host H] [--port P]
                              [--max-mem BYTES] [--max-inflight N]
                              [--max-batch N] [--deadline S] [--cache-size N]
    python -m repro client    [--host H] --port P [--store NAME]
                              [--top K] [--mode M] [--service S]
                              [--site DOMAIN] [--dependents P] [--whatif P]
                              [--batch FILE] [--diff A B] [--text]
                              [--health] [--statz]
    python -m repro faults    validate <plan.json>
    python -m repro lint      [paths...] [--format json|sarif] [--rules ...]
                              [--jobs N] [--cache PATH] [--sarif PATH] [--fix]

``table``/``figure`` regenerate one paper artifact; ``audit`` prints a
website's single points of failure (the Section 8 service); ``outage``
replays a provider outage end-to-end; ``cascade`` runs the temporal
cascade engine over a shock scenario — per-tick health trajectories,
root-cause attribution, blast-radius and remediation rankings, with an
interactive query loop (``why <site>``, ``top <k>``, ``tick <n>``) and
a ``--validate`` mode proving the no-recovery endpoint equals the
static ``outage --predict`` set; ``measure`` runs the campaign
through the sharded execution engine and freezes the raw dataset as
JSON (optionally with campaign metrics and per-site traces); ``trace``
deep-traces one site's measurement on the simulated clock and emits
Chrome trace-event JSON (Perfetto-loadable); ``stats`` recovers
campaign metrics from a checkpoint directory or a frozen dataset;
``analyze`` re-analyzes a frozen dataset offline (no world);
``compile`` freezes a dataset into a ``repro-store/1`` binary store and
``query`` serves top-K/site/dependents/what-if questions from it —
one-shot flags or an interactive loop — without ever re-reading the
JSON; ``serve`` keeps many stores hot behind a long-lived HTTP daemon
speaking the ``repro-serve/1`` protocol (batched answering, cross-store
diffs, load shedding, graceful drain on SIGTERM) and ``client`` asks it
questions — every daemon answer byte-identical to ``query --json``;
``lint`` runs the :mod:`repro.staticcheck` invariant rule pack
(REP001, REP003, REP006..REP011) over the source tree.
"""

from __future__ import annotations

import argparse
import sys
from repro import WorldConfig, analyze_world, build_world, build_world_pair
from repro.analysis import render_figure, render_table
from repro.analysis import figures as figure_builders
from repro.analysis import tables as table_builders
from repro.core import ServiceType
from repro.failures import robustness_score, simulate_dns_outage, website_exposure

_PAIR_TABLES = {2, 3, 4, 5, 7, 8, 9}
_PAIR_FIGURES = {6}


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=3000, help="world size")
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--year", type=int, default=2020, choices=(2016, 2020),
        help="snapshot year (single-snapshot commands)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMC'20 third-party dependency study, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="headline observations")
    _add_world_args(p_summary)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=range(1, 12))
    _add_world_args(p_table)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("number", type=int, choices=range(2, 10))
    _add_world_args(p_figure)

    p_audit = sub.add_parser("audit", help="audit one website's exposure")
    p_audit.add_argument("domain")
    _add_world_args(p_audit)

    p_outage = sub.add_parser("outage", help="replay a DNS provider outage")
    p_outage.add_argument("provider", help="provider key, e.g. dyn, cloudflare")
    _add_world_args(p_outage)
    p_outage.add_argument(
        "--predict", action="store_true",
        help="also print the graph engine's predicted victims and compare",
    )
    p_outage.add_argument(
        "--json", action="store_true",
        help="emit the outage result as JSON instead of text",
    )

    p_cascade = sub.add_parser(
        "cascade", help="run the temporal cascade engine over a shock"
    )
    p_cascade.add_argument(
        "provider", nargs="?", default=None,
        help="provider key to shock, e.g. dyn (omit with --config)",
    )
    _add_world_args(p_cascade)
    p_cascade.add_argument(
        "--service", default="dns", choices=("dns", "cdn", "ca"),
        help="which service the shocked provider key names",
    )
    p_cascade.add_argument(
        "--config", default=None, metavar="CASCADE_JSON",
        help="load the full scenario from a cascade-config JSON file",
    )
    p_cascade.add_argument(
        "--alpha", type=float, default=None, help="propagation strength [0,1]"
    )
    p_cascade.add_argument(
        "--threshold", type=float, default=None,
        help="health below this counts as failed",
    )
    p_cascade.add_argument(
        "--cooldown", type=int, default=None,
        help="ticks down before recovery; -1 disables recovery",
    )
    p_cascade.add_argument(
        "--heal-to", type=float, default=None,
        help="health a recovering node comes back at",
    )
    p_cascade.add_argument(
        "--ticks", type=int, default=None, help="tick budget"
    )
    p_cascade.add_argument(
        "--duration", type=int, default=None,
        help="lift the shock after this many ticks (default: permanent)",
    )
    p_cascade.add_argument(
        "--out", default=None, metavar="TRAJ_JSON",
        help="write the full trajectory JSON here",
    )
    p_cascade.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    p_cascade.add_argument(
        "--validate", action="store_true",
        help="check the no-recovery endpoint against outage --predict",
    )
    p_cascade.add_argument(
        "--interactive", action="store_true",
        help="drop into the query loop (why <site> | top <k> | tick <n>)",
    )
    p_cascade.add_argument(
        "--why", default=None, metavar="SITE",
        help="print one site's causal chain and exit",
    )
    p_cascade.add_argument(
        "--tick", type=int, default=None, metavar="N",
        help="print what changed at tick N and exit",
    )
    p_cascade.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="print the top-K remediation priorities and exit",
    )

    p_measure = sub.add_parser(
        "measure", help="run the campaign through the execution engine"
    )
    _add_world_args(p_measure)
    p_measure.add_argument(
        "--limit", type=int, default=None, help="measure only the top-k sites"
    )
    p_measure.add_argument(
        "--region", default=None, help="vantage-point region (GeoDNS views)"
    )
    p_measure.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process serial)",
    )
    p_measure.add_argument(
        "--shards", type=int, default=1, help="shard count (checkpoint units)"
    )
    p_measure.add_argument(
        "--checkpoint-dir", default=None,
        help="persist finished shards here (enables --resume)",
    )
    p_measure.add_argument(
        "--resume", action="store_true",
        help="skip shards already checkpointed in --checkpoint-dir",
    )
    p_measure.add_argument(
        "--out", default=None,
        help="write dataset JSON here (default: stdout)",
    )
    p_measure.add_argument(
        "--quiet", action="store_true", help="suppress progress on stderr"
    )
    p_measure.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="inject seeded faults from this fault-plan JSON file",
    )
    p_measure.add_argument(
        "--fault-seed", type=int, default=None,
        help="override the fault plan's seed (replay variations)",
    )
    p_measure.add_argument(
        "--metrics-out", default=None, metavar="METRICS_JSON",
        help="write campaign metrics JSON here (shard-stable aggregate)",
    )
    p_measure.add_argument(
        "--trace-sites", default=None, metavar="DOMAINS",
        help="comma-separated domains to span-trace (requires --workers 1)",
    )
    p_measure.add_argument(
        "--trace-out", default=None, metavar="TRACE_JSON",
        help="write the Chrome trace-event JSON here (with --trace-sites)",
    )
    p_measure.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="measure an N-epoch timeline instead of one snapshot "
             "(incremental remeasurement; --out names a directory, "
             "--year is ignored)",
    )
    p_measure.add_argument(
        "--churn", type=float, default=0.10,
        help="per-epoch site churn rate (with --epochs)",
    )
    p_measure.add_argument(
        "--full-remeasure", action="store_true",
        help="with --epochs: re-measure every site each epoch instead of "
             "splicing unchanged records (the differential baseline)",
    )

    p_trace = sub.add_parser(
        "trace", help="deep-trace one site's measurement on the simulated clock"
    )
    p_trace.add_argument("domain")
    _add_world_args(p_trace)
    p_trace.add_argument(
        "--fault-plan", default=None, metavar="PLAN_JSON",
        help="inject seeded faults from this fault-plan JSON file",
    )
    p_trace.add_argument(
        "--fault-seed", type=int, default=None,
        help="override the fault plan's seed (replay variations)",
    )
    p_trace.add_argument(
        "--out", default=None,
        help="write Chrome trace-event JSON here (default: stdout)",
    )
    p_trace.add_argument(
        "--quiet", action="store_true",
        help="suppress the diagnostics summary on stderr",
    )

    p_stats = sub.add_parser(
        "stats", help="campaign metrics from a checkpoint dir or dataset"
    )
    p_stats.add_argument(
        "path", help="checkpoint directory or measure-produced dataset JSON"
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit canonical metrics JSON instead of the summary table",
    )

    p_analyze = sub.add_parser(
        "analyze", help="analyze a frozen dataset JSON offline"
    )
    p_analyze.add_argument("dataset", help="path to a measure-produced JSON")
    p_analyze.add_argument(
        "--table", type=int, default=None, choices=(1, 6),
        help="render a single-snapshot paper table instead of the summary",
    )
    p_analyze.add_argument(
        "--providers", default=None, choices=("dns", "cdn", "ca"),
        help="render the top-provider concentration/impact table instead",
    )

    p_compile = sub.add_parser(
        "compile", help="freeze a dataset JSON into a binary query store"
    )
    p_compile.add_argument("dataset", help="path to a measure-produced JSON")
    p_compile.add_argument(
        "--out", default=None, metavar="STORE",
        help="store output path (default: <dataset>.rstore)",
    )
    p_compile.add_argument(
        "--quiet", action="store_true", help="suppress the summary on stderr"
    )
    p_compile.add_argument(
        "--epochs", action="store_true",
        help="treat DATASET as a directory of epoch-*.json files (as "
             "written by measure --epochs) and compile each to a store",
    )

    p_compare = sub.add_parser(
        "compare", help="longitudinal comparison across timeline epochs"
    )
    p_compare.add_argument("--n", type=int, default=1000, help="world size")
    p_compare.add_argument("--seed", type=int, default=42, help="world seed")
    p_compare.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="number of timeline epochs (2016..2020 spread evenly)",
    )
    p_compare.add_argument(
        "--churn", type=float, default=0.10,
        help="per-epoch site churn rate",
    )
    p_compare.add_argument(
        "--limit", type=int, default=None, help="measure only the top-k sites"
    )
    p_compare.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process serial)",
    )
    p_compare.add_argument(
        "--shards", type=int, default=1, help="shard count per epoch"
    )
    p_compare.add_argument(
        "--top", type=int, default=3, metavar="K",
        help="top-K providers per service to show each epoch",
    )
    p_compare.add_argument(
        "--service", default="dns", choices=("dns", "cdn", "ca"),
        help="service whose top providers are tracked",
    )
    p_compare.add_argument(
        "--json", action="store_true",
        help="emit the per-epoch comparison as JSON instead of text",
    )

    p_query = sub.add_parser(
        "query", help="serve dependency queries from a compiled store"
    )
    p_query.add_argument("store", help="path to a compiled .rstore file")
    p_query.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="print the top-K providers and exit",
    )
    p_query.add_argument(
        "--mode", default="impact",
        choices=(
            "impact", "concentration", "direct_impact", "direct_concentration"
        ),
        help="ranking metric for --top",
    )
    p_query.add_argument(
        "--service", default="dns", choices=("dns", "cdn", "ca"),
        help="service type for --top",
    )
    p_query.add_argument(
        "--site", default=None, metavar="DOMAIN",
        help="print one website's dependencies + exposure and exit",
    )
    p_query.add_argument(
        "--dependents", default=None, metavar="PROVIDER",
        help="print who depends on a provider (service:id form) and exit",
    )
    p_query.add_argument(
        "--whatif", default=None, metavar="PROVIDER",
        help="print the blast radius of a provider failure and exit",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help="emit canonical JSON instead of text (one-shot queries)",
    )
    p_query.add_argument(
        "--interactive", action="store_true",
        help="drop into the query loop (top | site | deps | whatif | stats)",
    )
    p_query.add_argument(
        "--stats", action="store_true",
        help="print engine LRU cache counters to stderr when done",
    )

    p_serve = sub.add_parser(
        "serve", help="run the long-lived multi-store query daemon"
    )
    p_serve.add_argument(
        "stores", nargs="+", metavar="STORE",
        help="stores to serve, as NAME=PATH or a bare .rstore path",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 picks a free one, announced on stderr)",
    )
    p_serve.add_argument(
        "--max-mem", type=int, default=None, metavar="BYTES",
        help="global cap on mmapped store bytes; least-recently-queried "
             "stores are evicted to stay under it",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="concurrent requests admitted before shedding with 429",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=256, metavar="N",
        help="queries accepted per batch request",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline before a typed 503 (0 disables)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=128, metavar="N",
        help="per-store payload LRU capacity",
    )

    p_client = sub.add_parser(
        "client", help="query a running serve daemon"
    )
    p_client.add_argument("--host", default="127.0.0.1", help="daemon host")
    p_client.add_argument(
        "--port", type=int, required=True, help="daemon port"
    )
    p_client.add_argument(
        "--store", default=None, metavar="NAME",
        help="store to ask (optional when the daemon serves exactly one)",
    )
    p_client.add_argument(
        "--top", type=int, default=None, metavar="K",
        help="ask for the top-K providers",
    )
    p_client.add_argument(
        "--mode", default="impact",
        choices=(
            "impact", "concentration", "direct_impact", "direct_concentration"
        ),
        help="ranking metric for --top",
    )
    p_client.add_argument(
        "--service", default="dns", choices=("dns", "cdn", "ca"),
        help="service type for --top",
    )
    p_client.add_argument(
        "--site", default=None, metavar="DOMAIN",
        help="ask for one website's dependencies + exposure",
    )
    p_client.add_argument(
        "--dependents", default=None, metavar="PROVIDER",
        help="ask who depends on a provider (service:id form)",
    )
    p_client.add_argument(
        "--whatif", default=None, metavar="PROVIDER",
        help="ask for the blast radius of a provider failure",
    )
    p_client.add_argument(
        "--batch", default=None, metavar="FILE",
        help="send a batch request from a JSON file of {store, query} items",
    )
    p_client.add_argument(
        "--diff", nargs=2, default=None, metavar=("STORE_A", "STORE_B"),
        help="ask the query of two stores and include the delta",
    )
    p_client.add_argument(
        "--text", action="store_true",
        help="render a single-query answer as text instead of raw JSON",
    )
    p_client.add_argument(
        "--health", action="store_true", help="fetch /healthz and exit"
    )
    p_client.add_argument(
        "--statz", action="store_true", help="fetch /statz and exit"
    )

    p_faults = sub.add_parser("faults", help="fault-plan utilities")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_faults_validate = faults_sub.add_parser(
        "validate", help="check a fault-plan JSON file and summarize it"
    )
    p_faults_validate.add_argument("plan", help="path to a fault-plan JSON")

    p_lint = sub.add_parser(
        "lint", help="run the determinism/layering invariant linter"
    )
    from repro.staticcheck.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    return parser


def _single_snapshot(args):
    world = build_world(
        WorldConfig(n_websites=args.n, seed=args.seed, year=args.year)
    )
    return world, analyze_world(world)


def _snapshot_pair(args):
    world_2016, world_2020, _ = build_world_pair(
        WorldConfig(n_websites=args.n, seed=args.seed)
    )
    return analyze_world(world_2016), analyze_world(world_2020)


def cmd_summary(args) -> int:
    _, snapshot = _single_snapshot(args)
    _print_summary(snapshot)
    return 0


def _print_summary(snapshot) -> None:
    websites = snapshot.dns_characterized
    n = len(websites)
    print(f"{snapshot.year} snapshot, {len(snapshot.websites)} websites "
          f"({n} DNS-characterized)")
    third = sum(1 for w in websites if w.dns.uses_third_party)
    critical = sum(1 for w in websites if w.dns.is_critical)
    print(f"DNS:  {third / n:6.1%} third-party   {critical / n:6.1%} critical")
    users = snapshot.cdn_websites
    print(f"CDN:  {len(users) / len(snapshot.websites):6.1%} adoption      "
          f"{sum(1 for w in users if w.cdn_is_critical) / max(len(users), 1):6.1%} critical (of users)")
    https = snapshot.https_websites
    print(f"CA:   {len(https) / len(snapshot.websites):6.1%} HTTPS         "
          f"{sum(1 for w in https if w.ca.is_critical) / max(len(https), 1):6.1%} critical (of HTTPS)")
    print("\nTop-3 impact per service (indirect included):")
    for service in ServiceType:
        metrics = snapshot.provider_metrics(service)
        ranked = sorted(
            metrics.items(),
            key=lambda pair: (-pair[1].impact, str(pair[0])),
        )
        line = ", ".join(
            f"{snapshot.graph.display(node)} "
            f"({100 * m.impact / len(snapshot.websites):.1f}%)"
            for node, m in ranked[:3]
        )
        print(f"  {service.value.upper():3s}: {line}")


_TABLE_DISPATCH = {
    1: ("table1_dataset_summary", False),
    2: ("table2_comparison_summary", True),
    3: ("table3_dns_trends", True),
    4: ("table4_cdn_trends", True),
    5: ("table5_ca_trends", True),
    6: ("table6_interservice_summary", False),
    7: ("table7_ca_dns_trends", True),
    8: ("table8_ca_cdn_trends", True),
    9: ("table9_cdn_dns_trends", True),
}


def cmd_table(args) -> int:
    if args.number == 10:
        from repro.worldgen import hospital_snapshot
        from repro.worldgen.world import World

        config = WorldConfig(n_websites=args.n, seed=args.seed)
        snapshot = analyze_world(World(hospital_snapshot(config, 200), config))
        print(render_table(table_builders.table10_hospitals(snapshot)))
        return 0
    if args.number == 11:
        from repro.worldgen.case_studies import smart_home_companies

        print(render_table(
            table_builders.table11_smart_home(smart_home_companies())
        ))
        return 0
    name, needs_pair = _TABLE_DISPATCH[args.number]
    builder = getattr(table_builders, name)
    if needs_pair:
        print(render_table(builder(*_snapshot_pair(args))))
    else:
        _, snapshot = _single_snapshot(args)
        print(render_table(builder(snapshot)))
    return 0


_FIGURE_DISPATCH = {
    2: "figure2_dns_by_rank",
    3: "figure3_cdn_by_rank",
    4: "figure4_ca_by_rank",
    5: "figure5_dependency_graphs",
    6: "figure6_provider_cdfs",
    7: "figure7_ca_dns_amplification",
    8: "figure8_ca_cdn_amplification",
    9: "figure9_cdn_dns_amplification",
}


def cmd_figure(args) -> int:
    builder = getattr(figure_builders, _FIGURE_DISPATCH[args.number])
    if args.number in _PAIR_FIGURES:
        print(render_figure(builder(*_snapshot_pair(args))))
    else:
        _, snapshot = _single_snapshot(args)
        print(render_figure(builder(snapshot)))
    return 0


def cmd_audit(args) -> int:
    _, snapshot = _single_snapshot(args)
    if args.domain not in snapshot.by_domain():
        print(f"{args.domain} is not in this world "
              f"(try a corner-case domain like academia.edu)", file=sys.stderr)
        return 1
    report = website_exposure(snapshot, args.domain)
    score = robustness_score(snapshot, args.domain)
    print(f"Exposure report for {args.domain}:")
    print(f"  direct critical: {report.direct_critical or ['none']}")
    print(f"  transitive critical: {report.transitive_critical or ['none']}")
    print(f"  single points of failure: {report.critical_dependency_count}")
    print(f"  robustness score: {score.score:.2f} / 1.00")
    if score.worst_provider:
        print(f"  biggest shared-fate provider: {score.worst_provider} "
              f"(impacts {score.worst_provider_impact:.0%} of the web)")
    return 0


def cmd_outage(args) -> int:
    world = build_world(
        WorldConfig(n_websites=args.n, seed=args.seed, year=args.year)
    )
    if args.provider not in world.dns_infra:
        known = sorted(k for k in world.spec.dns_providers)[:12]
        print(f"unknown provider {args.provider!r}; e.g. {known}", file=sys.stderr)
        return 1
    result = simulate_dns_outage(world, args.provider)
    predicted: set[str] | None = None
    if args.predict:
        from repro.failures import predicted_dns_victims

        predicted = set(
            predicted_dns_victims(
                analyze_world(world), world, args.provider, critical_only=True
            )
        )
    if args.json:
        import json

        payload = result.to_dict()
        if predicted is not None:
            observed = set(result.unreachable)
            payload["prediction"] = {
                "predicted": sorted(predicted),
                "predicted_only": sorted(predicted - observed),
                "observed_only": sorted(observed - predicted),
            }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"Outage of {args.provider}: "
          f"{len(result.unreachable)} unreachable, "
          f"{len(result.degraded)} degraded, "
          f"{len(result.unaffected)} unaffected "
          f"({result.affected_fraction():.1%} affected)")
    for domain in result.unreachable[:10]:
        print(f"  down: {domain}")
    if predicted is not None:
        observed = set(result.unreachable)
        agree = len(predicted & observed)
        print(f"Graph prediction: {len(predicted)} critically dependent "
              f"({agree} also unreachable in the replay, "
              f"{len(predicted - observed)} predicted-only, "
              f"{len(observed - predicted)} observed-only)")
    return 0


def cmd_cascade(args) -> int:
    import json as json_mod

    from repro.cascade import (
        CascadeConfig,
        CascadeConfigError,
        CascadeEngine,
        build_report,
        ca_outage_config,
        cdn_outage_config,
        dns_outage_config,
        query_loop,
        render_report,
        trajectory_to_json,
        validate_static_equivalence,
        why,
    )

    world = build_world(
        WorldConfig(n_websites=args.n, seed=args.seed, year=args.year)
    )
    overrides = {
        name: value
        for name, value in (
            ("alpha", args.alpha),
            ("threshold", args.threshold),
            ("cooldown", args.cooldown),
            ("heal_to", args.heal_to),
            ("ticks", args.ticks),
        )
        if value is not None
    }
    try:
        if args.config is not None:
            if args.provider is not None or overrides or args.duration:
                print(
                    "cascade: --config is the whole scenario; drop the "
                    "provider argument and the model flags",
                    file=sys.stderr,
                )
                return 1
            with open(args.config, encoding="utf-8") as handle:
                config = CascadeConfig.from_json(handle.read())
        else:
            if args.provider is None:
                print(
                    "cascade: name a provider key to shock, or pass --config",
                    file=sys.stderr,
                )
                return 1
            builders = {
                "dns": dns_outage_config,
                "cdn": cdn_outage_config,
                "ca": ca_outage_config,
            }
            config = builders[args.service](
                world, args.provider, duration=args.duration, **overrides
            )
    except OSError as exc:
        print(f"cascade: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except CascadeConfigError as exc:
        print(f"cascade: {exc}", file=sys.stderr)
        return 1

    snapshot = analyze_world(world)
    try:
        trajectory = CascadeEngine(snapshot, config).run()
    except CascadeConfigError as exc:
        print(f"cascade: {exc}", file=sys.stderr)
        return 1
    report = build_report(snapshot, trajectory)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(trajectory_to_json(trajectory))
        print(f"[cascade] trajectory written to {args.out}", file=sys.stderr)

    if args.validate:
        if args.service != "dns" or args.provider is None:
            print(
                "cascade: --validate compares against the DNS prediction; "
                "use a dns provider key",
                file=sys.stderr,
            )
            return 1
        try:
            equivalence = validate_static_equivalence(
                snapshot, world, args.provider,
                config=config, trajectory=trajectory,
            )
        except CascadeConfigError as exc:
            print(f"cascade: {exc}", file=sys.stderr)
            return 1
        verdict = "EXACT" if equivalence.consistent else "MISMATCH"
        print(
            f"Static equivalence {verdict}: cascade endpoint "
            f"{len(equivalence.cascade_failed)} failed vs "
            f"{len(equivalence.predicted)} predicted "
            f"(+{len(equivalence.only_cascade)} cascade-only, "
            f"+{len(equivalence.only_predicted)} predicted-only)"
        )
        if not equivalence.consistent:
            return 1

    if args.interactive:
        query_loop(trajectory, report, sys.stdin, sys.stdout)
        return 0
    if args.why is not None:
        print(why(trajectory, args.why).render())
        return 0
    if args.tick is not None:
        if not 0 <= args.tick < trajectory.ticks_run:
            print(
                f"cascade: tick {args.tick} out of range "
                f"0..{trajectory.ticks_run - 1}",
                file=sys.stderr,
            )
            return 1
        for transition in trajectory.transitions_at(args.tick):
            print(
                f"{transition.node}: {transition.from_state.value} -> "
                f"{transition.to_state.value} (health {transition.health:g})"
            )
        return 0
    if args.top is not None:
        if not report.remediation:
            print("no failed providers — nothing to remediate")
            return 0
        for rank, entry in enumerate(report.remediation[: args.top], start=1):
            print(
                f"{rank}. {entry.provider}: frees {entry.sites_held_down} "
                f"site(s) (static impact {entry.static_impact})"
            )
        return 0
    if args.json:
        payload = report.to_dict()
        payload["config_digest"] = config.digest()
        print(json_mod.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def _load_fault_plan(path: str, seed: int | None):
    """Read and validate a fault-plan JSON file, optionally reseeded."""
    from dataclasses import replace as dc_replace

    from repro.faults.plan import FaultPlan

    with open(path, encoding="utf-8") as handle:
        plan = FaultPlan.from_json(handle.read())
    if seed is not None:
        plan = dc_replace(plan, seed=seed)
    return plan


def _cmd_measure_epochs(args) -> int:
    """The ``measure --epochs`` path: one timeline, per-epoch datasets."""
    from pathlib import Path

    from repro.engine import run_timeline
    from repro.measurement.io import save_dataset
    from repro.worldgen.timeline import TimelineConfig

    unsupported = [
        ("--region", args.region is not None),
        ("--fault-plan", args.fault_plan is not None),
        ("--metrics-out", args.metrics_out is not None),
        ("--trace-sites", args.trace_sites is not None),
    ]
    for flag, present in unsupported:
        if present:
            print(
                f"measure: {flag} is not supported with --epochs",
                file=sys.stderr,
            )
            return 1
    if args.out is None:
        print(
            "measure: --epochs writes one dataset per epoch; "
            "--out must name a directory",
            file=sys.stderr,
        )
        return 1
    try:
        config = TimelineConfig(
            n_websites=args.n,
            seed=args.seed,
            epochs=args.epochs,
            churn_rate=args.churn,
        )
        results = run_timeline(
            config,
            shards=args.shards,
            workers=args.workers,
            limit=args.limit,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            full=args.full_remeasure,
        )
    except ValueError as exc:
        print(f"measure: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = out_dir / f"epoch-{result.epoch:04d}.json"
        save_dataset(result.dataset, path)
        if not args.quiet:
            print(
                f"[engine] epoch {result.epoch} ({result.year}): measured "
                f"{result.sites_measured}/{result.sites_total} site(s) "
                f"-> {path}",
                file=sys.stderr,
            )
    return 0


def cmd_measure(args) -> int:
    from repro.engine import ConsoleProgress, NullProgress, run_campaign
    from repro.measurement.io import dataset_to_json, save_dataset
    from repro.telemetry import TelemetryConfig, chrome_trace, metrics_to_json

    if args.epochs is not None:
        return _cmd_measure_epochs(args)
    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = _load_fault_plan(args.fault_plan, args.fault_seed)
        except (OSError, ValueError) as exc:
            print(
                f"measure: cannot load fault plan {args.fault_plan}: {exc}",
                file=sys.stderr,
            )
            return 1
    want_trace = args.trace_sites is not None
    if want_trace and args.workers != 1:
        print(
            "measure: --trace-sites requires --workers 1 "
            "(spans are recorded in-process)",
            file=sys.stderr,
        )
        return 1
    if want_trace and args.trace_out is None:
        print("measure: --trace-sites requires --trace-out", file=sys.stderr)
        return 1
    if args.trace_out is not None and not want_trace:
        print("measure: --trace-out requires --trace-sites", file=sys.stderr)
        return 1
    telemetry = None
    if args.metrics_out is not None or want_trace:
        sites = ()
        if want_trace:
            sites = tuple(sorted(
                {s.strip() for s in args.trace_sites.split(",") if s.strip()}
            ))
        telemetry = TelemetryConfig(
            metrics=args.metrics_out is not None,
            trace=want_trace,
            trace_sites=sites,
        ).build()
    config = WorldConfig(n_websites=args.n, seed=args.seed, year=args.year)
    progress = NullProgress() if args.quiet else ConsoleProgress()
    try:
        dataset = run_campaign(
            config,
            shards=args.shards,
            workers=args.workers,
            limit=args.limit,
            region=args.region,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            progress=progress,
            fault_plan=fault_plan,
            telemetry=telemetry,
        )
    except ValueError as exc:  # stale checkpoints, bad shard/worker counts
        print(f"measure: {exc}", file=sys.stderr)
        return 1
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_to_json(telemetry.campaign_metrics or {}))
        if not args.quiet:
            print(f"[engine] metrics written to {args.metrics_out}",
                  file=sys.stderr)
    if want_trace:
        roots = telemetry.tracer.drain()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace(roots, label="repro measure"))
        if not args.quiet:
            print(f"[engine] trace written to {args.trace_out}",
                  file=sys.stderr)
    if args.out is None:
        print(dataset_to_json(dataset))
    else:
        save_dataset(dataset, args.out)
        if not args.quiet:
            print(f"[engine] dataset written to {args.out}", file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    from repro.measurement.runner import MeasurementCampaign, ranked_sites
    from repro.telemetry import TelemetryConfig, chrome_trace, summary_table

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = _load_fault_plan(args.fault_plan, args.fault_seed)
        except (OSError, ValueError) as exc:
            print(
                f"trace: cannot load fault plan {args.fault_plan}: {exc}",
                file=sys.stderr,
            )
            return 1
    world = build_world(
        WorldConfig(n_websites=args.n, seed=args.seed, year=args.year)
    )
    telemetry = TelemetryConfig(
        metrics=True, diagnostics=True, trace=True, trace_sites=(args.domain,)
    ).build()
    campaign = MeasurementCampaign(
        world, fault_plan=fault_plan, telemetry=telemetry
    )
    rank = dict(ranked_sites(world)).get(args.domain)
    if rank is None:
        print(
            f"trace: {args.domain} is not in this world "
            f"(n={args.n} seed={args.seed}); measuring it anyway at rank 0",
            file=sys.stderr,
        )
        rank = 0
    campaign.measure_site(args.domain, rank)
    trace = chrome_trace(
        telemetry.tracer.drain(), label=f"repro trace {args.domain}"
    )
    if args.out is None:
        print(trace, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(trace)
        if not args.quiet:
            print(f"[trace] written to {args.out}", file=sys.stderr)
    if not args.quiet:
        print(summary_table(
            telemetry.diagnostics, f"diagnostics for {args.domain}"
        ), end="", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    import os

    from repro.telemetry import MetricsRegistry, metrics_to_json, summary_table

    if os.path.isdir(args.path):
        from repro.engine.checkpoint import CheckpointStore

        store = CheckpointStore(args.path)
        shard_ids = sorted(store.completed_shards())
        if not shard_ids:
            print(f"stats: no completed shards under {args.path}",
                  file=sys.stderr)
            return 1
        merged = MetricsRegistry()
        for shard_id in shard_ids:
            try:
                _, metrics = store.load_shard(shard_id)
            except (OSError, ValueError) as exc:
                print(f"stats: {exc}", file=sys.stderr)
                return 1
            if metrics is None:
                print(
                    f"stats: shard {shard_id} was checkpointed without "
                    f"telemetry; rerun measure with --metrics-out to "
                    f"collect metrics",
                    file=sys.stderr,
                )
                return 1
            merged.merge_dict(metrics)
        title = f"checkpoint metrics ({len(shard_ids)} shard(s))"
    else:
        from repro.measurement.io import load_dataset
        from repro.measurement.telemetry import dataset_metrics

        try:
            dataset = load_dataset(args.path)
        except (OSError, ValueError) as exc:
            print(f"stats: cannot load {args.path}: {exc}", file=sys.stderr)
            return 1
        merged = dataset_metrics(dataset)
        title = f"dataset metrics ({len(dataset.websites)} website(s))"
    if args.json:
        print(metrics_to_json(merged), end="")
    else:
        print(summary_table(merged, title), end="")
    return 0


def cmd_analyze(args) -> int:
    from repro.core import analyze_dataset
    from repro.measurement.io import load_dataset
    from repro.worldgen.config import PAPER_POPULATION

    try:
        dataset = load_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.dataset}: {exc}", file=sys.stderr)
        return 1
    # The campaign records its world size, so offline analysis recovers
    # the rank scale; fall back to the measured population.
    world_n = dataset.notes.get("world_n") or len(dataset.websites)
    rank_scale = PAPER_POPULATION / world_n if world_n else 1.0
    snapshot = analyze_dataset(dataset, rank_scale=rank_scale)
    if args.providers is not None:
        print(render_table(table_builders.table_top_providers(
            snapshot, ServiceType(args.providers)
        )))
        return 0
    if args.table is None:
        _print_summary(snapshot)
        return 0
    name, _ = _TABLE_DISPATCH[args.table]
    print(render_table(getattr(table_builders, name)(snapshot)))
    return 0


def cmd_compile(args) -> int:
    from pathlib import Path

    from repro.store import compile_file

    if args.epochs:
        epoch_dir = Path(args.dataset)
        datasets = sorted(epoch_dir.glob("epoch-*.json"))
        if not datasets:
            print(
                f"compile: no epoch-*.json files in {epoch_dir}",
                file=sys.stderr,
            )
            return 1
        if args.out is not None:
            print(
                "compile: --out is not supported with --epochs "
                "(stores land next to their datasets)",
                file=sys.stderr,
            )
            return 1
        for dataset_path in datasets:
            out_path = f"{dataset_path}.rstore"
            try:
                written = compile_file(str(dataset_path), out_path)
            except (OSError, ValueError) as exc:
                print(
                    f"compile: cannot compile {dataset_path}: {exc}",
                    file=sys.stderr,
                )
                return 1
            if not args.quiet:
                print(
                    f"[store] {out_path}: {written} byte(s) "
                    f"from {dataset_path}",
                    file=sys.stderr,
                )
        return 0
    out_path = args.out if args.out is not None else f"{args.dataset}.rstore"
    try:
        written = compile_file(args.dataset, out_path)
    except (OSError, ValueError) as exc:
        print(f"compile: cannot compile {args.dataset}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(
            f"[store] {out_path}: {written} byte(s) from {args.dataset}",
            file=sys.stderr,
        )
    return 0


def cmd_compare(args) -> int:
    """Longitudinal per-epoch comparison: measure a timeline, analyze each
    epoch (incrementally), and track the headline numbers over time."""
    import json

    from repro.core import ServiceType as _ServiceType
    from repro.core.incremental import refresh_snapshot
    from repro.core.pipeline import analyze_dataset, dns_display_directory
    from repro.engine import run_timeline
    from repro.worldgen.timeline import Timeline, TimelineConfig

    try:
        config = TimelineConfig(
            n_websites=args.n,
            seed=args.seed,
            epochs=args.epochs,
            churn_rate=args.churn,
        )
        timeline = Timeline(config)
        results = run_timeline(
            config,
            shards=args.shards,
            workers=args.workers,
            limit=args.limit,
            timeline=timeline,
        )
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    service = _ServiceType(args.service)
    rows = []
    snapshot = None
    for result in results:
        world = timeline.world(result.epoch)
        display_names = dns_display_directory(world)
        if snapshot is None:
            snapshot = analyze_dataset(
                result.dataset,
                rank_scale=world.config.rank_scale,
                dns_display_names=display_names,
            )
        else:
            snapshot = refresh_snapshot(
                snapshot,
                result.dataset,
                changed=result.changes.changed,
                dns_display_names=display_names,
            )
        total = len(snapshot.websites)
        top = [
            {
                "provider": snapshot.graph.display(node),
                "impact": impact,
            }
            for node, impact in snapshot.graph.top_providers(
                service, k=args.top, by="impact"
            )
        ]
        rows.append(
            {
                "epoch": result.epoch,
                "year": result.year,
                "sites": total,
                "measured": result.sites_measured,
                "changed": len(result.changes.changed),
                "dead": len(result.changes.dead),
                "https_pct": round(
                    100.0 * len(snapshot.https_websites) / max(1, total), 1
                ),
                "cdn_pct": round(
                    100.0 * len(snapshot.cdn_websites) / max(1, total), 1
                ),
                "top": top,
            }
        )
    if args.json:
        print(json.dumps({"service": args.service, "epochs": rows}, indent=1))
        return 0
    print(
        f"timeline n={args.n} seed={args.seed} epochs={args.epochs} "
        f"churn={args.churn:g} (top {args.service} providers by impact)"
    )
    for row in rows:
        top = ", ".join(
            f"{entry['provider']} ({entry['impact']})" for entry in row["top"]
        )
        print(
            f"  epoch {row['epoch']} [{row['year']}]: "
            f"measured {row['measured']}/{row['sites']} "
            f"https {row['https_pct']}% cdn {row['cdn_pct']}% | {top}"
        )
    return 0


def cmd_query(args) -> int:
    from repro.query import (
        QueryEngine,
        QueryError,
        payload_to_json,
        payload_to_text,
        query_repl,
    )
    from repro.store import StoreError, StoreReader

    try:
        engine = QueryEngine(StoreReader.load(args.store))
    except OSError as exc:
        print(f"query: cannot open {args.store}: {exc}", file=sys.stderr)
        return 1
    except StoreError as exc:
        print(f"query: cannot read {args.store}: {exc}", file=sys.stderr)
        return 1
    one_shots = []
    if args.top is not None:
        one_shots.append(lambda: engine.top(args.top, args.mode, args.service))
    if args.site is not None:
        one_shots.append(lambda: engine.site(args.site))
    if args.dependents is not None:
        one_shots.append(lambda: engine.dependents(args.dependents))
    if args.whatif is not None:
        one_shots.append(lambda: engine.whatif(args.whatif))
    if args.interactive:
        if one_shots or args.json:
            print(
                "query: --interactive excludes the one-shot flags",
                file=sys.stderr,
            )
            return 1
        query_repl(engine, sys.stdin, sys.stdout)
        if args.stats:
            _print_cache_stats(engine)
        return 0
    if not one_shots:
        print(
            "query: name a query (--top/--site/--dependents/--whatif) "
            "or pass --interactive",
            file=sys.stderr,
        )
        return 1
    render = payload_to_json if args.json else payload_to_text
    for run in one_shots:
        try:
            print(render(run()))
        except QueryError as exc:
            print(f"query: {exc}", file=sys.stderr)
            return 1
    if args.stats:
        _print_cache_stats(engine)
    return 0


def _print_cache_stats(engine) -> None:
    """Surface the engine's LRU counters on stderr (``query --stats``)."""
    cache = engine.cache_stats()
    print(
        f"query: cache {cache['size']}/{cache['capacity']} entries, "
        f"{cache['hits']} hit(s), {cache['misses']} miss(es), "
        f"{cache['evictions']} eviction(s)",
        file=sys.stderr,
    )


def cmd_serve(args) -> int:
    import os

    from repro.serve import StoreRegistry, parse_store_specs
    from repro.serve.http import ReproServeDaemon
    from repro.serve.service import ServeService

    try:
        specs = parse_store_specs(args.stores)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    for name, path in specs.items():
        if not os.path.isfile(path):
            print(
                f"serve: store {name!r}: no such file {path!r}",
                file=sys.stderr,
            )
            return 1
    registry = StoreRegistry(
        specs, max_mem_bytes=args.max_mem, cache_size=args.cache_size
    )
    service = ServeService(registry, max_batch=args.max_batch)
    daemon = ReproServeDaemon(
        service,
        host=args.host,
        port=args.port,
        deadline_s=args.deadline,
        max_inflight=args.max_inflight,
    )
    daemon.install_sigterm_drain()
    host, port = daemon.address
    print(
        f"[serve] listening on http://{host}:{port} "
        f"({len(specs)} store(s): {', '.join(registry.names())})",
        file=sys.stderr,
        flush=True,
    )
    try:
        daemon.serve_forever()
    finally:
        daemon.server_close()
    print("[serve] drained, all in-flight requests done", file=sys.stderr)
    return 0


def cmd_client(args) -> int:
    import json as json_module

    from repro.query.render import payload_to_text
    from repro.serve.client import (
        ClientTransportError,
        fetch_health,
        fetch_stats,
        load_batch_file,
        send_batch,
        send_diff,
        send_query,
    )

    query: dict | None = None
    if args.top is not None:
        query = {
            "kind": "top",
            "k": args.top,
            "mode": args.mode,
            "service": args.service,
        }
    for kind, value in (
        ("site", args.site),
        ("dependents", args.dependents),
        ("whatif", args.whatif),
    ):
        if value is None:
            continue
        if query is not None:
            print(
                "client: name exactly one query "
                "(--top/--site/--dependents/--whatif)",
                file=sys.stderr,
            )
            return 1
        key = "site" if kind == "site" else "provider"
        query = {"kind": kind, key: value}
    modes = sum(
        (args.health, args.statz, args.batch is not None, query is not None)
    )
    if modes != 1:
        print(
            "client: pick one of --health, --statz, --batch, or a single "
            "query (--top/--site/--dependents/--whatif)",
            file=sys.stderr,
        )
        return 1
    try:
        if args.health:
            status, body = fetch_health(args.host, args.port)
        elif args.statz:
            status, body = fetch_stats(args.host, args.port)
        elif args.batch is not None:
            queries = load_batch_file(args.batch)
            status, body = send_batch(args.host, args.port, queries)
        elif args.diff is not None:
            status, body = send_diff(
                args.host, args.port, args.diff[0], args.diff[1], query
            )
        else:
            status, body = send_query(
                args.host, args.port, query, store=args.store
            )
    except (ClientTransportError, OSError, ValueError) as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
    text = body.decode("utf-8")
    if status >= 400:
        print(text, file=sys.stderr)
        return 1
    if args.text and query is not None and args.diff is None:
        print(payload_to_text(json_module.loads(text)))
    else:
        print(text)
    return 0


def cmd_faults(args) -> int:
    from repro.faults.plan import FAULT_LAYERS

    try:
        plan = _load_fault_plan(args.plan, None)
    except OSError as exc:
        print(f"faults: cannot read {args.plan}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"faults: invalid plan: {exc}", file=sys.stderr)
        return 1
    print(f"fault plan OK: {len(plan.rules)} rule(s), seed={plan.seed}, "
          f"digest={plan.digest()[:12]}")
    for layer in FAULT_LAYERS:
        rules = plan.rules_for(layer)
        if not rules:
            continue
        print(f"  {layer}:")
        for rule in rules:
            window = (
                f" ranks {rule.rank_window[0]}-{rule.rank_window[1]}"
                if rule.rank_window is not None
                else ""
            )
            print(f"    {rule.name}: {rule.kind} p={rule.probability:g} "
                  f"scope={rule.scope} server={rule.server}{window}")
    return 0


def cmd_lint(args) -> int:
    from repro.staticcheck.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "summary": cmd_summary,
    "table": cmd_table,
    "figure": cmd_figure,
    "audit": cmd_audit,
    "outage": cmd_outage,
    "cascade": cmd_cascade,
    "measure": cmd_measure,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "analyze": cmd_analyze,
    "compile": cmd_compile,
    "compare": cmd_compare,
    "query": cmd_query,
    "serve": cmd_serve,
    "client": cmd_client,
    "faults": cmd_faults,
    "lint": cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
