"""Per-rule configuration for the invariant linter.

``DEFAULT_CONFIG`` encodes *this repository's* contract — the layer
DAG, the sanctioned time/randomness modules, the executor entry points
the worker-safety rule watches, and the serialization-contract module.
Tests override individual knobs to lint fixture corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


def _default_layers() -> dict[str, int]:
    # The import-layering DAG (REP003). A module may import strictly
    # lower layers only; equal-layer packages are peers and may not
    # import each other. ``telemetry`` sits at the bottom so every
    # simulator (and the fault injector) can report into it; ``websim``
    # sits above the dnssim/tlssim substrates because an HTTPS client is
    # built from DNS resolution plus TLS validation; ``cli`` is the
    # pseudo-package for modules directly under ``repro`` (cli.py,
    # __main__.py, __init__.py). The serving side sits above the batch
    # pipeline: ``store`` compiles analyzed snapshots into frozen
    # binaries, ``query`` answers from them, ``serve`` keeps many
    # stores hot behind the daemon — only the CLI sees both worlds
    # (DESIGN §14, §15).
    return {
        "staticcheck": 0,
        "names": 0,
        "telemetry": 0,
        "faults": 1,
        "dnssim": 2,
        "tlssim": 2,
        "websim": 3,
        "worldgen": 4,
        "measurement": 5,
        "core": 6,
        "engine": 7,
        "failures": 7,
        "analysis": 8,
        "cascade": 8,
        "store": 9,
        "query": 10,
        "serve": 12,
        "cli": 13,
    }


@dataclass(frozen=True)
class LintConfig:
    """Everything a lint run can be parameterized with."""

    # Rule ids to run; None means every registered rule.
    rules: Optional[frozenset[str]] = None

    # REP001: modules allowed to read wall clocks / entropy directly.
    # dnssim.clock is the simulation's one time source; telemetry.profile
    # is the quarantined wall-clock side of the observability layer
    # (operator-facing phase timings, never serialized — REP006 holds
    # the rest of telemetry to the simulated clock).
    rep001_allowed_modules: frozenset[str] = frozenset(
        {"repro.dnssim.clock", "repro.telemetry.profile"}
    )

    # REP001: packages whose randomness must flow through one sanctioned
    # seeded-source module. Inside a listed package, constructing
    # ``random.Random`` — even seeded — is flagged everywhere except the
    # listed source modules: fault draws must be keyed through
    # ``SeededFaultSource`` or replay breaks.
    rep001_seeded_source_packages: frozenset[str] = frozenset({"repro.faults"})
    rep001_seeded_source_modules: frozenset[str] = frozenset(
        {"repro.faults.prng"}
    )

    # REP003: package name -> layer number.
    rep003_layers: dict[str, int] = field(default_factory=_default_layers)

    # REP009: attribute names treated as executor submission points, and
    # keyword arguments whose value is a worker callable.
    rep009_submit_methods: frozenset[str] = frozenset(
        {
            "imap",
            "imap_unordered",
            "map",
            "map_async",
            "starmap",
            "starmap_async",
            "apply",
            "apply_async",
            "submit",
        }
    )
    rep009_callable_kwargs: frozenset[str] = frozenset({"initializer", "target"})

    # REP005: modules whose dataclasses form the serialization contract.
    rep005_record_modules: frozenset[str] = frozenset(
        {"repro.measurement.records"}
    )

    # REP006: telemetry's wall-clock boundary. ``wallclock_modules`` are
    # the only telemetry modules that may read real time (the profiling
    # side); ``serialized_modules`` sit on the serialization path (span/
    # metric state, exporters) and may neither read real time nor import
    # a wallclock module — nothing wall-clock-derived may reach a trace,
    # metrics dump, checkpoint, or dataset. ``forbidden_edges`` names
    # (importer package, imported target) pairs that the layer DAG
    # permits but this repository forbids. A dotted target names one
    # module inside a package (``measurement.runner``); a bare target
    # forbids the whole package. Core must never grow an observability
    # (or serving-layer) dependency, and the store/query/serve side
    # reads frozen datasets only — never a live campaign, a world
    # generator, or a simulator (the daemon serves answers, it does
    # not make measurements).
    rep006_wallclock_modules: frozenset[str] = frozenset(
        {"repro.telemetry.profile"}
    )
    rep006_serialized_modules: frozenset[str] = frozenset(
        {
            "repro.telemetry.spans",
            "repro.telemetry.metrics",
            "repro.telemetry.context",
            "repro.telemetry.export",
        }
    )
    rep006_forbidden_edges: frozenset[tuple[str, str]] = frozenset(
        {
            ("core", "telemetry"),
            ("core", "store"),
            ("core", "query"),
            ("store", "measurement.runner"),
            ("query", "measurement.runner"),
            ("serve", "measurement.runner"),
            ("serve", "engine"),
            ("serve", "worldgen"),
            # The longitudinal stack (worldgen.timeline, engine.epochs,
            # core.incremental) lives on the live-campaign side; the
            # frozen-dataset readers must not reach it — a store compiles
            # datasets it is handed, it never evolves or remeasures one.
            # (store may read worldgen.config's scale constants, so the
            # live-world modules are pinned off individually there.)
            ("store", "worldgen.timeline"),
            ("store", "worldgen.world"),
            ("store", "worldgen.evolve"),
            ("store", "worldgen.generate"),
            ("store", "engine"),
            ("query", "worldgen"),
            ("query", "engine"),
        }
    )

    # REP007: serialization sinks the taint analysis watches — direct
    # serializer calls (the repository's own JSON writer included),
    # digest-input prefixes, and the names of serialization methods
    # whose return value is the artifact.
    rep007_sink_calls: frozenset[str] = frozenset(
        {
            "json.dump",
            "json.dumps",
            "pickle.dump",
            "pickle.dumps",
            "repro.measurement.jsonwriter.write_json",
        }
    )
    rep007_digest_prefixes: frozenset[str] = frozenset({"hashlib."})
    rep007_sink_returns: frozenset[str] = frozenset(
        {"to_dict", "to_json", "as_dict"}
    )

    # REP009: extra worker entry points, as ``dotted.module:function``.
    # Submission sites (the submit methods above) are detected
    # automatically; this names entry points whose submission happens in
    # *another* module.
    rep009_entry_points: frozenset[str] = frozenset()

    def wants(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules

    def fingerprint(self) -> str:
        """A deterministic digest of every knob, for cache invalidation.

        ``repr`` of a frozenset is hash-order dependent, so each field
        is canonicalized (sorted) before hashing.
        """
        import hashlib

        parts: list[str] = []
        for name in sorted(self.__dataclass_fields__):
            value = getattr(self, name)
            if isinstance(value, frozenset):
                canon = sorted(
                    ",".join(v) if isinstance(v, tuple) else str(v)
                    for v in value
                )
                parts.append(f"{name}={canon!r}")
            elif isinstance(value, dict):
                parts.append(f"{name}={sorted(value.items())!r}")
            elif value is None:
                parts.append(f"{name}=None")
            else:
                parts.append(f"{name}={value!r}")
        blob = ";".join(parts).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = LintConfig()
