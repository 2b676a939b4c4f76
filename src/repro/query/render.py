"""Rendering query payloads: canonical JSON and human-readable text.

``payload_to_json`` is the byte-exact surface the differential harness
pins: sorted keys and a one-space indent, the layout ``outage --json``
and ``cascade --json`` print, written by the shared
:func:`~repro.measurement.jsonwriter.write_json` (the text of
``json.dumps(payload, indent=1, sort_keys=True)``), so a fast-path
answer and its slow-path derivation either match to the byte or fail
the suite.
"""

from __future__ import annotations

from typing import Any

from repro.measurement.jsonwriter import write_json


def payload_to_json(payload: dict[str, Any]) -> str:
    """The canonical JSON form of any query payload."""
    return write_json(payload, sort_keys=True)


def _render_top(payload: dict[str, Any]) -> str:
    query = payload["query"]
    lines = [
        f"Top-{query['k']} {query['service'].upper()} providers "
        f"by {query['mode']} "
        f"({payload['store']['websites']} websites, "
        f"year {payload['store']['year']}):"
    ]
    for position, entry in enumerate(payload["results"], start=1):
        metrics = entry["metrics"]
        lines.append(
            f"{position:3d}. {entry['display']:<24s} {entry['score']:>6d}  "
            f"(C={metrics['concentration']} I={metrics['impact']} "
            f"direct C={metrics['direct_concentration']} "
            f"I={metrics['direct_impact']})"
        )
    if not payload["results"]:
        lines.append("  (no providers of this service)")
    return "\n".join(lines)


def _render_site(payload: dict[str, Any]) -> str:
    site = payload["site"]
    lines = [f"{site['domain']} (rank {site['rank']}):"]
    for dep in site["dependencies"]:
        marker = "critical" if dep["critical"] else "redundant"
        lines.append(
            f"  {dep['service']:3s}  {dep['display']:<24s} {marker}"
        )
    if not site["dependencies"]:
        lines.append("  no third-party dependencies")
    lines.append(
        f"  single points of failure: {site['critical_dependency_count']} "
        f"(direct {site['direct_critical'] or ['none']}, "
        f"transitive {site['transitive_critical'] or ['none']})"
    )
    return "\n".join(lines)


def _render_dependents(payload: dict[str, Any]) -> str:
    provider = payload["provider"]
    transitive = payload["transitive"]
    lines = [
        f"Dependents of {provider['display']} ({provider['provider']}): "
        f"{len(payload['direct'])} direct site(s), "
        f"{len(payload['consumers'])} downstream provider(s), "
        f"transitive C={transitive['concentration']} "
        f"I={transitive['impact']}"
    ]
    for entry in payload["direct"][:10]:
        marker = "critical" if entry["critical"] else "redundant"
        lines.append(f"  site: {entry['domain']} ({marker})")
    if len(payload["direct"]) > 10:
        lines.append(f"  ... and {len(payload['direct']) - 10} more site(s)")
    for entry in payload["consumers"]:
        marker = "critical" if entry["critical"] else "redundant"
        lines.append(f"  provider: {entry['display']} ({marker})")
    return "\n".join(lines)


def _render_whatif(payload: dict[str, Any]) -> str:
    provider = payload["provider"]
    counts = payload["counts"]
    lines = [
        f"If {provider['display']} ({provider['provider']}) fails: "
        f"{counts['down']} site(s) down, {counts['at_risk']} at risk, "
        f"{counts['unaffected']} unaffected"
    ]
    for domain in payload["down"][:10]:
        lines.append(f"  down: {domain}")
    if counts["down"] > 10:
        lines.append(f"  ... and {counts['down'] - 10} more")
    return "\n".join(lines)


_RENDERERS = {
    "top": _render_top,
    "site": _render_site,
    "dependents": _render_dependents,
    "whatif": _render_whatif,
}


def payload_to_text(payload: dict[str, Any]) -> str:
    """Human-readable rendering, dispatched on the query kind."""
    kind = payload["query"]["kind"]
    return _RENDERERS[kind](payload)
