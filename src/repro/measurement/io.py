"""Dataset serialization: measure once, analyze offline.

The paper's workflow separates the (expensive, network-bound) measurement
campaign from the (cheap, repeatable) analysis. :func:`dataset_to_json` /
:func:`dataset_from_json` make that split concrete here: a campaign's raw
output round-trips through plain JSON, so analyses, ablations, and
re-classifications run against a frozen dataset without a world.

The per-record field mapping lives on the records themselves
(``to_dict`` / ``from_dict`` on every :mod:`repro.measurement.records`
dataclass, parity-checked statically by REP005); this module adds only
the envelope — format versioning, upgrade paths for older payloads, and
the canonical on-disk key order.

Format history:

* **4** *(shards only)* — an optional ``metrics`` key carrying the
  shard's drained telemetry registry (dataset format is unchanged).
* **3** — graceful degradation: every website observation carries
  ``attempts`` / ``failure_mode`` / ``degraded``.
* **2** — self-contained sub-records: each observation dict carries its
  own ``domain``/``provider_name``/``ca_name``, SOA identities are
  ``{"mname", "rname"}`` objects (was a 2-list).
* **1** — the PR-1 layout (context keys hoisted to the parent object).

Readers accept any historical version and upgrade it in memory, one
version step at a time; anything else (newer, missing, malformed) raises
:class:`WireVersionError` naming both the found and supported versions.
Writers always emit the current version.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.measurement.records import Dataset, WebsiteMeasurement

FORMAT_VERSION = 3
SHARD_FORMAT_VERSION = 4
OLDEST_READABLE_VERSION = 1
OLDEST_READABLE_SHARD_VERSION = 1


class WireVersionError(ValueError):
    """A payload declares a wire format this build cannot read."""


def _check_format_version(
    found: Any, supported: int, oldest: int, kind: str
) -> None:
    """Refuse payloads this build cannot read, naming both versions."""
    readable = (
        isinstance(found, int)
        and not isinstance(found, bool)
        and oldest <= found <= supported
    )
    if not readable:
        raise WireVersionError(
            f"cannot read {kind}: found format_version {found!r}, "
            f"but this build supports version {supported} "
            f"(and upgrades versions {oldest}-{supported - 1})"
        )


def _canonical(obj: Any) -> Any:
    """Recursively sort dict keys (the stable on-disk order).

    Used instead of ``json.dumps(sort_keys=True)`` so callers can exempt
    a subtree — dataset ``notes`` keep their insertion order.
    """
    if isinstance(obj, dict):
        return {key: _canonical(obj[key]) for key in sorted(obj)}
    if isinstance(obj, list):
        return [_canonical(item) for item in obj]
    return obj


# -- upgrade paths (one version step each, pure dict transforms) ------------


def _soa_v1_to_v2(data: Optional[list]) -> Optional[dict[str, Any]]:
    """v1 serialized SOA identities as ``[mname, rname]`` 2-lists."""
    return None if data is None else {"mname": data[0], "rname": data[1]}


def _soa_map_v1_to_v2(data: dict[str, Any]) -> dict[str, Any]:
    return {name: _soa_v1_to_v2(entry) for name, entry in data.items()}


def _website_v1_to_v2(entry: dict[str, Any]) -> dict[str, Any]:
    """v1 hoisted ``domain`` out of the sub-records; v2 is self-contained."""
    domain = entry["domain"]
    dns = dict(entry["dns"])
    dns["domain"] = domain
    dns["website_soa"] = _soa_v1_to_v2(dns["website_soa"])
    dns["nameserver_soas"] = _soa_map_v1_to_v2(dns["nameserver_soas"])
    tls = dict(entry["tls"])
    tls["domain"] = domain
    tls["endpoint_soas"] = _soa_map_v1_to_v2(tls["endpoint_soas"])
    cdn = dict(entry["cdn"])
    cdn["domain"] = domain
    cdn["cname_soas"] = _soa_map_v1_to_v2(cdn["cname_soas"])
    return {
        "domain": domain,
        "rank": entry["rank"],
        "dns": dns,
        "tls": tls,
        "cdn": cdn,
    }


def _website_v2_to_v3(entry: dict[str, Any]) -> dict[str, Any]:
    """v3 added the degradation triple to every website observation; a v2
    record was necessarily measured clean, so the defaults are the truth."""
    upgraded = dict(entry)
    for key in ("dns", "tls", "cdn"):
        observation = dict(upgraded[key])
        observation.setdefault("attempts", 1)
        observation.setdefault("failure_mode", "")
        observation.setdefault("degraded", False)
        upgraded[key] = observation
    return upgraded


def _provider_dns_v1_to_v2(name: str, data: dict[str, Any]) -> dict[str, Any]:
    return {
        "provider_name": name,
        "service_domain": data["service_domain"],
        "nameservers": data["nameservers"],
        "domain_soa": _soa_v1_to_v2(data["domain_soa"]),
        "nameserver_soas": _soa_map_v1_to_v2(data["nameserver_soas"]),
    }


def _revocation_v1_to_v2(name: str, data: dict[str, Any]) -> dict[str, Any]:
    return {
        "ca_name": name,
        "endpoint_hosts": data["endpoint_hosts"],
        "cname_chains": data["cname_chains"],
        "detected_cdns": data["detected_cdns"],
        "cname_soas": _soa_map_v1_to_v2(data["cname_soas"]),
    }


def _dataset_v1_to_v2(payload: dict[str, Any]) -> dict[str, Any]:
    upgraded = dict(payload)
    upgraded["websites"] = [
        _website_v1_to_v2(entry) for entry in payload["websites"]
    ]
    upgraded["cdn_dns"] = {
        name: _provider_dns_v1_to_v2(name, entry)
        for name, entry in payload["cdn_dns"].items()
    }
    upgraded["ca_dns"] = {
        name: _provider_dns_v1_to_v2(name, entry)
        for name, entry in payload["ca_dns"].items()
    }
    upgraded["ca_cdn"] = {
        name: _revocation_v1_to_v2(name, entry)
        for name, entry in payload["ca_cdn"].items()
    }
    upgraded["format_version"] = 2
    return upgraded


def _dataset_v2_to_v3(payload: dict[str, Any]) -> dict[str, Any]:
    upgraded = dict(payload)
    upgraded["websites"] = [
        _website_v2_to_v3(entry) for entry in payload["websites"]
    ]
    upgraded["format_version"] = 3
    return upgraded


def upgrade_dataset_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Upgrade a decoded dataset payload of any readable version to the
    current format, one version step at a time."""
    version = payload.get("format_version")
    _check_format_version(
        version, FORMAT_VERSION, OLDEST_READABLE_VERSION, "dataset"
    )
    if payload["format_version"] == 1:
        payload = _dataset_v1_to_v2(payload)
    if payload["format_version"] == 2:
        payload = _dataset_v2_to_v3(payload)
    return payload


def dataset_to_json(dataset: Dataset) -> str:
    """Serialize a dataset to a JSON string (stable key order; ``notes``
    keep their insertion order)."""
    payload = dict(dataset.to_dict())
    payload["format_version"] = FORMAT_VERSION
    canonical = _canonical(payload)
    # notes are campaign-ordered, not alphabetical; reassignment keeps the
    # key's (sorted) position in the top-level object.
    canonical["notes"] = dict(dataset.notes)
    return json.dumps(canonical, indent=1)


def dataset_from_json(text: str) -> Dataset:
    """Deserialize a dataset produced by :func:`dataset_to_json` (any
    readable format version; older payloads are upgraded in memory)."""
    payload = upgrade_dataset_payload(json.loads(text))
    return Dataset.from_dict(payload)


def shard_to_json(
    websites: list[WebsiteMeasurement],
    metrics: Optional[dict[str, Any]] = None,
) -> str:
    """Serialize one shard's website measurements (a checkpoint artifact).

    Shards carry only website-level records; the inter-service pass runs
    once over the merged dataset. ``metrics`` is the shard's drained
    telemetry registry (``MetricsRegistry.drain()`` output) — shard-stable
    values only, carried alongside the records so resumed runs recover
    metrics without re-measuring. Omitted entirely when ``None`` so a
    telemetry-less campaign's shards stay byte-identical to before.
    """
    payload: dict[str, Any] = {
        "shard_format_version": SHARD_FORMAT_VERSION,
        "websites": [w.to_dict() for w in websites],
    }
    if metrics is not None:
        payload["metrics"] = metrics
    return json.dumps(_canonical(payload), indent=1)


def shard_payload_from_json(
    text: str,
) -> tuple[list[WebsiteMeasurement], Optional[dict[str, Any]]]:
    """Deserialize a shard: ``(websites, metrics)``.

    ``metrics`` is ``None`` for shards written without telemetry (and
    for every pre-v4 shard). Any readable shard version is upgraded in
    memory.
    """
    payload = json.loads(text)
    version = payload.get("shard_format_version")
    _check_format_version(
        version,
        SHARD_FORMAT_VERSION,
        OLDEST_READABLE_SHARD_VERSION,
        "shard",
    )
    entries = payload["websites"]
    if version == 1:
        entries = [_website_v1_to_v2(entry) for entry in entries]
        version = 2
    if version == 2:
        entries = [_website_v2_to_v3(entry) for entry in entries]
    websites = [WebsiteMeasurement.from_dict(entry) for entry in entries]
    return websites, payload.get("metrics")


def shard_from_json(text: str) -> list[WebsiteMeasurement]:
    """Deserialize just the website records of a shard (any readable
    shard version; older payloads are upgraded in memory)."""
    return shard_payload_from_json(text)[0]


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dataset_to_json(dataset))


def load_dataset(path: str) -> Dataset:
    """Read a dataset from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return dataset_from_json(handle.read())
