"""Checkpoint store: completed shards as JSON artifacts + a manifest.

Layout of a checkpoint directory::

    manifest.json     world fingerprint + per-shard site-list digests
    shard-0000.json   one completed shard (repro.measurement.io shard JSON)
    shard-0001.json   ...

A run writes the manifest first, then each shard atomically as it
completes. Resuming validates the manifest against the current plan —
same world fingerprint, same shard partition — and skips shards whose
artifacts exist; anything else raises :class:`StaleCheckpointError`
rather than silently merging measurements of a different world.

This store is the only code that reads or writes shard JSON; everywhere
else a shard is its records and drained metrics, in memory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional, Union

from repro.engine.plan import CampaignPlan, WorldFingerprint, json_type_name
from repro.measurement.io import (
    DatasetFormatError,
    ShardPayload,
    shard_payload_from_json,
    shard_to_json,
)
from repro.measurement.records import WebsiteMeasurement

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 1


def _manifest_shape_problem(payload: dict[str, Any]) -> Optional[str]:
    """What makes a parsed manifest of the current version the wrong
    shape outside its fingerprint's fields, or ``None``."""
    fingerprint = payload.get("fingerprint")
    if not isinstance(fingerprint, dict):
        kind = json_type_name(type(fingerprint))
        return f'"fingerprint" is {kind}, not an object'
    shards = payload.get("shards", [])
    if not isinstance(shards, list):
        return f'"shards" is {json_type_name(type(shards))}, not an array'
    for entry in shards:
        if not isinstance(entry, dict):
            kind = json_type_name(type(entry))
            return f'a "shards" entry is {kind}, not an object'
    return None


class StaleCheckpointError(ValueError):
    """The checkpoint directory belongs to a different campaign."""


class CheckpointStore:
    """Shard artifacts + manifest under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def shard_path(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id:04d}.json"

    # -- manifest ----------------------------------------------------------

    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    def write_manifest(self, plan: CampaignPlan) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "manifest_format_version": MANIFEST_FORMAT_VERSION,
            "fingerprint": plan.fingerprint.to_json(),
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "n_sites": shard.n_sites,
                    "sites_sha256": shard.digest(),
                }
                for shard in plan.shards
            ],
        }
        self._atomic_write(
            self.manifest_path, json.dumps(payload, indent=1, sort_keys=True)
        )

    def validate_manifest(self, plan: CampaignPlan) -> None:
        """Refuse to resume against a manifest for a different campaign,
        or against a file that is not a manifest."""
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StaleCheckpointError(
                f"unreadable checkpoint manifest at {self.manifest_path}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            problem: Optional[str] = (
                f"it is {json_type_name(type(payload))}, not an object"
            )
        else:
            version = payload.get("manifest_format_version")
            if version != MANIFEST_FORMAT_VERSION:
                raise StaleCheckpointError(
                    f"cannot read checkpoint manifest: found "
                    f"manifest_format_version {version!r}, but this build "
                    f"supports version {MANIFEST_FORMAT_VERSION}"
                )
            problem = _manifest_shape_problem(payload)
        if problem is None:
            try:
                found = WorldFingerprint.from_json(payload["fingerprint"])
            except ValueError as exc:
                problem = str(exc)
        if problem is not None:
            raise StaleCheckpointError(
                f"malformed checkpoint manifest at {self.manifest_path}: "
                f"{problem}; use a fresh --checkpoint-dir"
            )
        if found != plan.fingerprint:
            raise StaleCheckpointError(
                f"checkpoint at {self.directory} was written for world "
                f"[{found.describe()}] but this campaign measures "
                f"[{plan.fingerprint.describe()}]; use a fresh "
                f"--checkpoint-dir or rerun with the original parameters"
            )
        recorded = payload.get("shards", [])
        if len(recorded) != len(plan.shards):
            raise StaleCheckpointError(
                f"checkpoint at {self.directory} has {len(recorded)} shards "
                f"but this campaign plans {len(plan.shards)}; rerun with "
                f"--shards {len(recorded)} or use a fresh --checkpoint-dir"
            )
        for entry, shard in zip(recorded, plan.shards):
            if (
                entry.get("shard_id") != shard.shard_id
                or entry.get("sites_sha256") != shard.digest()
            ):
                raise StaleCheckpointError(
                    f"checkpoint shard {shard.shard_id} at {self.directory} "
                    f"covers a different site list than this campaign's plan"
                )

    # -- shards ------------------------------------------------------------

    def completed_shards(self) -> set[int]:
        if not self.directory.is_dir():
            return set()
        done: set[int] = set()
        for path in self.directory.glob("shard-*.json"):
            try:
                done.add(int(path.stem.split("-", 1)[1]))
            except ValueError:
                continue
        return done

    def write_shard(
        self, shard_id: int, records: list[WebsiteMeasurement],
        metrics: Optional[dict[str, Any]] = None,
    ) -> None:
        text = shard_to_json(records, metrics)
        self._atomic_write(self.shard_path(shard_id), text)

    def load_shard(self, shard_id: int) -> ShardPayload:
        """A completed shard's ``(records, metrics)``; an unreadable file
        raises :class:`DatasetFormatError` naming the shard and path."""
        path = self.shard_path(shard_id)
        try:
            return shard_payload_from_json(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, DatasetFormatError) as exc:
            raise DatasetFormatError(
                f"checkpoint shard {shard_id} at {path} is unreadable "
                f"({exc}); delete the damaged checkpoint shard and resume, "
                f"or use a fresh checkpoint directory"
            ) from exc

    # -- internals ---------------------------------------------------------

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write-then-rename, so a killed run never leaves a torn
        artifact that a resume would mistake for a completed shard."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
