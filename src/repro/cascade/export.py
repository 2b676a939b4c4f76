"""Trajectory (de)serialization: the versioned cascade wire format.

``repro-cascade-trajectory/1`` is canonical JSON (sorted keys, a
one-space indent: the text of ``json.dumps(..., indent=1,
sort_keys=True)``, written by
:func:`~repro.measurement.jsonwriter.write_json`), so the byte-identity contract is checkable with ``==`` on the
exported string: same snapshot + same config ⇒ same bytes. The config
rides along with its digest, binding every trajectory to the exact
scenario that produced it (the checkpoint/fault-plan discipline).

``final_health`` is *not* serialized — it is derivable by replaying the
delta stream, and :func:`trajectory_from_json` does exactly that, so a
round-trip reconstructs the full query surface.
"""

from __future__ import annotations

import json
from typing import Any

from repro.cascade.config import CascadeConfig
from repro.cascade.trajectory import Cause, NodeState, Trajectory, Transition
from repro.measurement.jsonwriter import write_json

TRAJECTORY_SCHEMA = "repro-cascade-trajectory/1"


class TrajectoryFormatError(ValueError):
    """A trajectory JSON document failed schema or integrity checks."""


def trajectory_to_dict(trajectory: Trajectory) -> dict[str, Any]:
    return {
        "schema": TRAJECTORY_SCHEMA,
        "config": trajectory.config.to_dict(),
        "config_digest": trajectory.config.digest(),
        "providers": list(trajectory.providers),
        "websites": list(trajectory.websites),
        "ticks_run": trajectory.ticks_run,
        "quiesced_at": trajectory.quiesced_at,
        "deltas": [dict(sorted(d.items())) for d in trajectory.deltas],
        "transitions": [
            {
                "tick": t.tick,
                "node": t.node,
                "from": t.from_state.value,
                "to": t.to_state.value,
                "health": t.health,
            }
            for t in trajectory.transitions
        ],
        "causes": {
            node: {
                "roots": list(cause.roots),
                "via": cause.via,
                "tick": cause.tick,
            }
            for node, cause in sorted(trajectory.causes.items())
        },
    }


def trajectory_to_json(trajectory: Trajectory) -> str:
    """Canonical JSON — the byte-identity surface of the determinism
    contract."""
    return write_json(trajectory_to_dict(trajectory), sort_keys=True)


def trajectory_from_dict(data: dict[str, Any]) -> Trajectory:
    schema = data.get("schema")
    if schema != TRAJECTORY_SCHEMA:
        raise TrajectoryFormatError(
            f"unsupported trajectory schema {schema!r} "
            f"(expected {TRAJECTORY_SCHEMA!r})"
        )
    try:
        config = CascadeConfig.from_dict(data["config"])
        digest = data.get("config_digest")
        if digest is not None and digest != config.digest():
            raise TrajectoryFormatError(
                "config digest mismatch: the trajectory does not belong "
                "to the config it carries"
            )
        providers = tuple(data["providers"])
        websites = tuple(data["websites"])
        deltas = tuple(
            {str(node): float(h) for node, h in sorted(delta.items())}
            for delta in data["deltas"]
        )
        transitions = tuple(
            Transition(
                tick=int(t["tick"]),
                node=str(t["node"]),
                from_state=NodeState(t["from"]),
                to_state=NodeState(t["to"]),
                health=float(t["health"]),
            )
            for t in data["transitions"]
        )
        causes = {
            str(node): Cause(
                roots=tuple(c["roots"]),
                via=c["via"],
                tick=int(c["tick"]),
            )
            for node, c in sorted(data["causes"].items())
        }
        quiesced = data.get("quiesced_at")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, TrajectoryFormatError):
            raise
        raise TrajectoryFormatError(
            f"malformed trajectory document: {exc}"
        ) from exc
    final_health = {node: 1.0 for node in providers + websites}
    for delta in deltas:
        for node in sorted(delta):
            final_health[node] = delta[node]
    return Trajectory(
        config=config,
        websites=websites,
        providers=providers,
        deltas=deltas,
        transitions=transitions,
        causes=causes,
        quiesced_at=int(quiesced) if quiesced is not None else None,
        final_health=final_health,
    )


def trajectory_from_json(text: str) -> Trajectory:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrajectoryFormatError(
            f"trajectory is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise TrajectoryFormatError("trajectory must be a JSON object")
    return trajectory_from_dict(data)
