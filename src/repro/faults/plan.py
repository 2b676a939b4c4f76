"""Declarative fault plans: what breaks, where, how often.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule` entries. Each rule names a simulator layer, a fault
kind, and a match scope:

* ``server`` — a hostname suffix pattern matched against the *serving*
  infrastructure (a nameserver's name, an HTTP server's name, an OCSP
  responder's name). Provider-scoped outages — the Dyn scenario — are
  expressed here, and scoping by server is what keeps campaign output
  byte-identical across worker counts (root/TLD hops that only
  cold-cache workers revisit never match a provider pattern).
* ``scope`` — a name suffix pattern matched against the queried name
  (DNS qname, HTTP host); ``"*"`` matches everything.
* ``probability`` — chance the rule fires per (server, name, attempt)
  event, drawn statelessly from the plan seed.
* ``rank_window`` — optional inclusive ``(lo, hi)`` *site-rank* window:
  the rule is live only while a site whose rank falls inside the window
  is being measured. Schedules are rank-based, not clock-based, so a
  shard measuring sites 200..300 sees the same schedule no matter which
  worker runs it.

Fault kinds per layer::

    dns   drop | servfail | refused | truncate | lame | slow
    web   timeout | http_error
    tls   ocsp_expired | ocsp_revoked | crl_stale

``slow`` consumes ``delay`` (simulated seconds added to the clock);
``http_error`` consumes ``status`` (the 5xx code returned).
``ocsp_revoked`` makes a responder call every certificate REVOKED (the
GlobalSign 2016 incident).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

FAULT_LAYERS = ("dns", "web", "tls")
DNS_FAULT_KINDS = ("drop", "servfail", "refused", "truncate", "lame", "slow")
WEB_FAULT_KINDS = ("timeout", "http_error")
TLS_FAULT_KINDS = ("ocsp_expired", "ocsp_revoked", "crl_stale")

_KINDS_BY_LAYER = {
    "dns": DNS_FAULT_KINDS,
    "web": WEB_FAULT_KINDS,
    "tls": TLS_FAULT_KINDS,
}


class FaultPlanError(ValueError):
    """A fault plan failed validation or could not be parsed."""


def _suffix_matches(pattern: str, name: str) -> bool:
    """Whether ``name`` equals ``pattern`` or lies under it.

    ``"*"`` matches anything (including a missing name); a leading
    ``"*."`` or ``"."`` is accepted and means the same as the bare
    suffix.
    """
    if pattern == "*":
        return True
    if not name:
        return False
    pattern = pattern.lower().rstrip(".").lstrip("*").lstrip(".")
    name = name.lower().rstrip(".")
    return name == pattern or name.endswith("." + pattern)


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: layer + kind + match scope + likelihood."""

    name: str
    layer: str
    kind: str
    scope: str = "*"
    server: str = "*"
    probability: float = 1.0
    rank_window: Optional[tuple[int, int]] = None
    delay: float = 0.0
    status: int = 503

    def matches_name(self, name: str) -> bool:
        return _suffix_matches(self.scope, name)

    def matches_server(self, server_name: str) -> bool:
        return _suffix_matches(self.server, server_name)

    def validate(self) -> list[str]:
        """Human-readable problems with this rule (empty = valid)."""
        problems: list[str] = []
        where = f"rule {self.name!r}"
        if not self.name:
            problems.append("a rule needs a non-empty name")
        if self.layer not in FAULT_LAYERS:
            problems.append(
                f"{where}: unknown layer {self.layer!r} "
                f"(expected one of {', '.join(FAULT_LAYERS)})"
            )
        elif self.kind not in _KINDS_BY_LAYER[self.layer]:
            problems.append(
                f"{where}: unknown {self.layer} fault kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS_BY_LAYER[self.layer])})"
            )
        if not 0.0 <= self.probability <= 1.0:
            problems.append(
                f"{where}: probability {self.probability} outside [0, 1]"
            )
        if self.rank_window is not None:
            lo, hi = self.rank_window
            if lo > hi or lo < 1:
                problems.append(
                    f"{where}: rank_window ({lo}, {hi}) must satisfy "
                    f"1 <= lo <= hi"
                )
        if self.kind == "slow" and self.delay <= 0:
            problems.append(f"{where}: a slow fault needs delay > 0")
        if self.delay < 0:
            problems.append(f"{where}: delay must be >= 0")
        if self.kind == "http_error" and not 500 <= self.status <= 599:
            problems.append(
                f"{where}: http_error status {self.status} is not a 5xx code"
            )
        return problems

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "kind": self.kind,
            "scope": self.scope,
            "server": self.server,
            "probability": self.probability,
            "rank_window": (
                list(self.rank_window) if self.rank_window is not None else None
            ),
            "delay": self.delay,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultRule":
        window = data.get("rank_window")
        return cls(
            name=data["name"],
            layer=data["layer"],
            kind=data["kind"],
            scope=data.get("scope", "*"),
            server=data.get("server", "*"),
            probability=float(data.get("probability", 1.0)),
            rank_window=(
                (int(window[0]), int(window[1])) if window is not None else None
            ),
            delay=float(data.get("delay", 0.0)),
            status=int(data.get("status", 503)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered rule list — the whole fault scenario."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    @property
    def empty(self) -> bool:
        return not self.rules

    def validate(self) -> list[str]:
        """All problems across all rules (empty = valid)."""
        problems: list[str] = []
        seen: set[str] = set()
        for rule in self.rules:
            problems.extend(rule.validate())
            if rule.name in seen:
                problems.append(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        return problems

    def rules_for(self, layer: str) -> tuple[FaultRule, ...]:
        return tuple(rule for rule in self.rules if rule.layer == layer)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        try:
            rules = tuple(
                FaultRule.from_dict(entry) for entry in data.get("rules", [])
            )
            plan = cls(rules=rules, seed=int(data.get("seed", 0)))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc
        problems = plan.validate()
        if problems:
            raise FaultPlanError("; ".join(problems))
        return plan

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        return cls.from_dict(data)

    def digest(self) -> str:
        """Content hash identifying the plan (campaign fingerprinting)."""
        body = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()
