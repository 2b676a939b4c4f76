"""The ``repro-serve/1`` wire protocol.

One request envelope per endpoint, one typed error vocabulary for the
whole daemon. A *query* on the wire is a plain JSON object::

    {"kind": "top", "k": 5, "mode": "impact", "service": "dns"}
    {"kind": "site", "site": "twitter.com"}
    {"kind": "dependents", "provider": "cdn:akam.net"}
    {"kind": "whatif", "provider": "dns:dynect.net"}

:func:`parse_query` validates the shape (types, known kind, required
names) and returns a normalized :class:`Query`; semantic validation
(does the store contain this site?) stays in :class:`QueryEngine`,
which raises :class:`QueryError`. :func:`run_query` dispatches a
parsed query against an engine and returns the exact payload dict the
one-shot ``repro query --json`` path produces — the byte-identity
contract of the serve differential harness rides on that.

Failures map onto typed wire errors via :func:`classify_error`::

    bad-request        400   malformed envelope / unknown kind
    unknown-store      404   registry has no store by that name
    unknown-name       404   QueryError: site/provider not in the store
    overloaded         429   inflight bound hit (load shedding)
    store-version      500   StoreVersionError on open
    store-corrupt      500   StoreCorruptError on open
    internal           500   anything else (bug)
    deadline           503   request ran past its deadline
    draining           503   daemon is shutting down

and every error response body is the canonical rendering of
``{"schema": "repro-serve/1", "error": {"type": ..., "detail": ...}}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.query.engine import QueryEngine, QueryError
from repro.store.format import (
    SERVICE_CODES,
    StoreCorruptError,
    StoreVersionError,
)
from repro.store.reader import METRIC_COLUMNS

PROTOCOL_SCHEMA = "repro-serve/1"

#: Query kinds the daemon answers, mirroring the one-shot CLI flags.
QUERY_KINDS = ("top", "site", "dependents", "whatif")


class ServeError(Exception):
    """Base class for every typed request refusal."""

    status = 400
    kind = "bad-request"

    @classmethod
    def with_status(cls, status: int, detail: str) -> "ServeError":
        """An instance carrying a non-default HTTP status.

        For boundary refusals (411 missing length, 413 oversized body,
        404 unknown endpoint) that share a kind but not a status code.
        """
        exc = cls(detail)
        exc.status = status
        return exc


class BadRequestError(ServeError):
    """The request envelope is malformed."""

    status = 400
    kind = "bad-request"


class UnknownStoreError(ServeError):
    """The registry has no store by the requested name."""

    status = 404
    kind = "unknown-store"


class OverloadedError(ServeError):
    """The daemon is at its inflight bound and is shedding load."""

    status = 429
    kind = "overloaded"


class DeadlineError(ServeError):
    """The request ran past its deadline."""

    status = 503
    kind = "deadline"


class DrainingError(ServeError):
    """The daemon is draining and refuses new work."""

    status = 503
    kind = "draining"


@dataclass(frozen=True)
class Query:
    """A validated, normalized query — one CLI one-shot's worth."""

    kind: str
    k: int = 5
    mode: str = "impact"
    service: str = "dns"
    name: str = ""

    def to_wire(self) -> dict[str, Any]:
        """The canonical request form (echoed in diff envelopes)."""
        if self.kind == "top":
            return {
                "kind": "top",
                "k": self.k,
                "mode": self.mode,
                "service": self.service,
            }
        if self.kind == "site":
            return {"kind": "site", "site": self.name}
        return {"kind": self.kind, "provider": self.name}


def decode_body(raw: bytes) -> dict[str, Any]:
    """A POST body as its JSON object; raises :class:`BadRequestError`."""
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise BadRequestError(f"request body is not JSON: {exc}") from None
    except RecursionError:
        raise BadRequestError("request body nests too deeply") from None
    if not isinstance(doc, dict):
        raise BadRequestError("request body must be a JSON object")
    return doc


def _require_str(obj: Mapping[str, Any], key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise BadRequestError(
            f"query field {key!r} must be a non-empty string, "
            f"got {value!r}"
        )
    return value


def parse_query(obj: Any) -> Query:
    """Validate a wire query object; raises :class:`BadRequestError`."""
    if not isinstance(obj, Mapping):
        raise BadRequestError(
            f"'query' must be an object, got {type(obj).__name__}"
        )
    kind = obj.get("kind")
    if kind not in QUERY_KINDS:
        raise BadRequestError(
            f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}"
        )
    if kind == "top":
        k = obj.get("k", 5)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise BadRequestError(f"'k' must be an integer >= 1, got {k!r}")
        mode = obj.get("mode", "impact")
        if mode not in METRIC_COLUMNS:
            raise BadRequestError(
                f"unknown mode {mode!r}; expected one of {METRIC_COLUMNS}"
            )
        service = obj.get("service", "dns")
        # SERVICE_CODES is a dict: an unhashable value must not reach it.
        if not isinstance(service, str) or service not in SERVICE_CODES:
            raise BadRequestError(
                f"unknown service {service!r}; expected one of "
                f"{tuple(SERVICE_CODES)}"
            )
        return Query(kind="top", k=k, mode=mode, service=service)
    if kind == "site":
        return Query(kind="site", name=_require_str(obj, "site"))
    return Query(kind=kind, name=_require_str(obj, "provider"))


def run_query(engine: QueryEngine, query: Query) -> dict[str, Any]:
    """Answer a parsed query — the same payload the one-shot CLI emits."""
    if query.kind == "top":
        return engine.top(query.k, query.mode, query.service)
    if query.kind == "site":
        return engine.site(query.name)
    if query.kind == "dependents":
        return engine.dependents(query.name)
    return engine.whatif(query.name)


def error_payload(kind: str, detail: str) -> dict[str, Any]:
    """The canonical error document body."""
    return {
        "schema": PROTOCOL_SCHEMA,
        "error": {"type": kind, "detail": detail},
    }


def classify_error(exc: BaseException) -> tuple[int, dict[str, Any]]:
    """Map an exception to ``(http status, error document)``.

    Order matters: the typed serve errors first, then the store error
    taxonomy (version before corrupt — both subclass ``StoreError``),
    then the engine's semantic ``QueryError``; anything else is a bug
    surfaced as ``internal``.
    """
    if isinstance(exc, ServeError):
        return exc.status, error_payload(exc.kind, str(exc))
    if isinstance(exc, StoreVersionError):
        return 500, error_payload("store-version", str(exc))
    if isinstance(exc, StoreCorruptError):
        return 500, error_payload("store-corrupt", str(exc))
    if isinstance(exc, QueryError):
        return 404, error_payload("unknown-name", str(exc))
    return 500, error_payload(
        "internal", f"{type(exc).__name__}: {exc}"
    )


# -- cross-store diffing ------------------------------------------------------


def _rank_map(payload: Mapping[str, Any]) -> dict[str, tuple[int, int]]:
    """provider key -> (1-based rank, score) from a ``top`` payload."""
    return {
        entry["provider"]: (position, entry["score"])
        for position, entry in enumerate(payload["results"], start=1)
    }


def _top_delta(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    ranks_a = _rank_map(a)
    ranks_b = _rank_map(b)
    displays = {
        entry["provider"]: entry["display"]
        for entry in [*a["results"], *b["results"]]
    }
    entries = []
    for provider in sorted(set(ranks_a) | set(ranks_b)):
        rank_a, score_a = ranks_a.get(provider, (None, None))
        rank_b, score_b = ranks_b.get(provider, (None, None))
        entries.append(
            {
                "provider": provider,
                "display": displays[provider],
                "rank_a": rank_a,
                "rank_b": rank_b,
                "rank_delta": (
                    rank_a - rank_b
                    if rank_a is not None and rank_b is not None
                    else None
                ),
                "score_a": score_a,
                "score_b": score_b,
            }
        )
    return {"kind": "top", "providers": entries}


def _set_delta(a_items: list[str], b_items: list[str]) -> dict[str, Any]:
    a_set, b_set = set(a_items), set(b_items)
    return {
        "count_a": len(a_items),
        "count_b": len(b_items),
        "gained": sorted(b_set - a_set),
        "lost": sorted(a_set - b_set),
    }


def diff_payloads(
    query: Query, a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    """A deterministic delta block between two same-query payloads.

    ``top`` diffs yield per-provider rank deltas (the epoch-over-epoch
    centralization comparison); the lookup kinds yield set deltas over
    their natural membership lists plus the headline count change.
    """
    if query.kind == "top":
        return _top_delta(a, b)
    if query.kind == "site":
        return {
            "kind": "site",
            "dependencies": _set_delta(
                [d["provider"] for d in a["site"]["dependencies"]],
                [d["provider"] for d in b["site"]["dependencies"]],
            ),
            "critical_dependency_count_a": (
                a["site"]["critical_dependency_count"]
            ),
            "critical_dependency_count_b": (
                b["site"]["critical_dependency_count"]
            ),
        }
    if query.kind == "dependents":
        return {
            "kind": "dependents",
            "direct": _set_delta(
                [d["domain"] for d in a["direct"]],
                [d["domain"] for d in b["direct"]],
            ),
            "consumers": _set_delta(
                [c["provider"] for c in a["consumers"]],
                [c["provider"] for c in b["consumers"]],
            ),
        }
    return {
        "kind": "whatif",
        "down": _set_delta(list(a["down"]), list(b["down"])),
        "at_risk": _set_delta(list(a["at_risk"]), list(b["at_risk"])),
    }
