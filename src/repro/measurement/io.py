"""Dataset serialization: measure once, analyze offline.

The paper's workflow separates the (expensive, network-bound) measurement
campaign from the (cheap, repeatable) analysis. :func:`dataset_to_json` /
:func:`dataset_from_json` make that split concrete here: a campaign's raw
output round-trips through plain JSON, so analyses, ablations, and
re-classifications run against a frozen dataset without a world.

A record's JSON object holds exactly its dataclass fields. One codec
(:func:`record_codec`) derives each record class's encoder and decoder
from a single read of its fields and resolved type hints, so the two
cannot disagree; this module adds the envelope around it — format
versioning, upgrade paths for older payloads, and the canonical on-disk
key order.

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
version step at a time; a version they cannot read (newer, missing,
malformed) raises :class:`WireVersionError` naming both the found and
supported versions, and any other malformed payload (deeply nested JSON,
a field of the wrong JSON type and a shard ``metrics`` that is no
registry included) raises :class:`DatasetFormatError` (its base class)
instead of a bare ``KeyError``/``TypeError``/``RecursionError``, or a
wrong value. Writers always emit the
current version, as the text of ``json.dumps(..., indent=1)`` produced by
:func:`~repro.measurement.jsonwriter.write_json`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Callable, NamedTuple, Optional, Union

from repro.measurement.jsonwriter import write_json
from repro.measurement.records import Dataset, WebsiteMeasurement
from repro.telemetry.metrics import MetricsRegistry

FORMAT_VERSION = 3
SHARD_FORMAT_VERSION = 4
OLDEST_READABLE_VERSION = 1
OLDEST_READABLE_SHARD_VERSION = 1


class DatasetFormatError(ValueError):
    """A dataset or shard payload is malformed: not JSON, not an object,
    or missing or mistyping a field its format version requires."""


class WireVersionError(DatasetFormatError):
    """A payload declares a wire format this build cannot read."""


#: What a malformed payload raises while it is upgraded and decoded.
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def _load_object(text: str, kind: str) -> dict[str, Any]:
    """Parse ``text`` as a JSON object, or raise DatasetFormatError."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise DatasetFormatError(f"{kind} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DatasetFormatError(f"{kind} nests too deeply") from exc
    if not isinstance(payload, dict):
        raise DatasetFormatError(
            f"{kind} must be a JSON object, not {type(payload).__name__}"
        )
    return payload


def _malformed(kind: str, exc: Exception) -> DatasetFormatError:
    return DatasetFormatError(f"malformed {kind}: {type(exc).__name__}: {exc}")


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

    Used instead of ``sort_keys=True`` where a caller exempts a subtree:
    dataset ``notes`` keep their insertion order.
    """
    if isinstance(obj, dict):
        return {
            key: _canonical(value) if isinstance(value, (dict, list)) else value
            for key, value in sorted(obj.items())
        }
    if isinstance(obj, list):
        return [
            _canonical(item) if isinstance(item, (dict, list)) else item
            for item in obj
        ]
    return obj


# -- the record codec --------------------------------------------------------

#: Converts one field value; an encoder of ``None`` passes the value
#: through as it is.
_Convert = Callable[[Any], Any]

#: The JSON value types a scalar field accepts, compared by exact type
#: so an ``int`` field refuses a ``bool``.
_SCALARS: dict[Any, tuple[type, ...]] = {
    str: (str,), int: (int,), float: (int, float), bool: (bool,),
}


class RecordCodec(NamedTuple):
    """The JSON mapping of one record class: ``encode`` turns a record into
    a dict of its fields, ``decode`` builds the record back from one."""

    encode: Callable[[Any], dict[str, Any]]
    decode: Callable[[Any], Any]


@functools.cache
def record_codec(cls: type) -> RecordCodec:
    """The codec of a frozen record dataclass, built once per class.

    Nested records, ``Optional[X]``, ``list[X]``, ``tuple[X, ...]`` and
    ``dict[str, X]`` fields are converted. Encoding passes scalars, and
    any container that holds no record, through as they are
    (``write_json`` writes tuples as lists). Decoding copies every
    container, so a decoded record shares nothing with its payload, and
    checks each value's JSON type against its field's: a ``str`` field
    takes a string, an ``int`` field an integer but not a boolean, a
    ``float`` field either number, a list or tuple an array, a dict an
    object, and only an ``Optional`` field ``null``. A mistyped value
    raises :class:`DatasetFormatError` naming the field.

    Raises TypeError for a class that is not a frozen dataclass and for
    a field whose type it cannot convert — a record that could change
    after it was serialized, or whose value JSON cannot carry back.
    """
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        raise TypeError(f"{cls.__qualname__} is not a frozen dataclass")
    hints = typing.get_type_hints(cls)
    encoders: list[tuple[str, _Convert]] = []
    decoders: list[tuple[str, _Convert]] = []
    for name in (f.name for f in dataclasses.fields(cls)):
        try:
            encode, decode = _converters(hints[name])
        except TypeError as exc:
            raise TypeError(f"{cls.__qualname__}.{name}: {exc}") from None
        if encode is not None:
            encoders.append((name, encode))
        decoders.append((name, decode))
    names = tuple(name for name, _ in decoders)

    def encode_record(record: Any) -> dict[str, Any]:
        out = {name: getattr(record, name) for name in names}
        for name, convert in encoders:
            out[name] = convert(out[name])
        return out

    def decode_record(data: Any) -> Any:
        values = []
        for name, convert in decoders:
            try:
                values.append(convert(data[name]))
            except DatasetFormatError as exc:
                raise DatasetFormatError(
                    f"{cls.__qualname__}.{name}: {exc}"
                ) from None
        return cls(*values)

    return RecordCodec(encode_record, decode_record)


def _converters(tp: Any) -> tuple[Optional[_Convert], _Convert]:
    """``(encode, decode)`` for values of type ``tp``; an ``encode`` of
    ``None`` passes the value through."""
    if tp in _SCALARS:
        return None, _expect(_SCALARS[tp], tp.__name__)
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        codec = record_codec(tp)
        return codec.encode, codec.decode
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    optional = origin in (Union, types.UnionType) and type(None) in args
    if optional and len(args) == 2:
        inner = args[1] if args[0] is type(None) else args[0]
        encode, decode = _converters(inner)
        return (
            None if encode is None else _or_none(encode),
            _or_none(decode),
        )
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        encode, decode = _converters(args[0])
        return (
            None if encode is None else _each(encode),
            _array_of(decode, list if origin is list else tuple),
        )
    if origin is dict and args[0] is str:
        encode, decode = _converters(args[1])
        return (
            None if encode is None else _each_value(encode),
            _object_of(decode),
        )
    raise TypeError(f"cannot convert a value of type {tp!r}")


def _mistyped(expected: str, value: Any) -> DatasetFormatError:
    return DatasetFormatError(
        f"expected {expected}, found {type(value).__name__} {value!r:.40}"
    )


def _expect(accepts: tuple[type, ...], expected: str) -> _Convert:
    def check(value: Any) -> Any:
        if type(value) in accepts:
            return value
        raise _mistyped(expected, value)

    return check


def _or_none(convert: _Convert) -> _Convert:
    return lambda value: None if value is None else convert(value)


def _each(convert: _Convert) -> _Convert:
    return lambda values: [convert(value) for value in values]


def _each_value(convert: _Convert) -> _Convert:
    return lambda values: {key: convert(v) for key, v in values.items()}


def _array_of(convert: _Convert, rebuild: Callable[[Any], Any]) -> _Convert:
    def decode(values: Any) -> Any:
        if type(values) is not list:
            raise _mistyped("array", values)
        return rebuild([convert(value) for value in values])

    return decode


def _object_of(convert: _Convert) -> _Convert:
    def decode(values: Any) -> Any:
        if type(values) is not dict:
            raise _mistyped("object", values)
        return {key: convert(value) for key, value in values.items()}

    return decode


_DATASET = record_codec(Dataset)
_WEBSITE = record_codec(WebsiteMeasurement)


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
    payload = _DATASET.encode(dataset)
    payload["format_version"] = FORMAT_VERSION
    canonical = _canonical(payload)
    # notes are campaign-ordered, not alphabetical; reassignment keeps the
    # key's (sorted) position in the top-level object.
    canonical["notes"] = dict(dataset.notes)
    return write_json(canonical)


def dataset_from_json(text: str) -> Dataset:
    """Deserialize a dataset produced by :func:`dataset_to_json` (any
    readable format version; older payloads are upgraded in memory).

    Raises :class:`DatasetFormatError` on a malformed payload.
    """
    payload = _load_object(text, "dataset")
    try:
        current = upgrade_dataset_payload(payload)
        # ``notes`` is the one field a dataset payload may omit.
        return _DATASET.decode({"notes": {}, **current})
    except DatasetFormatError:
        raise
    except _MALFORMED as exc:
        raise _malformed("dataset", exc) from exc


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
        "websites": [_WEBSITE.encode(w) for w in websites],
    }
    if metrics is not None:
        payload["metrics"] = metrics
    return write_json(payload, sort_keys=True)


#: One shard in memory: its website records in rank order and its drained
#: telemetry registry (``None`` for a shard measured without metrics).
ShardPayload = tuple[list[WebsiteMeasurement], Optional[dict[str, Any]]]


def shard_payload_from_json(text: str) -> ShardPayload:
    """Deserialize a shard: ``(websites, metrics)``.

    ``metrics`` is ``None`` for shards written without telemetry (and
    for every pre-v4 shard). Any readable shard version is upgraded in
    memory. Raises :class:`DatasetFormatError` on a malformed payload.
    """
    payload = _load_object(text, "shard")
    version = payload.get("shard_format_version")
    _check_format_version(
        version,
        SHARD_FORMAT_VERSION,
        OLDEST_READABLE_SHARD_VERSION,
        "shard",
    )
    try:
        entries = payload["websites"]
        if version == 1:
            entries = [_website_v1_to_v2(entry) for entry in entries]
            version = 2
        if version == 2:
            entries = [_website_v2_to_v3(entry) for entry in entries]
        websites = [_WEBSITE.decode(entry) for entry in entries]
        metrics = payload.get("metrics")
        if metrics is not None:  # refuse it here, not in the resume merge
            MetricsRegistry.from_dict(metrics)
    except DatasetFormatError:
        raise
    except _MALFORMED as exc:
        raise _malformed("shard", exc) from exc
    return websites, metrics


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dataset_to_json(dataset))


def load_dataset(path: str) -> Dataset:
    """Read a dataset from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return dataset_from_json(handle.read())
