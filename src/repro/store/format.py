"""The ``repro-store/1`` binary wire format.

A compiled store is one self-verifying blob::

    magic    8 bytes   b"RPRSTORE"
    version  u32 LE    wire version (currently 1)
    hlen     u32 LE    header length in bytes
    header   hlen      canonical JSON (sorted keys, no whitespace),
                       space-padded so the data area starts 4-aligned
    data     ...       u32-LE array and UTF-8 blob sections, 4-aligned
    trailer  32 bytes  sha256 of every preceding byte

The header carries the schema string (``repro-store/1``), the sha256
digest of the *source dataset JSON text* (binding the store to exactly
one frozen dataset), snapshot facts (year, website/provider counts,
rank scale, concentration threshold), and the section table: name →
``{"offset", "count", "kind"}`` with offsets relative to the data area.

Readers refuse anything they cannot prove readable: a wrong magic or a
failed trailer digest raises :class:`StoreCorruptError` (truncations
and bit flips can never produce garbage answers), and a newer wire
version raises :class:`StoreVersionError` naming both versions — the
same contract the dataset/shard JSON envelope gives via
``WireVersionError``.

Everything in the data area is little-endian regardless of host order,
so a store compiled anywhere loads everywhere, byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from array import array
from typing import Any, Sequence, Union

MAGIC = b"RPRSTORE"
WIRE_VERSION = 1
SCHEMA = "repro-store/1"
_FIXED = struct.Struct("<4x")  # placeholder; real packing uses to_bytes
_DIGEST_SIZE = 32
_U32 = 4

#: Service enum values in their fixed on-disk code order.
SERVICE_CODES = {"dns": 0, "cdn": 1, "ca": 2}
SERVICE_NAMES = {code: name for name, code in SERVICE_CODES.items()}


class StoreError(ValueError):
    """Base class for every store read/compile failure."""


class StoreVersionError(StoreError):
    """The store declares a wire version this build cannot read."""


class StoreCorruptError(StoreError):
    """The store bytes fail a structural or integrity check."""


def pack_u32(values: Sequence[int]) -> bytes:
    """Encode a u32 sequence little-endian (host-order independent)."""
    arr = array("I", values)
    if arr.itemsize != _U32:  # pragma: no cover - exotic platforms only
        return b"".join(value.to_bytes(_U32, "little") for value in values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        arr.byteswap()
    return arr.tobytes()


def unpack_u32(view: memoryview) -> Union[memoryview, array]:
    """A zero-copy u32 view over little-endian section bytes.

    On little-endian hosts this is ``memoryview.cast("I")`` — indexing,
    slicing, and ``bisect`` work directly against the mapped bytes. A
    big-endian host pays one copy-and-swap instead.
    """
    if sys.byteorder == "little":
        return view.cast("I")
    swapped = array("I", view.tobytes())  # pragma: no cover - big-endian
    swapped.byteswap()  # pragma: no cover - big-endian
    return swapped  # pragma: no cover - big-endian


def _pad4(length: int) -> int:
    return (4 - length % 4) % 4


class SectionWriter:
    """Accumulates named sections and assembles the final store bytes."""

    def __init__(self, meta: dict[str, Any]) -> None:
        self._meta = dict(meta)
        self._sections: dict[str, dict[str, Any]] = {}
        self._data = bytearray()

    def add_u32(self, name: str, values: Sequence[int]) -> None:
        self._add(name, pack_u32(values), "u32", len(values))

    def add_blob(self, name: str, blob: bytes) -> None:
        self._add(name, blob, "blob", len(blob))

    def _add(self, name: str, payload: bytes, kind: str, count: int) -> None:
        if name in self._sections:
            raise ValueError(f"duplicate section {name!r}")
        offset = len(self._data)
        self._data.extend(payload)
        self._data.extend(b"\x00" * _pad4(len(payload)))
        self._sections[name] = {"offset": offset, "count": count, "kind": kind}

    def to_bytes(self) -> bytes:
        header: dict[str, Any] = dict(self._meta)
        header["schema"] = SCHEMA
        header["sections"] = {
            name: self._sections[name] for name in sorted(self._sections)
        }
        encoded = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        # Pad with spaces (JSON-transparent) so the data area is 4-aligned.
        encoded += b" " * _pad4(len(MAGIC) + 2 * _U32 + len(encoded))
        out = bytearray()
        out.extend(MAGIC)
        out.extend(WIRE_VERSION.to_bytes(_U32, "little"))
        out.extend(len(encoded).to_bytes(_U32, "little"))
        out.extend(encoded)
        out.extend(self._data)
        out.extend(hashlib.sha256(bytes(out)).digest())
        return bytes(out)


def parse_store(buf: Union[bytes, memoryview]) -> tuple[dict[str, Any], memoryview]:
    """Validate a store blob and return ``(header, data_view)``.

    Checks run in severity order: magic, wire version, trailer digest,
    header well-formedness — so a future-version store raises
    :class:`StoreVersionError` even though its digest (computed by the
    future writer) would also fail here.
    """
    view = memoryview(buf)
    prefix = len(MAGIC) + 2 * _U32
    if len(view) < prefix + _DIGEST_SIZE:
        raise StoreCorruptError(
            f"store truncated: {len(view)} byte(s) is smaller than the "
            f"fixed envelope ({prefix + _DIGEST_SIZE})"
        )
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise StoreCorruptError("not a repro store (bad magic)")
    version = int.from_bytes(view[len(MAGIC) : len(MAGIC) + _U32], "little")
    if version != WIRE_VERSION:
        raise StoreVersionError(
            f"cannot read store: found wire version {version}, but this "
            f"build supports version {WIRE_VERSION} only"
        )
    digest = hashlib.sha256(view[: len(view) - _DIGEST_SIZE]).digest()
    if bytes(view[len(view) - _DIGEST_SIZE :]) != digest:
        raise StoreCorruptError(
            "store integrity check failed: trailer sha256 does not match "
            "the content (truncated or bit-flipped file)"
        )
    hlen = int.from_bytes(view[len(MAGIC) + _U32 : prefix], "little")
    if prefix + hlen + _DIGEST_SIZE > len(view):
        raise StoreCorruptError(
            f"store header length {hlen} overruns the file"
        )
    try:
        header = json.loads(bytes(view[prefix : prefix + hlen]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(f"store header is not valid JSON: {exc}")
    if not isinstance(header, dict):
        raise StoreCorruptError("store header is not a JSON object")
    if header.get("schema") != SCHEMA:
        raise StoreCorruptError(
            f"store header schema is {header.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    data = view[prefix + hlen : len(view) - _DIGEST_SIZE]
    return header, data
