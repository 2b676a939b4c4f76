"""Zero-copy access to a compiled ``repro-store/1`` file.

A :class:`StoreReader` validates the envelope once (magic, wire
version, sha256 trailer) and then serves every lookup straight off the
mapped bytes: u32 sections are ``memoryview.cast("I")`` views, and
site/provider lookups are binary searches over the
lexicographically-ordered tables. A string is decoded from the blob the
first time its index is asked for and memoized in a per-reader dict, as
is each provider's ``service:id`` key, so a warm reader decodes nothing
and a binary search probes dict entries. Nothing is materialized up
front: loading a store is O(header) regardless of dataset size, and the
memos hold at most one ``str`` per store string for the reader's
lifetime.
"""

from __future__ import annotations

import mmap
from array import array
from typing import Any, Optional, Union

from repro.store.format import (
    SERVICE_NAMES,
    StoreCorruptError,
    parse_store,
    unpack_u32,
)

U32View = Union[memoryview, "array[int]"]

#: provider_metrics row layout: columns per provider, in order.
METRIC_COLUMNS = (
    "concentration",
    "impact",
    "direct_concentration",
    "direct_impact",
)

#: Every u32 section a store carries; ``strings_blob`` is its one blob.
_U32_SECTIONS = (
    "string_offsets",
    "site_domains",
    "site_ranks",
    "site_deps_offsets",
    "site_deps",
    "site_deps_flags",
    "site_critical_counts",
    "provider_ids",
    "provider_services",
    "provider_displays",
    "provider_metrics",
    "provider_upstream_offsets",
    "provider_upstream",
    "provider_upstream_flags",
    "provider_consumers_offsets",
    "provider_consumers",
    "provider_consumers_flags",
    "provider_direct_offsets",
    "provider_direct",
    "provider_direct_flags",
    "provider_trans_all_offsets",
    "provider_trans_all",
    "provider_trans_crit_offsets",
    "provider_trans_crit",
)


def _section_entry(name: str, entry: Any) -> tuple[int, int, str]:
    """``(offset, count, kind)`` of one section-table entry, checked."""
    if not isinstance(entry, dict):
        raise StoreCorruptError(f"section {name!r} entry is not an object")
    offset, count, kind = entry.get("offset"), entry.get("count"), entry.get("kind")
    for field, value in (("offset", offset), ("count", count)):
        if type(value) is not int or value < 0:
            raise StoreCorruptError(
                f"section {name!r} {field} is {value!r}, "
                f"expected an integer >= 0"
            )
    if kind not in ("u32", "blob"):
        raise StoreCorruptError(
            f"section {name!r} kind is {kind!r}, expected 'u32' or 'blob'"
        )
    return offset, count, kind


class StoreReader:
    """Read-only view over one validated store blob."""

    def __init__(self, header: dict[str, Any], data: memoryview) -> None:
        self.header = header
        self._data = data
        self._u32: dict[str, U32View] = {}
        self._blob: dict[str, memoryview] = {}
        for fact in ("source_sha256", "year"):
            if fact not in header:
                raise StoreCorruptError(f"store header has no {fact!r}")
        sections = header.get("sections")
        if not isinstance(sections, dict):
            raise StoreCorruptError("store header has no section table")
        for name, entry in sections.items():
            offset, count, kind = _section_entry(name, entry)
            size = count * 4 if kind == "u32" else count
            if offset + size > len(data):
                raise StoreCorruptError(
                    f"section {name!r} overruns the data area"
                )
            view = data[offset : offset + size]
            if kind == "u32":
                self._u32[name] = unpack_u32(view)
            else:
                self._blob[name] = view
        if "strings_blob" not in self._blob:
            raise StoreCorruptError("store is missing blob section 'strings_blob'")
        for required in _U32_SECTIONS:
            if required not in self._u32:
                raise StoreCorruptError(
                    f"store is missing u32 section {required!r}"
                )
        self.n_sites = len(self._u32["site_domains"])
        self.n_providers = len(self._u32["provider_ids"])
        self._string_offsets = self._u32["string_offsets"]
        self._strings_blob = self._blob["strings_blob"]
        self.n_strings = len(self._string_offsets) - 1
        # Filled on first use and kept for the reader's lifetime.
        self._strings: dict[int, str] = {}
        self._provider_keys: dict[int, str] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_bytes(cls, buf: Union[bytes, memoryview]) -> "StoreReader":
        header, data = parse_store(buf)
        return cls(header, data)

    @classmethod
    def load(cls, path: str) -> "StoreReader":
        """mmap a store file; the kernel pages sections in on demand."""
        with open(path, "rb") as handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # zero-length file cannot be mapped
                return cls.from_bytes(b"")
        return cls.from_bytes(memoryview(mapped))

    # -- strings -------------------------------------------------------------

    def string(self, index: int) -> str:
        value = self._strings.get(index)
        if value is None:
            offsets = self._string_offsets
            raw = self._strings_blob[offsets[index] : offsets[index + 1]]
            try:
                value = str(raw, "utf-8")
            except UnicodeDecodeError as exc:
                raise StoreCorruptError(
                    f"store string {index} is not valid UTF-8"
                ) from exc
            self._strings[index] = value
        return value

    def find_string(self, value: str) -> Optional[int]:
        """Binary search the sorted string table; None when absent."""
        lo, hi = 0, self.n_strings
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self.string(mid)
            if probe < value:
                lo = mid + 1
            elif probe > value:
                hi = mid
            else:
                return mid
        return None

    # -- sites ---------------------------------------------------------------

    def site_domain(self, site: int) -> str:
        return self.string(self._u32["site_domains"][site])

    def site_rank(self, site: int) -> int:
        return int(self._u32["site_ranks"][site])

    def find_site(self, domain: str) -> Optional[int]:
        """Site index for a domain; None when the store has no such site.

        String ids are dense-lexicographic, so the (string-sorted) site
        table is also ascending in id — one id lookup plus one binary
        search over u32s.
        """
        string_index = self.find_string(domain)
        if string_index is None:
            return None
        ids = self._u32["site_domains"]
        lo, hi = 0, self.n_sites
        while lo < hi:
            mid = (lo + hi) // 2
            if ids[mid] < string_index:
                lo = mid + 1
            elif ids[mid] > string_index:
                hi = mid
            else:
                return mid
        return None

    def site_dependencies(self, site: int) -> list[tuple[int, bool]]:
        """``(provider index, critical)`` pairs, ascending by provider."""
        return self._postings_with_flags("site_deps", site)

    def site_critical_count(self, site: int) -> int:
        return int(self._u32["site_critical_counts"][site])

    # -- providers -----------------------------------------------------------

    def provider_id(self, provider: int) -> str:
        return self.string(self._u32["provider_ids"][provider])

    def provider_service(self, provider: int) -> str:
        return SERVICE_NAMES[int(self._u32["provider_services"][provider])]

    def provider_display(self, provider: int) -> str:
        return self.string(self._u32["provider_displays"][provider])

    def provider_key(self, provider: int) -> str:
        """The canonical ``service:id`` form (== ``str(ProviderNode)``)."""
        key = self._provider_keys.get(provider)
        if key is None:
            key = f"{self.provider_service(provider)}:{self.provider_id(provider)}"
            self._provider_keys[provider] = key
        return key

    def find_provider(self, key: str) -> Optional[int]:
        """Provider index for ``service:id`` or a bare unambiguous id."""
        if ":" in key:
            lo, hi = 0, self.n_providers
            while lo < hi:
                mid = (lo + hi) // 2
                probe = self.provider_key(mid)
                if probe < key:
                    lo = mid + 1
                elif probe > key:
                    hi = mid
                else:
                    return mid
            return None
        string_index = self.find_string(key)
        if string_index is None:
            return None
        ids = self._u32["provider_ids"]
        matches = [i for i in range(self.n_providers) if ids[i] == string_index]
        return matches[0] if len(matches) == 1 else None

    def provider_metrics(self, provider: int) -> dict[str, int]:
        row = self._u32["provider_metrics"]
        base = provider * len(METRIC_COLUMNS)
        return {
            name: int(row[base + column])
            for column, name in enumerate(METRIC_COLUMNS)
        }

    def providers_of_service(self, service: str) -> list[int]:
        """Provider indices of one service, in ``str(node)`` order."""
        codes = self._u32["provider_services"]
        wanted = {
            code for code, name in SERVICE_NAMES.items() if name == service
        }
        return [i for i in range(self.n_providers) if int(codes[i]) in wanted]

    def provider_upstream(self, provider: int) -> list[tuple[int, bool]]:
        """Providers this provider depends on, with criticality."""
        return self._postings_with_flags("provider_upstream", provider)

    def provider_consumers(self, provider: int) -> list[tuple[int, bool]]:
        """Providers depending on this provider, with criticality."""
        return self._postings_with_flags("provider_consumers", provider)

    def provider_direct_sites(self, provider: int) -> list[tuple[int, bool]]:
        """Sites with a direct edge to this provider, with criticality."""
        return self._postings_with_flags("provider_direct", provider)

    def provider_dependent_sites(
        self, provider: int, critical_only: bool
    ) -> U32View:
        """The frozen transitive dependent-site postings (§2.2 unions)."""
        name = "provider_trans_crit" if critical_only else "provider_trans_all"
        return self._postings(name, provider)

    # -- internals -----------------------------------------------------------

    def _postings(self, name: str, row: int) -> U32View:
        offsets = self._u32[f"{name}_offsets"]
        return self._u32[name][offsets[row] : offsets[row + 1]]

    def _postings_with_flags(self, name: str, row: int) -> list[tuple[int, bool]]:
        offsets = self._u32[f"{name}_offsets"]
        start, stop = offsets[row], offsets[row + 1]
        values = self._u32[name][start:stop].tolist()
        flags = self._u32[f"{name}_flags"][start:stop].tolist()
        return list(zip(values, map(bool, flags)))

    def __repr__(self) -> str:
        return (
            f"StoreReader({self.n_sites} sites, {self.n_providers} providers, "
            f"year {self.header.get('year')})"
        )
