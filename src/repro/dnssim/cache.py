"""TTL-driven resolver cache with negative caching.

Cache behaviour matters to the paper's motivation: the GlobalSign incident
persisted for a week *because* revocation responses were cached. The cache
here honours record TTLs against the simulated clock and supports negative
entries (NXDOMAIN / NODATA) per RFC 2308.

The public methods normalize the name and parse the type they are given.
The resolver, whose names are canonical already, keys the private
``_peek``/``_put``/``_put_negative`` by ``(name, RRType)`` tuples directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dnssim.clock import SimulatedClock
from repro.dnssim.records import RRType, ResourceRecord
from repro.names.normalize import normalize

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    evictions: int = 0
    # Entries found stale at lookup time and dropped by get(); every one
    # also counts as a miss (the caller still has to re-resolve).
    expired: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.negative_hits


@dataclass(slots=True)
class _Entry:
    expires_at: float
    records: list[ResourceRecord]
    negative: bool = False
    nxdomain: bool = False


class NegativeCacheHit(Exception):
    """Signal that a cached NXDOMAIN/NODATA applies (internal to resolver)."""

    def __init__(self, nxdomain: bool):
        self.nxdomain = nxdomain
        super().__init__("negative cache hit")


class DnsCache:
    """A (name, type)-keyed TTL cache bound to a simulated clock."""

    def __init__(self, clock: SimulatedClock, max_entries: int = 100_000):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._clock = clock
        self._max = max_entries
        self._entries: dict[tuple[str, RRType], _Entry] = {}
        self.stats = CacheStats()
        # Observability hook; None keeps the hot path to one attr check.
        self.telemetry: Optional["Telemetry"] = None

    def _key(self, name: str, rrtype: RRType) -> tuple[str, RRType]:
        return (normalize(name), RRType.parse(rrtype))

    def put(self, name: str, rrtype: RRType, records: list[ResourceRecord]) -> None:
        """Cache a positive answer until the smallest record TTL expires."""
        self._put(self._key(name, rrtype), records)

    def _put(self, key: tuple[str, RRType], records: list[ResourceRecord]) -> None:
        if not records:
            return
        ttl = min(rr.ttl for rr in records)
        if ttl <= 0:
            return
        # Overwriting an existing key does not grow the cache, so a full
        # cache must not shed an unrelated entry for it.
        if key not in self._entries:
            self._evict_if_full()
        self._entries[key] = _Entry(
            expires_at=self._clock.now() + ttl, records=list(records)
        )

    def put_negative(
        self, name: str, rrtype: RRType, soa_minimum: int, nxdomain: bool
    ) -> None:
        """Cache an NXDOMAIN or NODATA outcome for the SOA minimum TTL."""
        self._put_negative(self._key(name, rrtype), soa_minimum, nxdomain)

    def _put_negative(
        self, key: tuple[str, RRType], soa_minimum: int, nxdomain: bool
    ) -> None:
        if soa_minimum <= 0:
            return
        if key not in self._entries:
            self._evict_if_full()
        self._entries[key] = _Entry(
            expires_at=self._clock.now() + soa_minimum,
            records=[],
            negative=True,
            nxdomain=nxdomain,
        )

    def get(self, name: str, rrtype: RRType) -> Optional[list[ResourceRecord]]:
        """Fresh cached records, or None on miss.

        Raises :class:`NegativeCacheHit` when a fresh negative entry covers
        the key, so callers can distinguish "unknown" from "known absent".
        """
        key = self._key(name, rrtype)
        entry = self._entries.get(key)
        tel = self.telemetry
        if entry is None or entry.expires_at <= self._clock.now():
            if entry is not None:
                del self._entries[key]
                self.stats.expired += 1
                if tel is not None:
                    tel.diag("dns.cache.expired")
            self.stats.misses += 1
            if tel is not None:
                tel.diag("dns.cache.misses")
                tel.event("cache.miss", "dns", qname=key[0], qtype=key[1].name)
            return None
        if entry.negative:
            self.stats.negative_hits += 1
            if tel is not None:
                tel.diag("dns.cache.negative_hits")
                tel.event(
                    "cache.negative_hit", "dns", qname=key[0], qtype=key[1].name
                )
            raise NegativeCacheHit(entry.nxdomain)
        self.stats.hits += 1
        if tel is not None:
            tel.diag("dns.cache.hits")
            tel.event("cache.hit", "dns", qname=key[0], qtype=key[1].name)
        return list(entry.records)

    def peek(self, name: str, rrtype: RRType) -> Optional[list[ResourceRecord]]:
        """Like :meth:`get` but without counters or negative signalling."""
        return self._peek(self._key(name, rrtype))

    def _peek(self, key: tuple[str, RRType]) -> Optional[list[ResourceRecord]]:
        entry = self._entries.get(key)
        if entry is None or entry.negative or entry.expires_at <= self._clock.now():
            return None
        return list(entry.records)

    def _evict_if_full(self) -> None:
        if len(self._entries) < self._max:
            return
        now = self._clock.now()
        stale = [k for k, e in self._entries.items() if e.expires_at <= now]
        for k in stale:
            del self._entries[k]
            self.stats.evictions += 1
        # Still full after pruning stale entries: drop the soonest-to-expire.
        # One sort pass picks every victim at once (the old per-victim
        # min() rescan was O(n²) when far over capacity); sort stability
        # keeps the victim order identical to repeated min() scans.
        overflow = len(self._entries) - self._max + 1
        if overflow <= 0:
            return
        by_expiry = sorted(
            self._entries, key=lambda k: self._entries[k].expires_at
        )
        for victim in by_expiry[:overflow]:
            del self._entries[victim]
            self.stats.evictions += 1

    def flush(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
