"""Iterative DNS resolution with caching and CNAME chasing.

:class:`IterativeResolver` walks the delegation tree from the root hints,
follows referrals and glue, chases CNAME chains across zones, and caches
positive and negative answers — the behaviour a measurement vantage point's
recursive resolver exhibits when the paper runs ``dig``.

:meth:`IterativeResolver.lookup` normalizes the name it is asked about;
from there on every name is canonical (the wire decoder canonicalizes what
servers send back), so the resolver builds its queries and cache keys
without normalizing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.dnssim.cache import DnsCache, NegativeCacheHit
from repro.dnssim.clock import SimulatedClock
from repro.dnssim.errors import (
    NoSuchDomainError,
    ResolutionError,
    ServerUnavailableError,
)
from repro.dnssim.message import DnsMessage, Question, RCode
from repro.dnssim.network import DnsNetwork
from repro.dnssim.records import RRClass, RRType, ResourceRecord, SOARecord
from repro.faults.injector import FaultInjector
from repro.names.normalize import normalize
from repro.telemetry.spans import NULL_SPAN

if TYPE_CHECKING:
    from repro.telemetry import Telemetry

_make_question = Question._make

MAX_REFERRALS = 48
MAX_CNAME_CHAIN = 16
MAX_GLUELESS_DEPTH = 8


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Retry round ``k`` (1-based) waits ``backoff_base * backoff_factor**(k-1)``
    simulated seconds before re-querying; a whole query gives up once
    ``timeout_budget`` simulated seconds have elapsed since its first
    send. All waiting advances the shared :class:`SimulatedClock`, never
    a wall clock, so retried campaigns stay replayable.
    """

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    timeout_budget: float = 8.0

    def backoff(self, retry: int) -> float:
        """Delay before 1-based retry round ``retry``."""
        return self.backoff_base * self.backoff_factor ** (retry - 1)


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class ResolverStats:
    """Counters describing resolver work."""

    queries: int = 0
    referrals: int = 0
    cname_chases: int = 0
    glueless_lookups: int = 0
    failures: int = 0
    retries: int = 0


@dataclass(slots=True)
class ResolutionResult:
    """The outcome of resolving ``qname``/``qtype``.

    ``records`` holds the final rrset of the requested type; ``cname_chain``
    lists every alias traversed (owner → target order); ``authority_soa``
    carries the SOA seen on NODATA/NXDOMAIN — which is exactly what the
    paper's SOA-matching heuristics consume.
    """

    qname: str
    qtype: RRType
    rcode: RCode
    records: list[ResourceRecord] = field(default_factory=list)
    cname_chain: list[str] = field(default_factory=list)
    authority_soa: Optional[ResourceRecord] = None
    # Worst-case query rounds any single step of this resolution needed
    # (1 = every query answered first try). Counts only the lookup's own
    # walk, not shared infrastructure side-quests (glueless NS lookups),
    # so the number is independent of cache warmth.
    attempts: int = 1

    @property
    def is_nxdomain(self) -> bool:
        return self.rcode == RCode.NXDOMAIN

    @property
    def final_name(self) -> str:
        """The canonical name after following every CNAME."""
        return self.cname_chain[-1] if self.cname_chain else self.qname


class IterativeResolver:
    """A caching iterative resolver rooted at explicit hints.

    ``root_hints`` maps root-server names to IPs, mirroring a hints file.
    """

    def __init__(
        self,
        network: DnsNetwork,
        root_hints: dict[str, str],
        clock: Optional[SimulatedClock] = None,
        cache: Optional[DnsCache] = None,
        region: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        injector: Optional[FaultInjector] = None,
    ):
        if not root_hints:
            raise ValueError("resolver needs at least one root hint")
        self.region = region  # the vantage point (GeoDNS views)
        self.injector = injector  # the vantage's faults, sent with each query
        self._network = network
        self._root_hints = dict(root_hints)
        self._clock = clock or SimulatedClock()
        self.cache = cache if cache is not None else DnsCache(self._clock)
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.stats = ResolverStats()
        # Observability hook; None keeps the hot path to one attr check.
        self.telemetry: Optional["Telemetry"] = None
        self._msg_id = 0
        self._lookup_attempts = 1
        self._last_failure = ""

    # -- public API ----------------------------------------------------------

    def lookup(self, qname: str, qtype: RRType) -> ResolutionResult:
        """Resolve without raising on NXDOMAIN (NODATA → empty records).

        Raises :class:`ResolutionError` only on operational failure (all
        servers unreachable, lame delegations, loops).
        """
        qname = normalize(qname)
        qtype = RRType.parse(qtype)
        tel = self.telemetry
        span = (
            tel.span("dns.lookup", "dns", qname=qname, qtype=qtype.name)
            if tel is not None
            else NULL_SPAN
        )
        result = ResolutionResult(qname, qtype, RCode.NOERROR)
        self._lookup_attempts = 1
        with span as sp:
            try:
                self._resolve_into(qname, qtype, result, depth=0)
            except ResolutionError as exc:
                exc.attempts = max(exc.attempts, self._lookup_attempts)
                if tel is not None:
                    sp.set(error=str(exc), attempts=self._lookup_attempts)
                raise
            result.attempts = self._lookup_attempts
            if tel is not None:
                sp.set(
                    rcode=result.rcode.name,
                    attempts=result.attempts,
                    answers=len(result.records),
                    cname_chain=len(result.cname_chain),
                )
        return result

    def resolve(self, qname: str, qtype: RRType) -> list[ResourceRecord]:
        """Resolve and return the final rrset; raises on NXDOMAIN."""
        result = self.lookup(qname, qtype)
        if result.is_nxdomain:
            raise NoSuchDomainError(result.qname, result.qtype.name)
        return result.records

    def resolve_address(self, hostname: str) -> list[str]:
        """Convenience: the IPv4 addresses of a hostname (empty if none)."""
        try:
            return [rr.rdata.address for rr in self.resolve(hostname, RRType.A)]  # type: ignore[union-attr]
        except NoSuchDomainError:
            return []

    # -- core algorithm -------------------------------------------------------

    def _next_id(self) -> int:
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        return self._msg_id

    def _resolve_into(
        self, qname: str, qtype: RRType, result: ResolutionResult, depth: int
    ) -> None:
        """Resolve one owner name, following CNAMEs, filling ``result``."""
        current = qname
        for _ in range(MAX_CNAME_CHAIN):
            outcome = self._resolve_one(current, qtype, result, depth)
            if outcome is None:
                return  # terminal: answer, NODATA or NXDOMAIN recorded
            current = outcome  # CNAME target to chase
            result.cname_chain.append(current)
            self.stats.cname_chases += 1
            tel = self.telemetry
            if tel is not None:
                tel.diag("dns.cname_chases")
                tel.event("dns.cname_chase", "dns", target=current)
        self.stats.failures += 1
        raise ResolutionError(qname, qtype.name, "CNAME chain too long")

    def _resolve_one(
        self, qname: str, qtype: RRType, result: ResolutionResult, depth: int
    ) -> Optional[str]:
        """Resolve one name without alias-following.

        Returns a CNAME target if the caller must chase, else None with
        ``result`` updated in place.
        """
        # Cache first.
        cache = self.cache
        try:
            cached = cache.get(qname, qtype)
        except NegativeCacheHit as neg:
            result.rcode = RCode.NXDOMAIN if neg.nxdomain else RCode.NOERROR
            return None
        if cached:
            result.records.extend(cached)
            return None
        cached_cname = cache._peek((qname, RRType.CNAME))
        if cached_cname and qtype != RRType.CNAME:
            return cached_cname[0].rdata.target  # type: ignore[union-attr]

        server_ips = self._closest_known_servers(qname, depth)
        for _ in range(MAX_REFERRALS):
            response = self._query_any(server_ips, qname, qtype, depth)
            if response is None:
                self.stats.failures += 1
                raise ResolutionError(
                    qname,
                    qtype.name,
                    self._last_failure or "no reachable authoritative servers",
                )

            if response.rcode == RCode.NXDOMAIN:
                soa = self._first_soa(response)
                if soa is not None:
                    result.authority_soa = soa
                    cache._put_negative(
                        (qname, qtype), soa.rdata.minimum, nxdomain=True  # type: ignore[union-attr]
                    )
                result.rcode = RCode.NXDOMAIN
                return None
            if response.rcode != RCode.NOERROR:
                # REFUSED/SERVFAIL from this server set: treat as lame.
                self.stats.failures += 1
                raise ResolutionError(
                    qname, qtype.name, f"upstream rcode {response.rcode.name}"
                )

            answers = [r for r in response.answers if r.name == qname]
            typed = [r for r in answers if r.rrtype == qtype]
            if typed:
                cache._put((qname, qtype), typed)
                result.records.extend(typed)
                return None
            cnames = [r for r in answers if r.rrtype == RRType.CNAME]
            if cnames:
                # Cache every rrset in the answer section: authoritative
                # servers pre-chase in-bailiwick CNAME chains, and the chase
                # loop in _resolve_into then consumes them from cache.
                self._cache_answer_rrsets(response)
                return cnames[0].rdata.target  # type: ignore[union-attr]

            ns_records = response.records(RRType.NS, "authorities")
            if ns_records and not response.aa:
                self.stats.referrals += 1
                zone_cut = ns_records[0].name
                tel = self.telemetry
                if tel is not None:
                    tel.diag("dns.referrals")
                    tel.event("dns.referral", "dns", zone=zone_cut or ".")
                cache._put((zone_cut, RRType.NS), ns_records)
                for glue in response.additionals:
                    if glue.rrtype in (RRType.A, RRType.AAAA):
                        cache._put((glue.name, glue.rrtype), [glue])
                server_ips = self._addresses_for_ns(ns_records, response, depth)
                if not server_ips:
                    self.stats.failures += 1
                    raise ResolutionError(
                        qname, qtype.name, f"lame delegation at {zone_cut or '.'}"
                    )
                continue

            # Authoritative empty answer: NODATA.
            soa = self._first_soa(response)
            if soa is not None:
                result.authority_soa = soa
                cache._put_negative(
                    (qname, qtype), soa.rdata.minimum, nxdomain=False  # type: ignore[union-attr]
                )
            result.rcode = RCode.NOERROR
            return None

        self.stats.failures += 1
        raise ResolutionError(qname, qtype.name, "referral limit exceeded")

    def _cache_answer_rrsets(self, response: DnsMessage) -> None:
        """Cache every (name, type) rrset present in the answer section."""
        groups: dict[tuple[str, RRType], list[ResourceRecord]] = {}
        for rr in response.answers:
            groups.setdefault((rr.name, rr.rrtype), []).append(rr)
        for key, records in groups.items():
            self.cache._put(key, records)

    def _first_soa(self, response: DnsMessage) -> Optional[ResourceRecord]:
        for rr in response.authorities:
            if rr.rrtype == RRType.SOA and isinstance(rr.rdata, SOARecord):
                return rr
        return None

    def _query_any(
        self, server_ips: list[str], qname: str, qtype: RRType, depth: int = 0
    ) -> Optional[DnsMessage]:
        """Query the server set with bounded, clock-backed retries.

        Each round tries every IP once; a round fails only when *every*
        server timed out, answered SERVFAIL/REFUSED, truncated, or proved
        lame — so the number of rounds a query needs is independent of
        the IP iteration order. Failed rounds back off exponentially on
        the simulated clock; the whole query abandons once the policy's
        timeout budget of simulated seconds is spent. Returns the last
        SERVFAIL/REFUSED response when retries never found a healthy
        server (the caller surfaces the upstream rcode), or ``None`` when
        nothing answered at all.
        """
        policy = self.retry_policy
        start = self._clock.now()
        error_response: Optional[DnsMessage] = None
        self._last_failure = ""
        attempts_used = 1
        tel = self.telemetry
        for attempt in range(policy.max_attempts):
            attempts_used = attempt + 1
            if attempt:
                self.stats.retries += 1
                if tel is not None:
                    tel.diag("dns.retries")
                    tel.event(
                        "dns.retry",
                        "dns",
                        qname=qname,
                        round=attempts_used,
                        backoff=policy.backoff(attempt),
                    )
                self._clock.advance(policy.backoff(attempt))
            if self._clock.now() - start > policy.timeout_budget:
                self._last_failure = "query timeout budget exhausted"
                break
            for ip in server_ips:
                query = DnsMessage(
                    self._next_id(), questions=[_make_question(qname, qtype, RRClass.IN)]
                )
                try:
                    wire = self._network.send(
                        ip, query.to_wire(), self.region, attempt,
                        self.injector, self._clock,
                    )
                except ServerUnavailableError:
                    self._last_failure = "no reachable authoritative servers"
                    continue
                self.stats.queries += 1
                if tel is not None:
                    tel.diag("dns.queries")
                response = DnsMessage.from_wire(wire)
                if response.tc:
                    self._last_failure = "truncated response"
                    continue
                if response.rcode in (RCode.SERVFAIL, RCode.REFUSED):
                    error_response = response
                    self._last_failure = (
                        f"upstream rcode {response.rcode.name}"
                    )
                    continue
                if (
                    not response.aa
                    and not response.answers
                    and not response.authorities
                ):
                    self._last_failure = "lame response (no answer, no referral)"
                    continue
                self._count_attempts(attempts_used, depth)
                return response
        self._count_attempts(attempts_used, depth)
        return error_response

    def _count_attempts(self, attempts_used: int, depth: int) -> None:
        """Fold a query's round count into the current lookup's total.

        Only depth-0 queries count: glueless NS side-quests are shared
        infrastructure that a warm cache legitimately skips, and the
        reported ``attempts`` must not depend on cache state.
        """
        if depth == 0:
            self._lookup_attempts = max(self._lookup_attempts, attempts_used)

    def _closest_known_servers(self, qname: str, depth: int) -> list[str]:
        """Start from the deepest cached delegation covering ``qname``."""
        peek = self.cache._peek
        zone = qname
        while zone:  # the name, then each ancestor; the root is the hints
            ns_records = peek((zone, RRType.NS))
            if ns_records:
                ips = self._cached_ns_addresses(ns_records)
                if ips:
                    return ips
            zone = zone.partition(".")[2]
        return list(self._root_hints.values())

    def _cached_ns_addresses(self, ns_records: list[ResourceRecord]) -> list[str]:
        ips: list[str] = []
        for rr in ns_records:
            nsname = rr.rdata.nsdname  # type: ignore[union-attr]
            for cached in self.cache._peek((nsname, RRType.A)) or ():
                ips.append(cached.rdata.address)  # type: ignore[union-attr]
        return ips

    def _addresses_for_ns(
        self, ns_records: list[ResourceRecord], response: DnsMessage, depth: int
    ) -> list[str]:
        """Addresses for a referral's NS set: glue plus glueless lookups.

        Glue may cover only *some* of the NS set (a redundant zone on two
        providers gets glue only for the in-bailiwick one), so names without
        glue are still resolved — otherwise an outage of the glued provider
        would wrongly take out redundantly-provisioned zones.
        """
        ips: list[str] = []
        glue_names = set()
        for glue in response.additionals:
            if glue.rrtype == RRType.A:
                glue_names.add(glue.name)
                ips.append(glue.rdata.address)  # type: ignore[union-attr]
        unglued = [
            rr.rdata.nsdname  # type: ignore[union-attr]
            for rr in ns_records
            if rr.rdata.nsdname not in glue_names  # type: ignore[union-attr]
        ]
        if not unglued or depth >= MAX_GLUELESS_DEPTH:
            return ips
        for nsname in unglued:
            # Served by the cache after the first referral for this zone.
            cached = self.cache._peek((nsname, RRType.A))
            if cached is not None:
                ips.extend(rr.rdata.address for rr in cached)  # type: ignore[union-attr]
                continue
            self.stats.glueless_lookups += 1
            tel = self.telemetry
            span = (
                tel.span("dns.glueless", "dns", nsname=nsname)
                if tel is not None
                else NULL_SPAN
            )
            if tel is not None:
                tel.diag("dns.glueless_lookups")
            sub = ResolutionResult(nsname, RRType.A, RCode.NOERROR)
            with span as sp:
                try:
                    self._resolve_into(nsname, RRType.A, sub, depth + 1)
                except ResolutionError:
                    sp.set(failed=True)
                    continue
                sp.set(addresses=len(sub.records))
            ips.extend(
                rr2.rdata.address for rr2 in sub.records  # type: ignore[union-attr]
            )
        return ips
