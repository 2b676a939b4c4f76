"""A dig-like client: the query surface the measurement pipeline uses.

The paper's scripts shell out to ``dig`` for NS, SOA and CNAME lookups;
:class:`DigClient` provides those exact operations over the simulator,
including the real-world wrinkle that the SOA of a hostname usually comes
back in the *authority* section of a NODATA response.

Every public operation also leaves a :class:`LookupStatus` in
``last_status`` — how many query rounds the worst step needed and the
first operational failure encountered — which is how measurement records
learn their ``attempts``/``failure_mode`` fields without the client
changing its (error-swallowing) return conventions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.dnssim.errors import ResolutionError
from repro.dnssim.records import RRType, SOARecord
from repro.dnssim.resolver import IterativeResolver, ResolutionResult
from repro.names.normalize import ancestors, normalize


@dataclass
class LookupStatus:
    """Robustness facts about the most recent dig operation."""

    attempts: int = 1
    failure: str = ""

    @property
    def degraded(self) -> bool:
        return bool(self.failure)


class DigClient:
    """Measurement-facing DNS client built on an iterative resolver."""

    def __init__(self, resolver: IterativeResolver):
        self._resolver = resolver
        self.last_status = LookupStatus()
        self._tracking_depth = 0

    @property
    def resolver(self) -> IterativeResolver:
        return self._resolver

    @contextmanager
    def _tracking(self) -> Iterator[None]:
        """Reset ``last_status`` for an outermost public operation only,
        so operations built on other operations aggregate one status."""
        if self._tracking_depth == 0:
            self.last_status = LookupStatus()
        self._tracking_depth += 1
        try:
            yield
        finally:
            self._tracking_depth -= 1

    def _lookup(self, qname: str, qtype: RRType) -> ResolutionResult:
        """Resolve and fold the outcome into ``last_status``."""
        try:
            result = self._resolver.lookup(qname, qtype)
        except ResolutionError as exc:
            self.last_status.attempts = max(
                self.last_status.attempts, exc.attempts
            )
            if not self.last_status.failure:
                self.last_status.failure = f"dns: {exc.reason}"
            raise
        self.last_status.attempts = max(
            self.last_status.attempts, result.attempts
        )
        return result

    def query(self, qname: str, qtype: RRType) -> ResolutionResult:
        """Raw lookup (no raising on NXDOMAIN)."""
        with self._tracking():
            return self._lookup(qname, qtype)

    def ns(self, domain: str) -> list[str]:
        """The authoritative nameserver hostnames of ``domain``.

        Mirrors ``dig NS <domain>``: returns the NS rrset of the domain's
        own zone, or of the enclosing zone when the name is a hostname
        below a cut. Empty list when resolution fails entirely.
        """
        with self._tracking():
            try:
                result = self._lookup(domain, RRType.NS)
            except ResolutionError:
                return []
            if result.records:
                return sorted(
                    rr.rdata.nsdname for rr in result.records  # type: ignore[union-attr]
                )
            # NODATA/NXDOMAIN: walk up to the enclosing zone.
            for parent in ancestors(domain):
                try:
                    result = self._lookup(parent, RRType.NS)
                except ResolutionError:
                    return []
                if result.records:
                    return sorted(
                        rr.rdata.nsdname for rr in result.records  # type: ignore[union-attr]
                    )
            return []

    def soa(self, name: str) -> Optional[SOARecord]:
        """The SOA governing ``name`` — ``dig SOA`` semantics.

        A direct answer wins; otherwise the authority-section SOA of a
        NODATA/NXDOMAIN response is used; otherwise parents are walked.
        """
        with self._tracking():
            try:
                result = self._lookup(name, RRType.SOA)
            except ResolutionError:
                return None
            if result.records:
                rdata = result.records[0].rdata
                return rdata if isinstance(rdata, SOARecord) else None
            if result.authority_soa is not None:
                rdata = result.authority_soa.rdata
                return rdata if isinstance(rdata, SOARecord) else None
            for parent in ancestors(name):
                try:
                    parent_result = self._lookup(parent, RRType.SOA)
                except ResolutionError:
                    return None
                if parent_result.records:
                    rdata = parent_result.records[0].rdata
                    return rdata if isinstance(rdata, SOARecord) else None
                if parent_result.authority_soa is not None:
                    rdata = parent_result.authority_soa.rdata
                    return rdata if isinstance(rdata, SOARecord) else None
            return None

    def cname(self, hostname: str) -> Optional[str]:
        """The immediate CNAME target of ``hostname`` (or None)."""
        with self._tracking():
            try:
                result = self._lookup(hostname, RRType.CNAME)
            except ResolutionError:
                return None
            for rr in result.records:
                if rr.rrtype == RRType.CNAME:
                    return rr.rdata.target  # type: ignore[union-attr]
            return None

    def cname_chain(self, hostname: str) -> list[str]:
        """The full alias chain starting at ``hostname`` (may be empty).

        Resolves A for the hostname and reports every CNAME traversed, the
        way the paper extracts CDN CNAMEs from resource hostnames.
        """
        with self._tracking():
            try:
                result = self._lookup(hostname, RRType.A)
            except ResolutionError:
                # Fall back to explicit CNAME hops when unresolvable.
                chain: list[str] = []
                current = normalize(hostname)
                for _ in range(16):
                    target = self.cname(current)
                    if target is None or target in chain:
                        break
                    chain.append(target)
                    current = target
                return chain
            return list(result.cname_chain)

    def a(self, hostname: str) -> list[str]:
        """IPv4 addresses of ``hostname`` (empty when unresolvable)."""
        with self._tracking():
            try:
                result = self._lookup(hostname, RRType.A)
            except ResolutionError:
                return []
            return [
                rr.rdata.address  # type: ignore[union-attr]
                for rr in result.records
                if rr.rrtype == RRType.A
            ]

    def is_resolvable(self, hostname: str) -> bool:
        """Whether an A lookup currently succeeds — the availability probe
        used by outage experiments."""
        with self._tracking():
            try:
                result = self._lookup(hostname, RRType.A)
            except ResolutionError:
                return False
            return bool(result.records)
