"""Certificate Revocation Lists and their distribution points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.injector import FaultInjector


@dataclass
class CertificateRevocationList:
    """A CRL: the issuer's set of revoked serials with a validity window."""

    issuer_name: str
    this_update: float
    next_update: float
    revoked_serials: frozenset[int] = frozenset()

    def is_fresh_at(self, timestamp: float) -> bool:
        return self.this_update <= timestamp <= self.next_update

    def is_revoked(self, serial: int) -> bool:
        return serial in self.revoked_serials


@dataclass
class CRLDistributionPoint:
    """A CDP endpoint serving the issuing CA's CRL.

    The hostname in ``url`` is what the paper's CA→DNS / CA→CDN dependency
    measurements classify, and what keys the endpoint's fault draws.
    """

    url: str
    issuer_name: str
    _revoked: set[int] = field(default_factory=set)
    crl_lifetime: float = 7 * 24 * 3600

    def bind(self, revoked_serials: set[int]) -> None:
        """Share the CA's live revocation set."""
        self._revoked = revoked_serials

    @property
    def host(self) -> str:
        return self.url.split("://", 1)[-1].split("/", 1)[0]

    def current_crl(
        self, now: float, injector: Optional[FaultInjector] = None
    ) -> CertificateRevocationList:
        """Produce the CRL as of ``now``.

        When the asking vantage's ``injector`` fires a ``crl_stale``
        rule, the CRL's validity window already ended — the "nobody
        re-signed the CRL" failure.
        """
        if injector is not None:
            rule = injector.tls_fault("crl_stale", self.host, 0)
            if rule is not None:
                return CertificateRevocationList(
                    issuer_name=self.issuer_name,
                    this_update=now - self.crl_lifetime - 2,
                    next_update=now - 1,
                    revoked_serials=frozenset(self._revoked),
                )
        return CertificateRevocationList(
            issuer_name=self.issuer_name,
            this_update=now,
            next_update=now + self.crl_lifetime,
            revoked_serials=frozenset(self._revoked),
        )
