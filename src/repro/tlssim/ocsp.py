"""OCSP: responders, responses, and response caching semantics.

The GlobalSign 2016 incident (Section 2 of the paper) is a first-class
scenario here: a vantage whose fault plan fires an ``ocsp_revoked``
rule at a responder is told that good certificates are revoked, and
because responses carry ``next_update`` validity, clients that cache
them keep failing after the responder is fixed — the exact dynamics
that stretched the incident to a week.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.faults.injector import FaultInjector

DEFAULT_RESPONSE_LIFETIME = 3 * 24 * 3600  # three days, a common OCSP window


class CertStatus(enum.Enum):
    """OCSP certificate status values."""

    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OCSPResponse:
    """A signed OCSP response for one certificate serial."""

    serial: int
    status: CertStatus
    produced_at: float
    this_update: float
    next_update: float
    responder_name: str

    def is_fresh_at(self, timestamp: float) -> bool:
        """Whether a client may rely on this response at ``timestamp``."""
        return self.this_update <= timestamp <= self.next_update


class OCSPResponder:
    """A CA's OCSP service. ``host`` is the service hostname the
    responder answers on, which keys its fault draws."""

    def __init__(
        self,
        responder_name: str,
        revoked_serials: set[int],
        known_serials: set[int],
        host: str,
        response_lifetime: float = DEFAULT_RESPONSE_LIFETIME,
    ):
        self.responder_name = responder_name
        self._revoked = revoked_serials  # shared live with the CA
        self._known = known_serials      # shared live with the CA
        self.response_lifetime = response_lifetime
        self.host = host

    def status_of(
        self,
        serial: int,
        now: float,
        injector: Optional[FaultInjector] = None,
    ) -> OCSPResponse:
        """Produce a response for ``serial`` as of time ``now``.

        When the asking vantage's ``injector`` fires an ``ocsp_revoked``
        rule, the status is REVOKED whatever the truth (the GlobalSign
        failure). When it fires an ``ocsp_expired`` rule, the response's
        validity window already ended — the "responder is up but its
        signer broke" failure mode.
        """
        if serial in self._revoked:
            status = CertStatus.REVOKED
        elif serial in self._known:
            status = CertStatus.GOOD
        else:
            status = CertStatus.UNKNOWN
        if injector is not None:
            if injector.tls_fault("ocsp_revoked", self.host, serial) is not None:
                status = CertStatus.REVOKED
            rule = injector.tls_fault("ocsp_expired", self.host, serial)
            if rule is not None:
                return OCSPResponse(
                    serial=serial,
                    status=status,
                    produced_at=now - self.response_lifetime - 2,
                    this_update=now - self.response_lifetime - 2,
                    next_update=now - 1,
                    responder_name=self.responder_name,
                )
        return OCSPResponse(
            serial=serial,
            status=status,
            produced_at=now,
            this_update=now,
            next_update=now + self.response_lifetime,
            responder_name=self.responder_name,
        )


class OCSPResponseCache:
    """Client-side cache of OCSP responses keyed by serial.

    Honors ``next_update`` — including for wrong (misconfigured) responses,
    which is what makes revocation incidents sticky.
    """

    def __init__(self) -> None:
        self._responses: dict[int, OCSPResponse] = {}
        self.hits = 0
        self.misses = 0

    def get(self, serial: int, now: float) -> Optional[OCSPResponse]:
        response = self._responses.get(serial)
        if response is not None and response.is_fresh_at(now):
            self.hits += 1
            return response
        if response is not None:
            del self._responses[serial]
        self.misses += 1
        return None

    def put(self, response: OCSPResponse) -> None:
        self._responses[response.serial] = response

    def flush(self) -> None:
        self._responses.clear()

    def __len__(self) -> int:
        return len(self._responses)
