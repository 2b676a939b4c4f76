"""Certificate authorities: issuance, revocation, and revocation services.

A :class:`CertificateAuthority` owns a root certificate, optionally issues
through an intermediate, runs an OCSP responder, and serves CRLs. The URLs
it stamps into certificates (AIA/CDP) point at hostnames the CA operates —
which may themselves sit behind third-party DNS or CDN providers, the
inter-service dependencies Section 5 of the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tlssim.certificate import (
    Certificate,
    CertificateChain,
    deterministic_serial,
)
from repro.tlssim.crl import CRLDistributionPoint
from repro.tlssim.ocsp import OCSPResponder

TEN_YEARS = 10 * 365 * 24 * 3600
ONE_YEAR = 365 * 24 * 3600


@dataclass
class IssuancePolicy:
    """Knobs applied to every certificate a CA issues."""

    validity: float = ONE_YEAR
    include_ocsp: bool = True
    include_crl: bool = True
    must_staple: bool = False


class CertificateAuthority:
    """A CA with a root, an optional intermediate, and revocation services.

    ``operator`` is the ground-truth owning organization (e.g. "digicert"),
    used to validate the classification heuristics. ``ocsp_host`` and
    ``crl_host`` are the service hostnames embedded in issued certificates.
    """

    def __init__(
        self,
        name: str,
        operator: str,
        ocsp_host: str,
        crl_host: str = "",
        use_intermediate: bool = True,
        policy: Optional[IssuancePolicy] = None,
        now: float = 0.0,
    ):
        self.name = name
        self.operator = operator
        self.ocsp_host = ocsp_host
        self.crl_host = crl_host or ocsp_host
        self.policy = policy or IssuancePolicy()
        self._revoked: set[int] = set()
        self._issued: dict[int, Certificate] = {}
        self._known_serials: set[int] = set()
        self._serial_index = 0

        root_subject = f"{name} root ca"
        self.root = Certificate(
            subject=root_subject,
            san=(),
            issuer_name=root_subject,
            serial=self._next_serial(root_subject),
            not_before=now,
            not_after=now + TEN_YEARS,
            is_ca=True,
            key_id=f"{name}-root-key",
            signature=f"sig:{name}-root-key",
        )
        self.intermediate: Optional[Certificate] = None
        if use_intermediate:
            self.intermediate = Certificate(
                subject=f"{name} intermediate ca",
                san=(),
                issuer_name=self.root.subject,
                serial=self._next_serial(f"{name} intermediate ca"),
                not_before=now,
                not_after=now + TEN_YEARS,
                is_ca=True,
                key_id=f"{name}-int-key",
                signature=f"sig:{self.root.key_id}",
                ocsp_urls=(self._ocsp_url(),),
            )
            self._register(self.intermediate)
        self._intermediates = (self.intermediate,) if self.intermediate else ()

        self.ocsp_responder = OCSPResponder(
            responder_name=f"{name} ocsp",
            revoked_serials=self._revoked,
            known_serials=self._known_serials,
            host=self.ocsp_host,
        )
        self.cdp = CRLDistributionPoint(
            url=self._crl_url(), issuer_name=self._issuer_subject()
        )
        self.cdp.bind(self._revoked)

    # -- URL helpers ---------------------------------------------------------

    def _ocsp_url(self) -> str:
        return f"http://{self.ocsp_host}/ocsp"

    def _crl_url(self) -> str:
        return f"http://{self.crl_host}/crl/{self.name.replace(' ', '-')}.crl"

    def _issuer_subject(self) -> str:
        return (self.intermediate or self.root).subject

    def _issuer_key(self) -> str:
        return (self.intermediate or self.root).key_id

    def _next_serial(self, subject: str) -> int:
        # Serials feed fault-injection draws and appear in traces, so
        # they are derived from this CA's own issuance sequence — never
        # from process-global state.
        self._serial_index += 1
        return deterministic_serial(self.name, subject, self._serial_index)

    def _register(self, cert: Certificate) -> None:
        self._issued[cert.serial] = cert
        self._known_serials.add(cert.serial)

    # -- issuance --------------------------------------------------------------

    def issue(
        self,
        subject: str,
        san: tuple[str, ...],
        now: float,
        validity: Optional[float] = None,
        must_staple: Optional[bool] = None,
    ) -> Certificate:
        """Issue an end-entity certificate."""
        if not san:
            raise ValueError("a server certificate needs at least one SAN")
        cert = Certificate(
            subject=subject,
            san=san,
            issuer_name=self._issuer_subject(),
            serial=self._next_serial(subject),
            not_before=now,
            not_after=now + (validity or self.policy.validity),
            ocsp_urls=(self._ocsp_url(),) if self.policy.include_ocsp else (),
            crl_urls=(self._crl_url(),) if self.policy.include_crl else (),
            signature=f"sig:{self._issuer_key()}",
            must_staple=(
                self.policy.must_staple if must_staple is None else must_staple
            ),
        )
        self._register(cert)
        return cert

    def chain_for(self, cert: Certificate) -> CertificateChain:
        """The presentation chain (leaf + intermediate) for a handshake."""
        return CertificateChain(leaf=cert, intermediates=self._intermediates)

    # -- revocation --------------------------------------------------------------

    def revoke(self, serial: int) -> None:
        """Mark an issued certificate revoked (OCSP and CRL see it live)."""
        if serial not in self._issued:
            raise ValueError(f"serial {serial} was not issued by {self.name}")
        self._revoked.add(serial)

    def unrevoke(self, serial: int) -> None:
        """Clear a revocation (e.g. after an erroneous mass-revocation)."""
        self._revoked.discard(serial)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    def issued_certificates(self) -> list[Certificate]:
        return list(self._issued.values())

    def __repr__(self) -> str:
        return f"CertificateAuthority({self.name!r}, issued={len(self._issued)})"
