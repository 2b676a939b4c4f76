"""X.509-style certificates (the fields measurement reads, faithfully).

A :class:`Certificate` models exactly what the paper's pipeline extracts
with OpenSSL: subject, SAN list, issuer identity, validity window, the AIA
OCSP responder URLs and the CRL distribution point URLs, plus whether the
certificate is a CA certificate. Signatures are modelled as an issuer
reference + signature tag rather than actual cryptography — chain and
revocation *logic* is what the study exercises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.names.normalize import normalize
from repro.names.registrable import matches_san_entry

def deterministic_serial(issuer: str, subject: str, index: int) -> int:
    """Derive a stable serial from the issuance context.

    Hashing ``(issuer, subject, per-issuer issuance index)`` yields a
    63-bit serial that is identical for the same issuance in any process,
    worker, or resumed run, and collision-free across CAs in practice —
    required because the client OCSP cache keys responses by serial alone.
    """
    payload = "\x1f".join((issuer, subject, str(index))).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Certificate:
    """An issued certificate.

    ``issuer_name`` is the CA's distinguished name; ``signature`` binds the
    certificate to the issuing CA's key identity (checked during chain
    validation). ``ocsp_urls``/``crl_urls`` are full ``http://host/path``
    URLs, as in real AIA and CDP extensions.
    """

    subject: str
    san: tuple[str, ...]
    issuer_name: str
    serial: int
    not_before: float
    not_after: float
    is_ca: bool = False
    ocsp_urls: tuple[str, ...] = ()
    crl_urls: tuple[str, ...] = ()
    key_id: str = ""
    signature: str = ""
    must_staple: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject", normalize(self.subject))
        object.__setattr__(self, "issuer_name", normalize(self.issuer_name))
        object.__setattr__(self, "san", tuple(normalize(s) for s in self.san))
        if self.not_after <= self.not_before:
            raise ValueError("certificate validity window is empty")

    def matches_hostname(self, hostname: str) -> bool:
        """RFC 6125 name check against the SAN list (subject is ignored
        when SANs are present, as modern validators do)."""
        hostname = normalize(hostname)
        entries = self.san if self.san else (self.subject,)
        return any(matches_san_entry(hostname, entry) for entry in entries)

    def is_valid_at(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside the validity window."""
        return self.not_before <= timestamp <= self.not_after

    @property
    def is_self_signed(self) -> bool:
        return self.issuer_name == self.subject

    def __str__(self) -> str:
        kind = "CA" if self.is_ca else "EE"
        return f"<{kind} cert {self.subject} #{self.serial} by {self.issuer_name}>"


@dataclass
class CertificateChain:
    """A leaf certificate plus intermediates, as presented in a handshake.

    A CA hands every chain it builds the same ``intermediates`` tuple."""

    leaf: Certificate
    intermediates: tuple[Certificate, ...] = ()

    def __post_init__(self) -> None:
        self.intermediates = tuple(self.intermediates)

    def all_certificates(self) -> list[Certificate]:
        return [self.leaf, *self.intermediates]

    def issuer_of(self, cert: Certificate) -> Optional[Certificate]:
        """The chain member whose subject matches ``cert``'s issuer."""
        for candidate in self.intermediates:
            if candidate.subject == cert.issuer_name and candidate.is_ca:
                return candidate
        return None

    def __len__(self) -> int:
        return 1 + len(self.intermediates)
