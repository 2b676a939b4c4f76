"""PKI substrate: certificates, CAs, OCSP, CRLs, revocation checking.

Replaces the paper's OpenSSL-based pipeline. Certificates carry the exact
fields the Section 3 heuristics read — the SAN list, the OCSP responder URL
(AIA) and the CRL distribution points — and web servers can staple OCSP
responses, which is how the paper defines *non*-critical dependency on a CA.

The GlobalSign-style failure mode is expressible too: a vantage's
``ocsp_revoked`` fault rule makes an OCSP responder answer it REVOKED for
valid serials, and responses carry validity windows so caching extends
incidents exactly as Section 2 recounts.
"""

from repro.tlssim.errors import (
    CertificateExpiredError,
    CertificateVerificationError,
    HostnameMismatchError,
    RevocationCheckError,
    RevokedCertificateError,
    TlsError,
    UntrustedIssuerError,
)
from repro.tlssim.certificate import Certificate, CertificateChain
from repro.tlssim.ca import CertificateAuthority
from repro.tlssim.ocsp import CertStatus, OCSPResponder, OCSPResponse
from repro.tlssim.crl import CertificateRevocationList, CRLDistributionPoint
from repro.tlssim.validation import (
    RevocationPolicy,
    TrustStore,
    ValidationReport,
    validate_certificate,
)

__all__ = [
    "CRLDistributionPoint",
    "Certificate",
    "CertificateAuthority",
    "CertificateChain",
    "CertificateExpiredError",
    "CertificateRevocationList",
    "CertificateVerificationError",
    "CertStatus",
    "HostnameMismatchError",
    "OCSPResponder",
    "OCSPResponse",
    "RevocationCheckError",
    "RevocationPolicy",
    "RevokedCertificateError",
    "TlsError",
    "TrustStore",
    "UntrustedIssuerError",
    "ValidationReport",
    "validate_certificate",
]
