"""DNS substrate: an in-process simulation of the authoritative DNS.

This package replaces the live DNS the paper measures with ``dig``. It
implements the pieces a measurement study touches end to end:

* resource records and RRsets (:mod:`repro.dnssim.records`),
* the RFC 1035 wire format with name compression (:mod:`repro.dnssim.message`),
* authoritative zones with delegations and glue (:mod:`repro.dnssim.zone`),
* authoritative server behaviour — answers, referrals, NXDOMAIN
  (:mod:`repro.dnssim.server`),
* a network fabric routing queries to server IPs, where a sender's fault
  injector drops or perturbs its queries (:mod:`repro.dnssim.network`),
* an iterative resolver with TTL caching and CNAME chasing
  (:mod:`repro.dnssim.resolver`),
* a dig-like convenience client (:mod:`repro.dnssim.client`).

Measurement code issues the same queries the paper's scripts issue (NS, SOA,
CNAME, A) and consumes identical record shapes, so the Section 3 heuristics
run unchanged over this substrate.
"""

from repro.dnssim.clock import SimulatedClock
from repro.dnssim.errors import (
    DnsError,
    MessageFormatError,
    NoSuchDomainError,
    ResolutionError,
    ServerUnavailableError,
)
from repro.dnssim.records import (
    ARecord,
    AAAARecord,
    CNAMERecord,
    MXRecord,
    NSRecord,
    RRClass,
    RRType,
    ResourceRecord,
    SOARecord,
    TXTRecord,
)
from repro.dnssim.message import DnsMessage, Question, RCode
from repro.dnssim.zone import Zone, ZoneError
from repro.dnssim.server import AuthoritativeServer
from repro.dnssim.network import DnsNetwork
from repro.dnssim.cache import DnsCache
from repro.dnssim.resolver import IterativeResolver, ResolverStats
from repro.dnssim.client import DigClient

__all__ = [
    "AAAARecord",
    "ARecord",
    "AuthoritativeServer",
    "CNAMERecord",
    "DigClient",
    "DnsCache",
    "DnsError",
    "DnsMessage",
    "DnsNetwork",
    "IterativeResolver",
    "MXRecord",
    "MessageFormatError",
    "NSRecord",
    "NoSuchDomainError",
    "Question",
    "RCode",
    "RRClass",
    "RRType",
    "ResolutionError",
    "ResolverStats",
    "ResourceRecord",
    "SOARecord",
    "ServerUnavailableError",
    "SimulatedClock",
    "TXTRecord",
    "Zone",
    "ZoneError",
]
