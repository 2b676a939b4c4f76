"""CDN mechanics: edge hostnames, customer deployments, proxying.

A :class:`CdnProvider` owns one or more CNAME suffixes (``*.examplecdn.net``
style), an edge :class:`~repro.websim.http.HttpServer`, and customer
deployments. Customers point their hostnames at allocated edge names via
CNAME (wired into zones by the world generator) — the exact structure the
paper's CNAME-to-CDN detection keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.names.normalize import normalize
from repro.tlssim.ca import CertificateAuthority
from repro.tlssim.certificate import CertificateChain
from repro.websim.http import HttpServer, VhostKind, VirtualHost


@dataclass
class CdnDeployment:
    """One customer's presence on a CDN."""

    label: str
    edge_hostname: str
    customer_hostnames: tuple[str, ...] = ()


class CdnProvider:
    """A content delivery network with allocatable edge hostnames."""

    def __init__(
        self,
        name: str,
        operator: str,
        cname_suffixes: list[str],
        edge_server: HttpServer,
    ):
        if not cname_suffixes:
            raise ValueError("a CDN needs at least one CNAME suffix")
        self.name = name
        self.operator = operator
        self.cname_suffixes = [normalize(s) for s in cname_suffixes]
        self.edge_server = edge_server
        self.deployments: list[CdnDeployment] = []

    @property
    def primary_suffix(self) -> str:
        return self.cname_suffixes[0]

    def edge_hostname_for(self, label: str) -> str:
        """The edge name a customer's CNAME should target."""
        return f"{normalize(label)}.{self.primary_suffix}"

    def serves_cname(self, cname: str) -> bool:
        """Whether ``cname`` is one of this CDN's edge names."""
        cname = normalize(cname)
        return any(
            cname == suffix or cname.endswith("." + suffix)
            for suffix in self.cname_suffixes
        )

    def deploy(
        self,
        label: str,
        customer_hostnames: Iterable[str],
        chain: Optional[CertificateChain] = None,
        ca: Optional[CertificateAuthority] = None,
    ) -> CdnDeployment:
        """Onboard a customer: allocate an edge name and serve their hosts.

        The edge server answers for the customer-facing hostnames (that is
        what SNI carries after the CNAME is followed) and for the edge name
        itself. ``chain`` is the certificate presented for those names. A
        ``ca`` customer's names serve its OCSP and CRL endpoints; any
        other customer's serve cached objects.
        """
        deployment = CdnDeployment(
            label=normalize(label),
            edge_hostname=self.edge_hostname_for(label),
            customer_hostnames=tuple(normalize(h) for h in customer_hostnames),
        )
        kind: VhostKind = "edge" if ca is None else "revocation"
        for hostname in [*deployment.customer_hostnames, deployment.edge_hostname]:
            self.edge_server.add_vhost(
                VirtualHost(
                    hostname, kind, owner=self.name, ca=ca, chain=chain
                )
            )
        self.deployments.append(deployment)
        return deployment

    def __repr__(self) -> str:
        return (
            f"CdnProvider({self.name!r}, suffixes={self.cname_suffixes}, "
            f"customers={len(self.deployments)})"
        )

