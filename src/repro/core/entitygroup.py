"""Grouping nameservers into operating entities (Section 3.1).

Redundancy requires providers from *different* entities: alicdn.com and
alibabadns.com nameservers are one entity because they share an SOA MNAME.
Two nameservers belong together when they share a registrable domain, an
SOA RNAME (administrator mailbox), or an SOA MNAME (primary master).
"""

from __future__ import annotations

from typing import Optional

from repro.measurement.records import SoaIdentity
from repro.names.registrable import BaseOf, registrable_domain


class _UnionFind:
    def __init__(self, items: list[str]):
        self._parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def group_nameservers_by_entity(
    nameservers: list[str],
    soas: dict[str, Optional[SoaIdentity]],
    base_of: BaseOf = registrable_domain,
) -> list[list[str]]:
    """Partition nameservers into same-entity groups.

    ``base_of`` derives a name's registrable domain (an analysis passes
    its per-call :func:`~repro.names.registrable.registrable_memo`).

    >>> from repro.measurement.records import SoaIdentity
    >>> soa = SoaIdentity("ns1.alibabadns.com", "admin.alibabadns.com")
    >>> group_nameservers_by_entity(
    ...     ["ns1.alicdn.com", "ns1.alibabadns.com"],
    ...     {"ns1.alicdn.com": soa, "ns1.alibabadns.com": soa},
    ... )
    [['ns1.alicdn.com', 'ns1.alibabadns.com']]
    """
    if not nameservers:
        return []
    uf = _UnionFind(list(nameservers))
    for i, a in enumerate(nameservers):
        for b in nameservers[i + 1:]:
            if _same_entity(a, b, soas.get(a), soas.get(b), base_of):
                uf.union(a, b)
    groups: dict[str, list[str]] = {}
    for ns in nameservers:
        groups.setdefault(uf.find(ns), []).append(ns)
    return sorted(groups.values(), key=lambda g: g[0])


def _same_entity(
    a: str,
    b: str,
    soa_a: Optional[SoaIdentity],
    soa_b: Optional[SoaIdentity],
    base_of: BaseOf,
) -> bool:
    if base_of(a) == base_of(b):
        return True
    if soa_a is None or soa_b is None:
        return False
    return soa_a.rname == soa_b.rname or soa_a.mname == soa_b.mname


def provider_id_for(
    group: list[str], base_of: BaseOf = registrable_domain
) -> str:
    """A stable measured identity for an entity group: the lexicographically
    smallest registrable domain among its nameservers."""
    bases = sorted(base_of(ns) or ns for ns in group)
    return bases[0] if bases else ""
