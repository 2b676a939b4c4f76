"""Registrable-domain helpers — the paper's ``tld()`` operator.

Throughout Section 3 the paper compares "TLDs" of hostnames, meaning the
registrable domain under the Public Suffix List (``tld(ns1.dynect.net) ==
"dynect.net"``). These helpers wrap :class:`repro.names.psl.PublicSuffixList`
with the default snapshot, while allowing an explicit PSL for testing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.names.normalize import normalize, split_labels
from repro.names.psl import PublicSuffixList, default_psl


def public_suffix(name: str, psl: Optional[PublicSuffixList] = None) -> Optional[str]:
    """Public suffix of ``name`` (e.g. ``co.uk`` for ``www.bbc.co.uk``)."""
    return (psl or default_psl()).public_suffix(name)


def registrable_domain(name: str, psl: Optional[PublicSuffixList] = None) -> Optional[str]:
    """Registrable domain (eTLD+1) of ``name``, or None for bare suffixes.

    >>> registrable_domain("ns1.dynect.net")
    'dynect.net'
    """
    return (psl or default_psl()).registrable_domain(name)


def tld(name: str, psl: Optional[PublicSuffixList] = None) -> Optional[str]:
    """The paper's ``tld()``: alias of :func:`registrable_domain`."""
    return registrable_domain(name, psl)


#: Name → registrable domain: plain :func:`registrable_domain`, or an
#: analysis call's :func:`registrable_memo`.
BaseOf = Callable[[str], Optional[str]]


class _RegistrableMemo(dict[str, Optional[str]]):
    def __missing__(self, name: str) -> Optional[str]:
        base = self[name] = registrable_domain(name)
        return base


def registrable_memo() -> BaseOf:
    """A :func:`registrable_domain` that derives each name once.

    The memo lives exactly as long as the returned function: an analysis
    makes one per call and drops it on return, so no result outlives a
    change to the PSL and every call does the same work.

    >>> base_of = registrable_memo()
    >>> base_of("ns1.dynect.net"), base_of("ns1.dynect.net")
    ('dynect.net', 'dynect.net')
    """
    return _RegistrableMemo().__getitem__


def same_registrable_domain(
    a: str, b: str, psl: Optional[PublicSuffixList] = None
) -> bool:
    """Whether two hostnames share a registrable domain.

    Returns False when either side has no registrable domain (bare public
    suffix or empty name) unless both normalize to the identical name.
    """
    na, nb = normalize(a), normalize(b)
    if na and na == nb:
        return True
    ra = registrable_domain(na, psl)
    rb = registrable_domain(nb, psl)
    if ra is None or rb is None:
        return False
    return ra == rb


def is_subdomain_of(name: str, ancestor: str) -> bool:
    """Whether ``name`` equals or is beneath ``ancestor``.

    >>> is_subdomain_of("a.b.example.com", "example.com")
    True
    >>> is_subdomain_of("example.com", "example.com")
    True
    >>> is_subdomain_of("badexample.com", "example.com")
    False
    """
    name_labels = split_labels(name)
    anc_labels = split_labels(ancestor)
    if not anc_labels or len(name_labels) < len(anc_labels):
        return False
    return name_labels[len(name_labels) - len(anc_labels):] == anc_labels


def matches_san_entry(hostname: str, san: str) -> bool:
    """Whether ``hostname`` is covered by certificate SAN entry ``san``.

    Supports a single leftmost wildcard label, matching exactly one label
    (RFC 6125 semantics).

    >>> matches_san_entry("www.example.com", "*.example.com")
    True
    >>> matches_san_entry("a.b.example.com", "*.example.com")
    False
    """
    hostname = normalize(hostname)
    san = normalize(san)
    if san == hostname:
        return True
    if san.startswith("*."):
        suffix = san[2:]
        host_labels = split_labels(hostname)
        if len(host_labels) >= 2 and ".".join(host_labels[1:]) == suffix:
            return True
    return False
