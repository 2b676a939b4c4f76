"""The GlobalSign 2016 incident: erroneous mass revocation + caching.

A misconfigured OCSP responder marks every certificate revoked: here an
``ocsp_revoked`` fault rule on the client's vantage. Clients that fetched
a bad response cache it for its validity window, so websites stay broken
for those clients *after the CA fixes the responder* — the dynamic that
stretched the real incident to a week (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan, FaultRule
from repro.tlssim.validation import RevocationPolicy
from repro.worldgen.world import World


@dataclass
class RevocationIncidentResult:
    """Phased outcome of a mass-revocation incident."""

    ca_key: str
    # Domains denied while the responder was broken.
    denied_during: list[str] = field(default_factory=list)
    # Domains still denied (for the same client) after the fix, because the
    # bad response is cached and fresh.
    denied_after_fix_cached: list[str] = field(default_factory=list)
    # Domains recovered once the cached responses expired.
    recovered_after_expiry: list[str] = field(default_factory=list)
    unaffected_during: list[str] = field(default_factory=list)


def simulate_mass_revocation(
    world: World,
    ca_key: str,
    domains: list[str],
    response_lifetime_hint: float = 3 * 24 * 3600.0,
) -> RevocationIncidentResult:
    """Replay the incident over ``domains`` with one caching client.

    Uses hard-fail validation (the behaviour for which the incident was
    actually denial-of-service; soft-fail clients sail through). The
    client's vantage keeps its own clock and caches, so a replay on a
    world that already replayed one gives a fresh world's result.

    The broken responder is an ``ocsp_revoked`` rule windowed over every
    rank of the world: it is live while the client probes inside a
    site's context (the incident), and dormant outside any site context
    (after the fix), while the client keeps what it cached. Raises
    ValueError for a CA key the world does not have.
    """
    infra = world.ca_infra.get(ca_key)
    if infra is None:
        raise ValueError(f"no ca provider {ca_key!r} in this world")
    result = RevocationIncidentResult(ca_key=ca_key)
    revoke_all = FaultRule(
        name=f"{ca_key}-revokes-all",
        layer="tls",
        kind="ocsp_revoked",
        server=infra.ca.ocsp_responder.host,
        rank_window=(1, max(site.rank for site in world.spec.websites)),
    )
    vantage = world.vantage(
        policy=RevocationPolicy.HARD_FAIL,
        faults=FaultPlan(rules=(revoke_all,)),
    )
    injector = vantage.injector
    assert injector is not None
    client = vantage.web_client
    specs = world.spec.website_by_domain()

    def probe(domain: str) -> bool:
        spec = specs.get(domain)
        scheme = "https" if spec is not None and spec.https else "http"
        return client.get(f"{scheme}://www.{domain}/").ok

    for domain in domains:
        spec = specs.get(domain)
        injector.set_site(spec.rank if spec is not None else 1)
        if probe(domain):
            result.unaffected_during.append(domain)
        else:
            result.denied_during.append(domain)
    injector.clear_site()

    # Immediately after the fix: cached REVOKED responses still apply.
    for domain in result.denied_during:
        if not probe(domain):
            result.denied_after_fix_cached.append(domain)

    # After the response validity window passes, the same client recovers.
    vantage.clock.advance(response_lifetime_hint + 1)
    for domain in result.denied_after_fix_cached:
        if probe(domain):
            result.recovered_after_expiry.append(domain)
    return result
