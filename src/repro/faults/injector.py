"""The runtime half of fault injection: match events against a plan.

A :class:`FaultInjector` is installed into the simulators (DNS network,
HTTP fabric, OCSP responders, CRL distribution points) and consulted on
every relevant event. Decisions are *stateless*: each one is a pure
draw keyed by ``(rule name, layer, server, name, attempt, ...)`` from
the plan's :class:`~repro.faults.prng.SeededFaultSource`, so repeating
an event — from a cold cache, a different worker, or a resumed run —
repeats the decision exactly.

``set_site`` gives the injector the rank of the site currently being
measured; rules with a ``rank_window`` are live only inside their
window, which expresses schedules in a unit (site rank) that shards
identically across workers. Outside any site context (the inter-service
pass, ad-hoc probes), windowed rules are inactive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.prng import SeededFaultSource

if TYPE_CHECKING:
    from repro.telemetry import Telemetry


class FaultInjector:
    """Matches simulator events against a plan's rules."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._source = SeededFaultSource(plan.seed)
        self._dns_rules = plan.rules_for("dns")
        self._web_rules = plan.rules_for("web")
        self._tls_rules = plan.rules_for("tls")
        self._site_rank: Optional[int] = None
        # Observability hook; None keeps the hot path to one attr check.
        # Draw/fire counts are vantage-local diagnostics — how often a
        # hook is consulted depends on cache warmth, so they never enter
        # the shard-stable campaign registry.
        self.telemetry: Optional["Telemetry"] = None

    # -- site context ------------------------------------------------------

    def set_site(self, rank: int) -> None:
        """Enter a site's measurement (activates rank-window rules)."""
        self._site_rank = rank

    def clear_site(self) -> None:
        """Leave site context (rank-window rules go dormant)."""
        self._site_rank = None

    # -- decision core -----------------------------------------------------

    def _live(self, rule: FaultRule) -> bool:
        if rule.rank_window is None:
            return True
        if self._site_rank is None:
            return False
        lo, hi = rule.rank_window
        return lo <= self._site_rank <= hi

    def _fires(self, rule: FaultRule, *key: object) -> bool:
        tel = self.telemetry
        if tel is not None:
            tel.diag("faults.draws", rule=rule.name)
        if rule.probability >= 1.0:
            fired = True
        elif rule.probability <= 0.0:
            fired = False
        else:
            fired = self._source.unit(rule.name, *key) < rule.probability
        if fired and tel is not None:
            tel.diag("faults.fires", rule=rule.name)
            tel.event(
                "fault.fire", "faults", rule=rule.name, kind=rule.kind
            )
        return fired

    # -- layer hooks -------------------------------------------------------

    def dns_fault(
        self,
        server_name: str,
        ip: str,
        qname: str,
        qtype: str,
        attempt: int,
    ) -> Optional[FaultRule]:
        """The first live DNS rule firing for this query, if any."""
        for rule in self._dns_rules:
            if (
                self._live(rule)
                and rule.matches_server(server_name)
                and rule.matches_name(qname)
                and self._fires(rule, "dns", server_name, ip, qname, qtype, attempt)
            ):
                return rule
        return None

    def web_connect_fault(
        self, server_name: str, ip: str, host: str, attempt: int
    ) -> Optional[FaultRule]:
        """A ``timeout`` rule firing for this TCP connect, if any."""
        for rule in self._web_rules:
            if (
                rule.kind == "timeout"
                and self._live(rule)
                and rule.matches_server(server_name)
                and rule.matches_name(host)
                and self._fires(rule, "web", server_name, ip, host, attempt)
            ):
                return rule
        return None

    def web_request_fault(
        self, server_name: str, host: str, path: str, attempt: int
    ) -> Optional[FaultRule]:
        """An ``http_error`` rule firing for this request, if any."""
        for rule in self._web_rules:
            if (
                rule.kind == "http_error"
                and self._live(rule)
                and rule.matches_server(server_name)
                and rule.matches_name(host)
                and self._fires(rule, "web", server_name, host, path, attempt)
            ):
                return rule
        return None

    def tls_fault(
        self, kind: str, responder_name: str, serial: int
    ) -> Optional[FaultRule]:
        """A TLS rule of ``kind`` firing at this responder, if any."""
        for rule in self._tls_rules:
            if (
                rule.kind == kind
                and self._live(rule)
                and rule.matches_server(responder_name)
                and self._fires(rule, "tls", kind, responder_name, serial)
            ):
                return rule
        return None
