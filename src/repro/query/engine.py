"""The long-lived query engine over a compiled store.

Every public method returns a plain-dict payload assembled from the
store's precomputed indices — ranked provider tables, per-site
dependency lookups, reverse provider→dependents, and what-if blast
radius — plus a ``store`` provenance block binding the answer to the
source dataset's sha256. Composed payloads go through a bounded LRU
keyed by the normalized query, so a repeated question costs one dict
lookup.

The payload shapes are the fast-path side of the differential contract
in ``tests/test_query_differential.py``: each must stay *byte-identical*
(after canonical JSON rendering) to the derivation from
``AnalyzedSnapshot``/``provider_metrics()`` on the same frozen dataset.
Treat returned dicts as read-only — they are shared with the cache.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.query.lru import LRUCache
from repro.store.format import SERVICE_CODES
from repro.store.reader import METRIC_COLUMNS, StoreReader


class QueryError(ValueError):
    """A query names something the store does not contain."""


class QueryEngine:
    """Answers paper-semantics queries from a :class:`StoreReader`."""

    def __init__(self, reader: StoreReader, cache_size: int = 128) -> None:
        self.reader = reader
        self.cache = LRUCache(cache_size)
        header = reader.header
        self._store_block = {
            "schema": header["schema"],
            "source_sha256": header["source_sha256"],
            "year": header["year"],
            "websites": reader.n_sites,
        }

    # -- queries -------------------------------------------------------------

    def top(self, k: int, mode: str = "impact", service: str = "dns") -> dict[str, Any]:
        """Top-k providers of a service, ranked like ``top_providers``:
        descending score, ties broken by ``str(node)``."""
        if mode not in METRIC_COLUMNS:
            raise QueryError(
                f"unknown mode {mode!r}; expected one of {METRIC_COLUMNS}"
            )
        if service not in SERVICE_CODES:
            raise QueryError(
                f"unknown service {service!r}; expected one of "
                f"{tuple(SERVICE_CODES)}"
            )
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return self._cached(("top", k, mode, service), self._top, k, mode, service)

    def site(self, domain: str) -> dict[str, Any]:
        """One website's dependencies and critical exposure."""
        site = self.reader.find_site(domain)
        if site is None:
            raise QueryError(f"unknown site {domain!r}")
        return self._cached(("site", domain), self._site, domain, site)

    def dependents(self, provider_key: str) -> dict[str, Any]:
        """Reverse lookup: who depends on this provider."""
        provider = self._resolve(provider_key)
        key = self.reader.provider_key(provider)
        return self._cached(("dependents", key), self._dependents, provider)

    def whatif(self, provider_key: str) -> dict[str, Any]:
        """Blast radius of a total provider failure (§2.2 unions)."""
        provider = self._resolve(provider_key)
        key = self.reader.provider_key(provider)
        return self._cached(("whatif", key), self._whatif, provider)

    def cache_stats(self) -> dict[str, int]:
        return self.cache.stats()

    # -- payload builders ----------------------------------------------------

    def _top(self, k: int, mode: str, service: str) -> dict[str, Any]:
        reader = self.reader
        scored = [
            (provider, reader.provider_metrics(provider)[mode])
            for provider in reader.providers_of_service(service)
        ]
        # Provider indices are already in str(node) order, so a stable
        # sort on -score reproduces the (-score, str(node)) ranking.
        scored.sort(key=lambda pair: -pair[1])
        results = [
            {
                "provider": reader.provider_key(provider),
                "display": reader.provider_display(provider),
                "score": score,
                "metrics": reader.provider_metrics(provider),
            }
            for provider, score in scored[:k]
        ]
        return {
            "query": {"kind": "top", "k": k, "mode": mode, "service": service},
            "results": results,
            "store": self._store_block,
        }

    def _site(self, domain: str, site: int) -> dict[str, Any]:
        reader = self.reader
        edges = reader.site_dependencies(site)
        dependencies = [
            {
                "provider": reader.provider_key(provider),
                "display": reader.provider_display(provider),
                "service": reader.provider_service(provider),
                "critical": critical,
            }
            for provider, critical in edges
        ]
        direct_critical = [provider for provider, critical in edges if critical]
        seen = set(direct_critical)
        frontier = list(direct_critical)
        while frontier:
            node = frontier.pop()
            for upstream, critical in reader.provider_upstream(node):
                if critical and upstream not in seen:
                    seen.add(upstream)
                    frontier.append(upstream)
        transitive = seen.difference(direct_critical)
        return {
            "query": {"kind": "site", "site": domain},
            "site": {
                "domain": domain,
                "rank": reader.site_rank(site),
                "dependencies": dependencies,
                "critical_dependency_count": reader.site_critical_count(site),
                "direct_critical": sorted(
                    reader.provider_display(p) for p in direct_critical
                ),
                "transitive_critical": sorted(
                    reader.provider_display(p) for p in transitive
                ),
            },
            "store": self._store_block,
        }

    def _dependents(self, provider: int) -> dict[str, Any]:
        reader = self.reader
        metrics = reader.provider_metrics(provider)
        return {
            "query": {"kind": "dependents", "provider": reader.provider_key(provider)},
            "provider": self._provider_block(provider),
            "direct": [
                {"domain": reader.site_domain(site), "critical": critical}
                for site, critical in reader.provider_direct_sites(provider)
            ],
            "consumers": [
                {
                    "provider": reader.provider_key(consumer),
                    "display": reader.provider_display(consumer),
                    "critical": critical,
                }
                for consumer, critical in reader.provider_consumers(provider)
            ],
            "transitive": {
                "concentration": metrics["concentration"],
                "impact": metrics["impact"],
            },
            "store": self._store_block,
        }

    def _whatif(self, provider: int) -> dict[str, Any]:
        reader = self.reader
        critical = reader.provider_dependent_sites(provider, critical_only=True)
        all_dependent = reader.provider_dependent_sites(
            provider, critical_only=False
        )
        down_set = set(critical)
        down = [reader.site_domain(site) for site in critical]
        at_risk = [
            reader.site_domain(site)
            for site in all_dependent
            if site not in down_set
        ]
        return {
            "query": {"kind": "whatif", "provider": reader.provider_key(provider)},
            "provider": self._provider_block(provider),
            "down": down,
            "at_risk": at_risk,
            "counts": {
                "down": len(down),
                "at_risk": len(at_risk),
                "unaffected": reader.n_sites - len(down) - len(at_risk),
            },
            "metrics": reader.provider_metrics(provider),
            "store": self._store_block,
        }

    # -- internals -----------------------------------------------------------

    def _provider_block(self, provider: int) -> dict[str, Any]:
        reader = self.reader
        return {
            "provider": reader.provider_key(provider),
            "display": reader.provider_display(provider),
            "service": reader.provider_service(provider),
        }

    def _resolve(self, provider_key: str) -> int:
        provider = self.reader.find_provider(provider_key)
        if provider is None:
            raise QueryError(
                f"unknown provider {provider_key!r} "
                f"(use the service:id form, e.g. dns:dynect.net)"
            )
        return provider

    def _cached(
        self, key: tuple[Any, ...], builder: Any, *args: Any
    ) -> dict[str, Any]:
        payload: Optional[dict[str, Any]] = self.cache.get(key)
        if payload is None:
            payload = builder(*args)
            self.cache.put(key, payload)
        return payload
