"""Graph extensions: the batch §2.2 metric engine and the networkx bridge.

Two things live here, both downstream of
:class:`~repro.core.graph.DependencyGraph`:

* :class:`MetricEngine` — the single-pass iterative engine behind the
  paper's concentration (``C_p``) and impact (``I_p``) metrics. The
  naive reading of the §2.2 union formulas recurses once per distinct
  consumer *path*, which is exponential on dense provider→provider
  graphs and overflows the interpreter stack on long CA→CDN→DNS chains.
  The engine instead condenses the provider graph into strongly
  connected components (iterative Tarjan), walks components in reverse
  topological order, and propagates dependent-website sets exactly once
  as int-ID bitsets — every provider's ``C_p``/``I_p`` falls out of one
  O(V + E·|sets|) sweep, with no recursion anywhere.

* the networkx bridge (:func:`to_networkx`, :func:`degree_statistics`,
  :func:`export_graphml`) — the paper's Figure 5 is a Gephi rendering of
  exactly this graph; networkx is imported lazily so the metric engine
  (a hot analysis path) carries no drawing dependency.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import networkx as nx

    from repro.core.graph import DependencyGraph, ProviderNode, ServiceType


# --------------------------------------------------------------------------
# The batch metric engine
# --------------------------------------------------------------------------

def _domain_remap_runs(
    old_domains: list[str], new_domain_id: dict[str, int]
) -> list[tuple[int, int, int]]:
    """Contiguous-run remap table from an old domain-ID space to a new one.

    Returns ``(lo, hi, shift)`` triples: old IDs in ``[lo, hi)`` survive
    into the new space at ``old_id + shift``. Old IDs absent from the new
    space fall between runs and are dropped. Both spaces are sorted, so
    surviving IDs keep their relative order and shifts change only at
    insertion/removal points — a handful of runs even for large worlds.
    """
    runs: list[list[int]] = []
    for old_id, domain in enumerate(old_domains):
        new_id = new_domain_id.get(domain)
        if new_id is None:
            continue
        shift = new_id - old_id
        if runs and runs[-1][1] == old_id and runs[-1][2] == shift:
            runs[-1][1] = old_id + 1
        else:
            runs.append([old_id, old_id + 1, shift])
    return [(lo, hi, shift) for lo, hi, shift in runs]


def _remap_bits(bits: int, runs: list[tuple[int, int, int]]) -> int:
    """Translate a bitset through a :func:`_domain_remap_runs` table."""
    out = 0
    for lo, hi, shift in runs:
        chunk = bits & (((1 << (hi - lo)) - 1) << lo)
        out |= (chunk << shift) if shift >= 0 else (chunk >> -shift)
    return out


class MetricEngine:
    """One-sweep dependent-set computation over a frozen graph snapshot.

    The engine is built against a :class:`DependencyGraph` and answers
    ``dependent_websites``/``count`` queries for *every* provider from a
    single traversal per criticality mode. It never observes mutations:
    the owning graph drops the engine (via its version counter) whenever
    an edge or node is added, so a stale engine is unreachable.

    Website sets are represented as bitsets over a stable, sorted
    int-ID space — union is a single ``|`` over machine words and
    cardinality is ``int.bit_count()``, which keeps the sweep cheap even
    with hundreds of thousands of websites.
    """

    def __init__(self, graph: "DependencyGraph") -> None:
        self._graph = graph
        self._domains: list[str] = sorted(graph.websites())
        self._domain_id: dict[str, int] = {
            domain: i for i, domain in enumerate(self._domains)
        }
        self._providers: list["ProviderNode"] = graph.providers()
        # Per criticality mode: provider -> dependent-website bitset.
        self._bits: dict[bool, dict["ProviderNode", int]] = {}

    @classmethod
    def refreshed(
        cls,
        graph: "DependencyGraph",
        old: "MetricEngine",
        dirty: "set[ProviderNode]",
    ) -> "MetricEngine":
        """Build an engine for ``graph`` by updating ``old`` incrementally.

        ``dirty`` is the set of providers whose *own* edge neighbourhood
        mutated since ``old`` was built (the graph tracks it). Dependent
        sets flow from consumers into the providers they use, so the full
        set of providers whose bitsets may have moved is the closure of
        ``dirty`` under "uses" edges. Everything outside that closure is
        provably unchanged — its old bitset is carried over, translated
        into the new domain-ID space by contiguous-run shifts (a clean
        provider cannot reference a removed domain: any provider that
        could reach it is in the closure). The Tarjan sweep then runs
        restricted to the closure, reading clean consumers' carried-over
        bitsets where the frontier crosses out of it.

        Only criticality modes the old engine actually computed are
        refreshed; untouched modes stay lazy.
        """
        engine = cls(graph)
        current = set(engine._providers)
        old_providers = set(old._providers)
        closure: set["ProviderNode"] = set()
        frontier = [p for p in dirty if p in current]
        frontier.extend(sorted((p for p in current if p not in old_providers), key=str))
        while frontier:
            node = frontier.pop()
            if node in closure:
                continue
            closure.add(node)
            for used in sorted(graph.provider_dependencies(node), key=str):
                if used in current and used not in closure:
                    frontier.append(used)
        identity = old._domains == engine._domains
        runs = (
            []
            if identity
            else _domain_remap_runs(old._domains, engine._domain_id)
        )
        for critical_only, old_bits in old._bits.items():
            base: dict["ProviderNode", int] = {}
            for provider in engine._providers:
                if provider in closure:
                    continue
                bits = old_bits.get(provider, 0)
                base[provider] = bits if identity else _remap_bits(bits, runs)
            engine._bits[critical_only] = engine._sweep(
                critical_only, restrict=closure, base=base
            )
        return engine

    # -- queries ------------------------------------------------------------

    def dependent_bits(self, critical_only: bool) -> dict["ProviderNode", int]:
        """The full provider → dependent-bitset map for one mode."""
        bits = self._bits.get(critical_only)
        if bits is None:
            bits = self._sweep(critical_only)
            self._bits[critical_only] = bits
        return bits

    def dependent_websites(
        self, provider: "ProviderNode", critical_only: bool
    ) -> set[str]:
        """Decode one provider's dependent bitset back to domain names."""
        bits = self.dependent_bits(critical_only).get(provider, 0)
        domains = self._domains
        result: set[str] = set()
        while bits:
            low = bits & -bits
            result.add(domains[low.bit_length() - 1])
            bits ^= low
        return result

    def count(self, provider: "ProviderNode", critical_only: bool) -> int:
        """|dependent_websites| without decoding the bitset."""
        return self.dependent_bits(critical_only).get(provider, 0).bit_count()

    def counts(self, critical_only: bool) -> dict["ProviderNode", int]:
        """Provider → dependent-website count, for every provider."""
        return {
            node: bits.bit_count()
            for node, bits in self.dependent_bits(critical_only).items()
        }

    # -- the sweep ----------------------------------------------------------

    def _direct_bits(
        self,
        critical_only: bool,
        nodes: Optional[list["ProviderNode"]] = None,
    ) -> dict["ProviderNode", int]:
        graph = self._graph
        domain_id = self._domain_id
        direct: dict["ProviderNode", int] = {}
        for provider in nodes if nodes is not None else self._providers:
            bits = 0
            # OR-accumulation is order-insensitive, so the raw set is fine.
            for domain in graph.direct_dependents(provider, critical_only):
                bits |= 1 << domain_id[domain]
            direct[provider] = bits
        return direct

    def _sweep(
        self,
        critical_only: bool,
        restrict: Optional["set[ProviderNode]"] = None,
        base: Optional[dict["ProviderNode", int]] = None,
    ) -> dict["ProviderNode", int]:
        """Iterative Tarjan SCC condensation + reverse-topological union.

        The traversal successor of a provider is the set of providers
        that *consume* it: ``dependents(p) = direct(p) ∪ ⋃ dependents(c)``
        over consumers ``c``. Tarjan finalizes components in reverse
        topological order of that successor relation, so when a component
        pops, every out-of-component successor already carries its final
        bitset — each edge is therefore crossed exactly once.

        With ``restrict``, only that subset is traversed; consumer edges
        leaving the subset read the caller-supplied ``base`` bitsets (the
        incremental refresh path, where ``base`` holds every clean
        provider's carried-over set).
        """
        graph = self._graph
        if restrict is None:
            nodes = self._providers
        else:
            nodes = [p for p in self._providers if p in restrict]
        active = set(nodes)
        direct = self._direct_bits(critical_only, nodes)
        succ: dict["ProviderNode", list["ProviderNode"]] = {
            provider: graph.provider_consumers(provider, critical_only)
            for provider in nodes
        }

        index: dict["ProviderNode", int] = {}
        lowlink: dict["ProviderNode", int] = {}
        on_stack: set["ProviderNode"] = set()
        stack: list["ProviderNode"] = []
        result: dict["ProviderNode", int] = dict(base) if base else {}
        counter = 0

        for root in nodes:
            if root in index:
                continue
            # Explicit work stack of (node, next-successor cursor) frames.
            work: list[tuple["ProviderNode", int]] = [(root, 0)]
            while work:
                node, cursor = work.pop()
                if cursor == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                successors = succ[node]
                descended = False
                while cursor < len(successors):
                    nxt = successors[cursor]
                    cursor += 1
                    if nxt not in active:
                        continue
                    if nxt not in index:
                        work.append((node, cursor))
                        work.append((nxt, 0))
                        descended = True
                        break
                    if nxt in on_stack:
                        lowlink[node] = min(lowlink[node], index[nxt])
                if descended:
                    continue
                if lowlink[node] == index[node]:
                    # Component root: pop members and seal their bitset.
                    members: list["ProviderNode"] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.append(member)
                        if member == node:
                            break
                    member_set = set(members)
                    bits = 0
                    for member in members:
                        bits |= direct[member]
                        for consumer in succ[member]:
                            if consumer not in member_set:
                                bits |= result[consumer]
                    for member in members:
                        result[member] = bits
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result


# --------------------------------------------------------------------------
# networkx bridge (Figure 5)
# --------------------------------------------------------------------------

def to_networkx(
    graph: "DependencyGraph", service: Optional["ServiceType"] = None
) -> "nx.DiGraph":
    """Convert to a directed networkx graph.

    Node attributes: ``kind`` ("website"/"provider"), ``service``,
    ``display``. Edge attribute: ``critical``. ``service`` restricts the
    provider set (the paper draws one graph per service).
    """
    import networkx as nx

    out = nx.DiGraph()
    providers = set(graph.providers(service))
    # Insertion order shapes the exported graph (GraphML, adjacency
    # dumps), so nodes enter in a stable order.
    for node in sorted(providers, key=str):
        out.add_node(
            str(node),
            kind="provider",
            service=node.service.value,
            display=graph.display(node),
        )
    for domain in graph.websites():
        dependencies = [
            p for p in graph.website_dependencies(domain) if p in providers
        ]
        if not dependencies and service is not None:
            continue
        out.add_node(domain, kind="website", service="", display=domain)
        critical = graph.website_dependencies(domain, critical_only=True)
        for provider in dependencies:
            out.add_edge(
                domain, str(provider), critical=provider in critical
            )
    for provider in sorted(providers, key=str):
        for upstream in sorted(graph.provider_dependencies(provider), key=str):
            if upstream in providers or service is None:
                out.add_node(
                    str(upstream),
                    kind="provider",
                    service=upstream.service.value,
                    display=graph.display(upstream),
                )
                out.add_edge(
                    str(provider),
                    str(upstream),
                    critical=upstream
                    in graph.provider_dependencies(provider, critical_only=True),
                )
    return out


def degree_statistics(
    graph: "DependencyGraph", service: "ServiceType"
) -> dict[str, float]:
    """The Figure-5 drawing statistics: provider in-degree distribution."""
    nxg = to_networkx(graph, service)
    provider_degrees = sorted(
        (
            nxg.in_degree(node)
            for node, data in nxg.nodes(data=True)
            if data["kind"] == "provider"
        ),
        reverse=True,
    )
    if not provider_degrees:
        return {"providers": 0, "websites": 0}
    websites = sum(
        1 for _, data in nxg.nodes(data=True) if data["kind"] == "website"
    )
    total = sum(provider_degrees)
    return {
        "providers": len(provider_degrees),
        "websites": websites,
        "max_in_degree": provider_degrees[0],
        "median_in_degree": provider_degrees[len(provider_degrees) // 2],
        "top5_degree_share": (
            sum(provider_degrees[:5]) / total if total else 0.0
        ),
        "edges": nxg.number_of_edges(),
    }


def export_graphml(
    graph: "DependencyGraph",
    path: Union[str, Path],
    service: Optional["ServiceType"] = None,
) -> Path:
    """Write GraphML for Gephi — regenerate the paper's Figure 5 visually."""
    import networkx as nx

    path = Path(path)
    nxg = to_networkx(graph, service)
    nx.write_graphml(nxg, path)
    return path
