"""repro — reproduction of *Analyzing Third Party Service Dependencies in
Modern Web Services: Have We Learned from the Mirai-Dyn Incident?*
(Kashaf, Sekar, Agarwal — IMC 2020).

The library has three layers:

1. **Substrates** — in-process simulations of the infrastructure the paper
   measures live: the DNS (:mod:`repro.dnssim`), the web PKI
   (:mod:`repro.tlssim`), and the web/CDN fabric (:mod:`repro.websim`),
   generated and calibrated by :mod:`repro.worldgen`.
2. **Measurement** (:mod:`repro.measurement`) — the paper's Section 3
   toolchain (dig, certificate fetching, landing-page crawling,
   CNAME→CDN mapping), observing the world strictly from a vantage point;
   :func:`repro.run_campaign` (:mod:`repro.engine`) runs a campaign.
3. **Analysis** (:mod:`repro.core`, :mod:`repro.analysis`,
   :mod:`repro.failures`) — the classification heuristics, the dependency
   graph with the concentration/impact metrics, evolution trends, every
   paper table/figure, and incident replay.

Quickstart::

    from repro import WorldConfig, build_world, analyze_world, ServiceType

    world = build_world(WorldConfig(n_websites=2000, seed=1))
    snapshot = analyze_world(world)
    top = snapshot.graph.top_providers(ServiceType.DNS, 3, by="impact")
"""

from repro.core import (
    AnalyzedSnapshot,
    DependencyGraph,
    ProviderType,
    ServiceType,
    analyze_dataset,
)
from repro.engine import analyze_world, run_campaign
from repro.measurement import Dataset
from repro.worldgen import (
    World,
    WorldConfig,
    build_world,
    build_world_pair,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyzedSnapshot",
    "Dataset",
    "DependencyGraph",
    "ProviderType",
    "ServiceType",
    "World",
    "WorldConfig",
    "__version__",
    "analyze_dataset",
    "analyze_world",
    "build_world",
    "build_world_pair",
    "run_campaign",
]
