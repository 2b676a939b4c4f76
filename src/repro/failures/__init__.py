"""Incident simulation: operational validation of the dependency metrics.

The paper's motivation (Section 2) is three incidents; this package
replays their mechanics against a generated world and *observes* which
websites actually break: the ground truth that the graph-predicted
impact is compared with.

* :mod:`repro.failures.outage` — probe websites end-to-end through a
  vantage whose fault plan takes a provider down (the Dyn 2016 and
  CloudFront-style scenarios);
* :mod:`repro.failures.revocation` — the GlobalSign 2016 mass-revocation
  with response-caching persistence;
* :mod:`repro.failures.whatif` — a redundancy planner quantifying how a
  website's exposure changes with added providers.
"""

from repro.failures.attack import (
    AttackResult,
    AttackScenario,
    ProviderCapacity,
    attack_sweep,
    simulate_volumetric_attack,
)
from repro.failures.outage import (
    OutageResult,
    outage_fault_plan,
    predicted_dns_victims,
    simulate_ca_outage,
    simulate_cdn_outage,
    simulate_dns_outage,
)
from repro.failures.revocation import RevocationIncidentResult, simulate_mass_revocation
from repro.failures.whatif import (
    ExposureReport,
    OutageValidationReport,
    RobustnessScore,
    robustness_score,
    validate_outage_prediction,
    website_exposure,
)

__all__ = [
    "AttackResult",
    "AttackScenario",
    "ExposureReport",
    "OutageResult",
    "OutageValidationReport",
    "ProviderCapacity",
    "RevocationIncidentResult",
    "RobustnessScore",
    "attack_sweep",
    "outage_fault_plan",
    "predicted_dns_victims",
    "robustness_score",
    "validate_outage_prediction",
    "simulate_ca_outage",
    "simulate_cdn_outage",
    "simulate_dns_outage",
    "simulate_mass_revocation",
    "simulate_volumetric_attack",
    "website_exposure",
]
