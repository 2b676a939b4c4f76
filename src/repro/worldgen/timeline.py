"""N-epoch evolving world — the longitudinal generalization of evolve.py.

The one-shot 2016→2020 evolution is a single application of the paper's
Table 3-5 transition quotas. A :class:`Timeline` spreads those quotas over
``epochs`` snapshots: epoch 0 is the ordinary 2016 base snapshot, and each
later epoch applies

* one round of *slot-preserving* list churn (:func:`~repro.worldgen.alexa.
  churn_step` — a dead domain's rank slot is taken by its newcomer
  replacement, so survivor ranks are stable and the changed-site set stays
  proportional to the churn rate),
* provider-market drift: share weights, top biases and stapling rates are
  linearly interpolated between the epoch-0 market and a 2020 endpoint
  market, while *structural* fields (nameserver domains, CNAME suffixes,
  OCSP/CRL hosts, provider DNS arrangements) stay frozen at their
  first-seen values so an unchanged website measures byte-identically
  across epochs,
* the Table 3-5 transition quotas scaled by ``1/(epochs-1)``, plus the
  matching fraction of CDN and HTTPS adoption.

Every epoch's randomness comes from an independent stream derived as
``sha256(seed, epoch)`` via :class:`repro.faults.prng.SeededFaultSource`,
so epoch ``k`` is a pure function of the :class:`TimelineConfig` — the
same seed and epoch count give byte-identical worlds on any machine, at
any worker count, regardless of which epochs were built before.

Alongside each epoch the timeline emits an :class:`EpochChange`: the set
of domains whose ground-truth spec differs from the previous epoch (plus
the dead and newcomer lists). The incremental remeasurement scheduler
(:mod:`repro.engine.epochs`) re-measures exactly those sites and splices
everything else forward from the previous epoch's records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.faults.prng import SeededFaultSource
from repro.worldgen.alexa import AlexaList, churn_step
from repro.worldgen.config import WorldConfig
from repro.worldgen.corner_cases import apply_corner_cases
from repro.worldgen.evolve import (
    HTTPS_TARGET_2020,
    _apply_website_transitions,
    _sanitize_against_market,
)
from repro.worldgen.generate import (
    build_ca_market,
    build_cdn_market,
    build_dns_market,
    generate_snapshot,
    generate_websites,
)
from repro.worldgen.spec import (
    CaSpec,
    CdnSpec,
    DnsProviderSpec,
    SnapshotSpec,
)
from repro.worldgen.world import World


def _epoch_year(epoch: int, epochs: int) -> int:
    """Calendar label for an epoch: 2016..2020 spread evenly.

    The label drives the year-dependent pieces of the generator (rank
    curves, corner-case wiring picks 2016-style below 2020) — epoch 0 is
    always 2016 and the final epoch is always 2020, so the endpoints match
    the paper's snapshots whatever the epoch count.
    """
    if epochs <= 1 or epoch <= 0:
        return 2016
    return 2016 + round(4 * epoch / (epochs - 1))


@dataclass(frozen=True)
class TimelineConfig:
    """Everything that controls one N-epoch world lineage."""

    n_websites: int = 1_000
    seed: int = 42
    epochs: int = 4
    churn_rate: float = 0.10
    include_corner_cases: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("a timeline needs at least one epoch")
        if not 0.0 <= self.churn_rate < 0.5:
            raise ValueError("per-epoch churn must be in [0, 0.5)")

    def world_config(self, epoch: int) -> WorldConfig:
        """The :class:`WorldConfig` labelling one epoch's world."""
        if not 0 <= epoch < self.epochs:
            raise ValueError(
                f"epoch {epoch} outside timeline of {self.epochs} epochs"
            )
        return WorldConfig(
            n_websites=self.n_websites,
            seed=self.seed,
            year=_epoch_year(epoch, self.epochs),
            include_corner_cases=self.include_corner_cases,
        )


@dataclass(frozen=True)
class EpochChange:
    """What moved between epoch ``epoch - 1`` and ``epoch``."""

    epoch: int
    year: int
    #: Sorted domains whose ground-truth spec differs from the previous
    #: epoch (newcomers included) — the remeasurement work list.
    changed: tuple[str, ...]
    dead: tuple[str, ...]
    newcomers: tuple[str, ...]


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def _blend_dns_market(
    m16: dict[str, DnsProviderSpec],
    m20: dict[str, DnsProviderSpec],
    t: float,
) -> dict[str, DnsProviderSpec]:
    out: dict[str, DnsProviderSpec] = {}
    for key in list(m16) + [k for k in m20 if k not in m16]:
        share = _lerp(
            m16[key].share_weight if key in m16 else 0.0,
            m20[key].share_weight if key in m20 else 0.0,
            t,
        )
        if share <= 0.0 and key not in m20:
            continue
        base = m16[key] if key in m16 else m20[key]
        tb16 = m16[key].top_bias if key in m16 else base.top_bias
        tb20 = m20[key].top_bias if key in m20 else base.top_bias
        out[key] = replace(
            base, share_weight=share, top_bias=_lerp(tb16, tb20, t)
        )
    return out


def _blend_cdn_market(
    m16: dict[str, CdnSpec], m20: dict[str, CdnSpec], t: float
) -> dict[str, CdnSpec]:
    out: dict[str, CdnSpec] = {}
    for key in list(m16) + [k for k in m20 if k not in m16]:
        share = _lerp(
            m16[key].share_weight if key in m16 else 0.0,
            m20[key].share_weight if key in m20 else 0.0,
            t,
        )
        if share <= 0.0 and key not in m20:
            continue
        base = m16[key] if key in m16 else m20[key]
        tb16 = m16[key].top_bias if key in m16 else base.top_bias
        tb20 = m20[key].top_bias if key in m20 else base.top_bias
        out[key] = replace(
            base.copy(), share_weight=share, top_bias=_lerp(tb16, tb20, t)
        )
    return out


def _blend_ca_market(
    m16: dict[str, CaSpec], m20: dict[str, CaSpec], t: float
) -> dict[str, CaSpec]:
    out: dict[str, CaSpec] = {}
    for key in list(m16) + [k for k in m20 if k not in m16]:
        share = _lerp(
            m16[key].share_weight if key in m16 else 0.0,
            m20[key].share_weight if key in m20 else 0.0,
            t,
        )
        if share <= 0.0 and key not in m20:
            continue
        base = m16[key] if key in m16 else m20[key]
        sr16 = m16[key].stapling_rate if key in m16 else base.stapling_rate
        sr20 = m20[key].stapling_rate if key in m20 else base.stapling_rate
        out[key] = replace(
            base.copy(),
            share_weight=share,
            stapling_rate=_lerp(sr16, sr20, t),
        )
    return out


class Timeline:
    """Lazily-built sequence of epoch snapshots plus their change sets."""

    def __init__(self, config: TimelineConfig):
        self.config = config
        self._source = SeededFaultSource(config.seed)
        self._specs: list[SnapshotSpec] = []
        self._changes: list[EpochChange] = []
        self._markets_2020: Optional[
            tuple[
                dict[str, DnsProviderSpec],
                dict[str, CdnSpec],
                dict[str, CaSpec],
            ]
        ] = None

    # -- epoch accessors ----------------------------------------------------

    def spec(self, epoch: int) -> SnapshotSpec:
        """Ground truth for one epoch (building predecessors as needed)."""
        if not 0 <= epoch < self.config.epochs:
            raise ValueError(
                f"epoch {epoch} outside timeline of {self.config.epochs} epochs"
            )
        while len(self._specs) <= epoch:
            self._build_next()
        return self._specs[epoch]

    def changes(self, epoch: int) -> EpochChange:
        """The changed/dead/newcomer sets entering one epoch."""
        self.spec(epoch)
        return self._changes[epoch]

    def world(self, epoch: int) -> World:
        """One epoch as a measurable world, not yet built.

        Each call returns a new world over the cached spec; its
        infrastructure is materialized on first use (a vantage, a fault
        plan, an outage), so reading its spec or config costs nothing.
        A world is reusable (every campaign measures through its own
        cold vantage), so a caller that measures one epoch twice may
        keep the instance and pay for one build.
        """
        return World(self.spec(epoch), self.config.world_config(epoch))

    # -- construction -------------------------------------------------------

    def _endpoint_markets(
        self,
    ) -> tuple[
        dict[str, DnsProviderSpec], dict[str, CdnSpec], dict[str, CaSpec]
    ]:
        """The 2020 endpoint markets, built once from a dedicated stream."""
        if self._markets_2020 is None:
            rng = self._source.stream("market-2020")
            wconfig = replace(self.config.world_config(0), year=2020)
            dns = build_dns_market(wconfig, 2020, rng)
            cdn = build_cdn_market(wconfig, 2020, dns, rng)
            ca = build_ca_market(wconfig, 2020, dns, cdn, rng)
            self._markets_2020 = (dns, cdn, ca)
        return self._markets_2020

    def _build_next(self) -> None:
        epoch = len(self._specs)
        if epoch == 0:
            spec = generate_snapshot(self.config.world_config(0))
            domains = tuple(sorted(w.domain for w in spec.websites))
            self._specs.append(spec)
            self._changes.append(
                EpochChange(
                    epoch=0,
                    year=spec.year,
                    changed=domains,
                    dead=(),
                    newcomers=domains,
                )
            )
            return
        prev = self._specs[epoch - 1]
        spec, change = self._evolve_epoch(prev, epoch)
        self._specs.append(spec)
        self._changes.append(change)

    def _evolve_epoch(
        self, prev: SnapshotSpec, epoch: int
    ) -> tuple[SnapshotSpec, EpochChange]:
        cfg = self.config
        year = _epoch_year(epoch, cfg.epochs)
        steps = max(1, cfg.epochs - 1)
        t = epoch / steps
        rng = self._source.stream(f"epoch-{epoch}")
        wconfig = cfg.world_config(epoch)

        alexa_prev = AlexaList(
            year=prev.year, domains=[w.domain for w in prev.websites]
        )
        alexa_new, churn = churn_step(
            alexa_prev, rng, death_rate=cfg.churn_rate, year=year
        )

        spec0 = self._specs[0]
        dns20, cdn20, ca20 = self._endpoint_markets()
        dns_market = _blend_dns_market(spec0.dns_providers, dns20, t)
        cdn_market = _blend_cdn_market(spec0.cdns, cdn20, t)
        ca_market = _blend_ca_market(spec0.cas, ca20, t)

        dead = set(churn.dead)
        survivors = {
            w.domain: w.copy() for w in prev.websites if w.domain not in dead
        }
        rank_of = {
            domain: i + 1 for i, domain in enumerate(alexa_new.domains)
        }
        evolved = [
            survivors[d] for d in alexa_new.domains if d in survivors
        ]
        for website in evolved:
            website.rank = rank_of[website.domain]

        h0 = sum(1 for w in spec0.websites if w.https) / max(
            1, len(spec0.websites)
        )
        _apply_website_transitions(
            evolved,
            wconfig,
            dns_market,
            cdn_market,
            ca_market,
            rng,
            rate_scale=1.0 / steps,
            https_target=_lerp(h0, HTTPS_TARGET_2020, t),
            # One sigma of dead-band: per-epoch newcomer/quota draws move
            # each provider's marginal by sampling noise of ~sqrt(target);
            # without the band the rebalance would churn that many
            # customers every epoch just to undo it.
            rebalance_tolerance=1.0,
        )

        newcomer_specs = generate_websites(
            wconfig,
            AlexaList(year=year, domains=list(churn.newcomers)),
            year,
            dns_market,
            cdn_market,
            ca_market,
            rng,
        )
        for website in newcomer_specs:
            website.rank = rank_of[website.domain]
        websites = evolved + newcomer_specs
        websites.sort(key=lambda w: w.rank)

        spec = SnapshotSpec(
            year=year,
            websites=websites,
            dns_providers=dns_market,
            cdns=cdn_market,
            cas=ca_market,
        )
        if cfg.include_corner_cases:
            apply_corner_cases(spec, year)
        _sanitize_against_market(spec, rng, wconfig)

        prev_by_domain = prev.website_by_domain()
        changed = tuple(
            sorted(
                w.domain
                for w in spec.websites
                if w.domain not in prev_by_domain
                or prev_by_domain[w.domain] != w
            )
        )
        change = EpochChange(
            epoch=epoch,
            year=year,
            changed=changed,
            dead=tuple(churn.dead),
            newcomers=tuple(churn.newcomers),
        )
        return spec, change
