"""Rank-dependent adoption curves and weighted-choice helpers.

All curves are piecewise-linear in ``log10(effective rank)`` with knots at
the paper's reporting buckets (100, 1K, 10K, 100K). Because ranks are
uniformly distributed, the population average is dominated by the last
decade, so the knot values below were chosen to land the paper's headline
aggregates (DESIGN.md §5) while matching the per-bucket figures (Figures
2-4) in shape.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")

_KNOT_RANKS = (2.0, 3.0, 4.0, 5.0)  # log10 of 100, 1K, 10K, 100K


def _interp(eff_rank: float, values: Sequence[float]) -> float:
    """Piecewise-linear interpolation over the knots, clamped at the ends."""
    if len(values) != len(_KNOT_RANKS):
        raise ValueError("need one value per knot")
    x = math.log10(max(eff_rank, 1.0))
    if x <= _KNOT_RANKS[0]:
        return values[0]
    if x >= _KNOT_RANKS[-1]:
        return values[-1]
    for i in range(len(_KNOT_RANKS) - 1):
        x0, x1 = _KNOT_RANKS[i], _KNOT_RANKS[i + 1]
        if x0 <= x <= x1:
            t = (x - x0) / (x1 - x0)
            return values[i] + t * (values[i + 1] - values[i])
    return values[-1]


# -- website -> DNS ----------------------------------------------------------

def p_third_party_dns(eff_rank: float, year: int) -> float:
    """Probability a website uses (at least one) third-party DNS provider."""
    if year >= 2020:
        return _interp(eff_rank, (0.49, 0.72, 0.84, 0.905))
    return _interp(eff_rank, (0.52, 0.70, 0.82, 0.875))


def dns_redundancy_multiplier(eff_rank: float) -> float:
    """Rank multiplier applied to a provider's ``secondary_rate``."""
    return _interp(eff_rank, (3.0, 1.8, 1.0, 0.6))


def p_private_secondary_given_redundant(eff_rank: float) -> float:
    """When redundant, chance the second 'provider' is private infra."""
    return _interp(eff_rank, (0.6, 0.5, 0.4, 0.35))


# -- website -> CDN ----------------------------------------------------------

def p_cdn_usage(eff_rank: float, year: int) -> float:
    """Probability a website serves content from a CDN."""
    if year >= 2020:
        return _interp(eff_rank, (0.70, 0.55, 0.42, 0.315))
    return _interp(eff_rank, (0.66, 0.48, 0.33, 0.235))


def p_private_cdn_given_use(eff_rank: float) -> float:
    """CDN users running their own CDN (yahoo-style) — rare, top-heavy."""
    return _interp(eff_rank, (0.12, 0.06, 0.03, 0.02))


def cdn_redundancy_multiplier(eff_rank: float) -> float:
    """Rank multiplier applied to a CDN's ``redundancy_rate``."""
    return _interp(eff_rank, (2.6, 2.0, 1.2, 0.9))


# -- website -> CA -----------------------------------------------------------

def p_https(eff_rank: float, year: int) -> float:
    """Probability a website supports HTTPS."""
    if year >= 2020:
        return _interp(eff_rank, (0.95, 0.90, 0.83, 0.772))
    return _interp(eff_rank, (0.80, 0.65, 0.52, 0.455))


def p_private_ca_given_https(eff_rank: float) -> float:
    """HTTPS sites using a private CA (Google/Microsoft style)."""
    return _interp(eff_rank, (0.29, 0.26, 0.24, 0.228))


def top_bias_factor(eff_rank: float) -> float:
    """How strongly a provider's ``top_bias`` applies at this rank.

    Full strength for the top-100, fading to none beyond rank 10K.
    """
    return _interp(eff_rank, (1.0, 0.7, 0.2, 0.0))


# -- sampling helpers ---------------------------------------------------------

def weighted_choice(
    rng: random.Random,
    items: Sequence[T],
    weights: Sequence[float],
) -> T:
    """Draw one item proportionally to ``weights`` (must not all be zero)."""
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("all weights are zero")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point <= cumulative:
            return item
    return items[-1]


def biased_weight(share: float, top_bias: float, eff_rank: float) -> float:
    """A provider's selection weight at a given rank.

    ``top_bias`` > 1 concentrates the provider among popular websites
    (Akamai, Dyn); < 1 pushes it down-rank (Cloudflare, GoDaddy).
    """
    factor = top_bias_factor(eff_rank)
    effective_bias = top_bias ** factor if top_bias > 0 else 0.0
    return share * effective_bias


class MarketWeights:
    """``biased_weight`` of a market's drawable providers, at any rank.

    ``keys`` names the providers of ``market`` that can be drawn, in
    draw order; :meth:`at` gives their weights in that order. Most
    providers are unbiased, and their weight does not depend on the
    rank: ``1.0 ** factor`` is exactly ``1.0``, and a ``top_bias`` of 0
    or less weighs 0. Those weights are computed once, here; :meth:`at`
    computes the rank's top-bias factor once and recomputes only the
    biased entries, with the same float expression as ``biased_weight``.
    A spec without ``top_bias`` is unbiased.
    """

    def __init__(self, market: Mapping[str, Any], keys: Iterable[str]) -> None:
        self.keys = list(keys)
        self._weights: list[float] = []
        self._biased: list[tuple[int, float, float]] = []
        for index, key in enumerate(self.keys):
            spec = market[key]
            share = spec.share_weight
            top_bias = getattr(spec, "top_bias", 1.0)
            if not top_bias > 0:
                self._weights.append(share * 0.0)
            elif top_bias == 1:
                self._weights.append(share * 1.0)
            else:
                self._weights.append(0.0)  # set by ``at``
                self._biased.append((index, share, top_bias))

    def at(self, eff_rank: float) -> list[float]:
        """The weights of :attr:`keys` at one rank, in their order."""
        weights = self._weights.copy()
        if self._biased:
            factor = top_bias_factor(eff_rank)
            for index, share, top_bias in self._biased:
                weights[index] = share * top_bias ** factor
        return weights


def zipf_weights(count: int, exponent: float = 1.1) -> list[float]:
    """Zipf-ish weights for synthetic long-tail providers."""
    return [1.0 / (i ** exponent) for i in range(1, count + 1)]
