"""Unit tests for the rank-dependent adoption curves."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.worldgen import rankmodel
from repro.worldgen.config import WorldConfig
from repro.worldgen.generate import build_cdn_market, build_dns_market


def _catalog_markets() -> list[list]:
    """The DNS and CDN markets of both snapshot years, plus one market
    with a spec lacking ``top_bias`` and one with a zero ``top_bias``."""
    config = WorldConfig(n_websites=500, seed=3)
    markets = []
    for year in (2016, 2020):
        rng = random.Random(year)
        dns = build_dns_market(config, year, rng)
        markets.append(list(dns.values()))
        markets.append(list(build_cdn_market(config, year, dns, rng).values()))
    markets.append([
        SimpleNamespace(share_weight=3.0),
        SimpleNamespace(share_weight=2.0, top_bias=0.0),
        SimpleNamespace(share_weight=0.5, top_bias=4.0),
    ])
    return markets


_MARKETS = _catalog_markets()


def _market_weights(specs: list) -> rankmodel.MarketWeights:
    """The weights of a market whose every provider can be drawn."""
    market = {f"p{index}": spec for index, spec in enumerate(specs)}
    return rankmodel.MarketWeights(market, market)


class TestInterpolationShape:
    @given(st.floats(min_value=1, max_value=1_000_000))
    def test_probabilities_are_probabilities(self, rank):
        for year in (2016, 2020):
            for fn in (
                rankmodel.p_third_party_dns,
                rankmodel.p_cdn_usage,
                rankmodel.p_https,
            ):
                assert 0.0 <= fn(rank, year) <= 1.0

    def test_third_party_dns_increases_with_rank(self):
        assert rankmodel.p_third_party_dns(100, 2020) < rankmodel.p_third_party_dns(100_000, 2020)

    def test_https_decreases_with_rank(self):
        assert rankmodel.p_https(100, 2020) > rankmodel.p_https(100_000, 2020)

    def test_2020_above_2016_for_https(self):
        for rank in (100, 1_000, 10_000, 100_000):
            assert rankmodel.p_https(rank, 2020) > rankmodel.p_https(rank, 2016)

    def test_clamped_outside_knots(self):
        assert rankmodel.p_https(1, 2020) == rankmodel.p_https(100, 2020)
        assert rankmodel.p_https(10_000_000, 2020) == rankmodel.p_https(100_000, 2020)

    def test_redundancy_multiplier_top_heavy(self):
        assert rankmodel.dns_redundancy_multiplier(100) > rankmodel.dns_redundancy_multiplier(100_000)

    def test_paper_anchor_values(self):
        # Knot values anchor the paper's headline bucket numbers.
        assert rankmodel.p_third_party_dns(100, 2020) == pytest.approx(0.49)
        assert rankmodel.p_https(100_000, 2020) == pytest.approx(0.772)


class TestBias:
    def test_top_bias_full_at_top(self):
        assert rankmodel.top_bias_factor(100) == 1.0
        assert rankmodel.top_bias_factor(100_000) == 0.0

    def test_biased_weight_boosts_top(self):
        top = rankmodel.biased_weight(2.0, top_bias=9.0, eff_rank=100)
        tail = rankmodel.biased_weight(2.0, top_bias=9.0, eff_rank=100_000)
        assert top == pytest.approx(18.0)
        assert tail == pytest.approx(2.0)

    def test_bias_below_one_suppresses_top(self):
        top = rankmodel.biased_weight(24.0, top_bias=0.3, eff_rank=100)
        assert top < 24.0

    @given(
        st.sampled_from(range(len(_MARKETS))),
        st.floats(min_value=0.0, max_value=2_000_000),
    )
    def test_market_weights_equal_per_provider_biased_weight(
        self, market_index, rank
    ):
        specs = _MARKETS[market_index]
        expected = [
            rankmodel.biased_weight(
                spec.share_weight, getattr(spec, "top_bias", 1.0), rank
            )
            for spec in specs
        ]
        assert _market_weights(specs).at(rank) == expected


_MISSING = object()


@st.composite
def _drawn_market(draw) -> list:
    """Provider specs whose ``top_bias`` is missing, 0, exactly 1.0 (or
    the int 1), negative or biased, with float or int shares that may
    be 0."""
    specs = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        share = draw(st.one_of(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=100),
        ))
        top_bias = draw(st.one_of(
            st.just(_MISSING), st.sampled_from([0.0, 1.0, 1, -2.0]),
            st.floats(min_value=0.01, max_value=20.0),
        ))
        if top_bias is _MISSING:
            specs.append(SimpleNamespace(share_weight=share))
        else:
            specs.append(SimpleNamespace(share_weight=share, top_bias=top_bias))
    return specs


class TestMarketWeights:
    @given(
        _drawn_market(),
        st.lists(st.floats(min_value=0.0, max_value=2_000_000), min_size=1),
    )
    def test_equal_to_the_per_spec_formula_at_every_rank(self, specs, ranks):
        """One :class:`MarketWeights` per market, asked at many ranks,
        gives exactly the weights the per-spec formula gives: the same
        list order and the same floats, so ``weighted_choice`` draws the
        same providers."""
        weights = _market_weights(specs)
        for rank in ranks:
            factor = rankmodel.top_bias_factor(rank)
            expected = []
            for spec in specs:
                top_bias = getattr(spec, "top_bias", 1.0)
                expected.append(
                    spec.share_weight
                    * (top_bias ** factor if top_bias > 0 else 0.0)
                )
            assert weights.at(rank) == expected
            assert [type(w) for w in weights.at(rank)] == [
                type(w) for w in expected
            ]


class TestWeightedChoice:
    def test_respects_zero_weights(self):
        rng = random.Random(0)
        for _ in range(50):
            assert rankmodel.weighted_choice(rng, ["a", "b"], [0.0, 1.0]) == "b"

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            rankmodel.weighted_choice(random.Random(0), ["a"], [0.0])

    def test_distribution_roughly_matches(self):
        rng = random.Random(1)
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[rankmodel.weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert 0.68 <= counts["a"] / 4000 <= 0.82

    def test_zipf_weights_decreasing(self):
        weights = rankmodel.zipf_weights(10, exponent=1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0
