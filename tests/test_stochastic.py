import math

import numpy as np
import pytest

from invopt.errors import DomainError
from invopt.stochastic import (
    DemandModel,
    Deterministic,
    LeadTimeModel,
    MeetOrDelay,
    RngStream,
    demand_series,
    fit_lognormal,
    lead_time_series,
)


class TestFitLognormal:
    def test_pra_moments(self):
        # frozen from the analytic-moment oracle (see round-trip tests)
        log_mu, log_sigma = fit_lognormal(103.50, 37.32)
        assert log_mu == pytest.approx(4.578455, abs=1e-5)
        assert log_sigma == pytest.approx(0.349619, abs=1e-5)

    def test_zero_std_is_point_mass(self):
        log_mu, log_sigma = fit_lognormal(50.0, 0.0)
        assert log_sigma == 0.0
        assert math.exp(log_mu) == pytest.approx(50.0)

    def test_roundtrip_prb(self):
        model = DemandModel.from_moments(1.0, 648.55, 26.45)
        assert model.analytic_order_size_mean == pytest.approx(648.55, abs=1e-9)
        assert model.analytic_order_size_std == pytest.approx(26.45, abs=1e-9)

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            mean = rng.uniform(0.1, 1e5)
            std = rng.uniform(0.0, 3.0) * mean
            model = DemandModel.from_moments(0.5, mean, std)
            assert model.analytic_order_size_mean == pytest.approx(mean, rel=1e-9)
            assert model.analytic_order_size_std == pytest.approx(std, rel=1e-9, abs=1e-9)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(DomainError):
            fit_lognormal(0.0, 1.0)
        with pytest.raises(DomainError):
            fit_lognormal(-2.0, 1.0)

    def test_negative_std_rejected(self):
        with pytest.raises(DomainError):
            fit_lognormal(1.0, -0.5)


class TestRngStream:
    def test_same_address_bit_identical(self):
        a = RngStream(42, 7).uniform(1000)
        b = RngStream(42, 7).uniform(1000)
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = RngStream(42, 0).uniform(100)
        b = RngStream(42, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_cross_stream_correlation_small(self):
        n = 100_000
        a = RngStream(42, 0).uniform(n)
        b = RngStream(42, 1).uniform(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_derived_lanes_independent(self):
        a = RngStream(11, 3, (0,)).uniform(100_000)
        b = RngStream(11, 3, (1,)).uniform(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_chunked_draws_match_bulk(self):
        bulk = RngStream(5, 5).uniform(10)
        s = RngStream(5, 5)
        chunked = np.array([s.uniform() for _ in range(10)])
        assert np.array_equal(bulk, chunked)


class TestDailyDemand:
    def test_zero_probability_always_zero(self):
        model = DemandModel.from_moments(0.0, 100.0, 10.0)
        assert np.all(demand_series(model, RngStream(1, 0), 1000) == 0)

    def test_degenerate_distribution(self):
        model = DemandModel.from_moments(1.0, 100.0, 0.0)
        assert np.all(demand_series(model, RngStream(1, 0), 1000) == 100)

    def test_law_of_large_numbers_pra(self):
        model = DemandModel.from_moments(0.76, 103.50, 37.32)
        draws = demand_series(model, RngStream(42, 0), 1_000_000)
        target = 0.76 * 103.50
        assert draws.mean() == pytest.approx(target, rel=0.01)

    def test_consumes_two_uniforms_per_day(self):
        model = DemandModel.from_moments(0.5, 10.0, 2.0)
        s = RngStream(3, 0)
        demand_series(model, s, 3)
        ref = RngStream(3, 0)
        ref.uniform(6)
        assert s.uniform() == ref.uniform()

    def test_nonnegative_integer_units(self):
        model = DemandModel.from_moments(0.9, 5.0, 20.0)
        draws = demand_series(model, RngStream(8, 0), 10_000)
        assert draws.dtype == np.int64
        assert np.all(draws >= 0)


class TestLeadTime:
    def test_deterministic_nominal(self):
        model = LeadTimeModel(9)
        assert np.all(lead_time_series(model, RngStream(0, 0), 10) == 9)

    def test_meet_probability_one(self):
        model = LeadTimeModel(9, MeetOrDelay(p_meet=1.0))
        draws = lead_time_series(model, RngStream(0, 0), 1000)
        assert np.all(draws == 9)

    def test_meet_frequency(self):
        model = LeadTimeModel(12, MeetOrDelay(p_meet=0.23, delay_factor=1.5))
        draws = lead_time_series(model, RngStream(4, 0), 100_000)
        assert set(np.unique(draws)) == {12, 18}
        assert np.mean(draws == 12) == pytest.approx(0.23, abs=0.01)

    def test_consumes_one_uniform_per_call(self):
        model = LeadTimeModel(9)  # deterministic mode still consumes its draw
        s = RngStream(3, 1)
        lead_time_series(model, s, 3)
        ref = RngStream(3, 1)
        ref.uniform(3)
        assert s.uniform() == ref.uniform()

    def test_nonnegative_integer_days(self):
        model = LeadTimeModel(0, MeetOrDelay(p_meet=0.5, delay_factor=3.0))
        draws = lead_time_series(model, RngStream(2, 0), 1000)
        assert np.all(draws >= 0)

    def test_invalid_modes_rejected(self):
        with pytest.raises(DomainError):
            MeetOrDelay(p_meet=1.5)
        with pytest.raises(DomainError):
            MeetOrDelay(p_meet=0.5, delay_factor=1.0)
        with pytest.raises(DomainError):
            LeadTimeModel(-1)
