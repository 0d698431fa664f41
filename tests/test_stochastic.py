import math

import numpy as np
import pytest
from scipy.special import ndtri

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
from invopt.stochastic import _philox_key


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
        chunked = np.concatenate([s.uniform(3), s.uniform(7)])
        assert np.array_equal(bulk, chunked)

    @pytest.mark.parametrize("seed, stream_id, path", [
        (0, 0, ()), (7, 1023, (0,)), (7, 1024, (1,)), (2**64 + 5, 2**31, (3, 4)),
        (11, 2**32 - 1, (1,)), (11, 2**32, (0,)), (3, 2**40 + 3, ()),
    ])
    def test_draws_equal_seed_sequence_philox(self, seed, stream_id, path):
        seq = np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
        expected = np.random.Generator(np.random.Philox(seq)).random(1000)
        assert np.array_equal(RngStream(seed, stream_id, path).uniform(1000), expected)


SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 9)
PATHS = ((), (0,), (1,), (3, 4))
IDS = (0, 1023, 1024, 2**31, 2**32 - 1)


class TestStreamKey:
    """Philox keys derived in blocks equal SeedSequence's, word for word."""

    @staticmethod
    def expected(seed, stream_id, path):
        seq = np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
        return tuple(int(w) for w in seq.generate_state(2, np.uint64))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_block_keys_equal_seed_sequence(self, seed, path):
        for stream_id in IDS:
            key = _philox_key(seed, stream_id, path).key
            assert key == self.expected(seed, stream_id, path), stream_id

    @pytest.mark.parametrize("stream_id", [2**32, 2**32 + 1023, 2**45 + 7, 2**70])
    def test_wide_ids_fall_back_to_seed_sequence(self, stream_id):
        for seed in (0, 2**64 + 5):
            for path in PATHS:
                key = _philox_key(seed, stream_id, path).key
                assert key == self.expected(seed, stream_id, path)

    @pytest.mark.parametrize("seed, stream_id, path", [(-1, 0, ()), (0, -1, ()), (0, 0, (-2,))])
    def test_negative_values_rejected_like_seed_sequence(self, seed, stream_id, path):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
        with pytest.raises(ValueError):
            RngStream(seed, stream_id, path)


def demand_row(model, stream, n):
    return demand_series([model], [stream], n)[0, 0]


def lead_time_row(model, stream, n):
    return lead_time_series([model], [stream], n)[0, 0]


class TestDailyDemand:
    def test_zero_probability_always_zero(self):
        model = DemandModel.from_moments(0.0, 100.0, 10.0)
        assert np.all(demand_row(model, RngStream(1, 0), 1000) == 0)

    def test_degenerate_distribution(self):
        model = DemandModel.from_moments(1.0, 100.0, 0.0)
        assert np.all(demand_row(model, RngStream(1, 0), 1000) == 100)

    def test_law_of_large_numbers_pra(self):
        model = DemandModel.from_moments(0.76, 103.50, 37.32)
        draws = demand_row(model, RngStream(42, 0), 1_000_000)
        target = 0.76 * 103.50
        assert draws.mean() == pytest.approx(target, rel=0.01)

    def test_consumes_two_uniforms_per_day(self):
        models = [DemandModel.from_moments(0.5, 10.0, 2.0), DemandModel.from_moments(0.9, 5.0, 0.0)]
        streams = [RngStream(3, 0), RngStream(3, 1)]
        demand_series(models, streams, 3)
        for s in streams:
            ref = RngStream(s.seed, s.stream_id)
            ref.uniform(6)
            assert np.array_equal(s.uniform(5), ref.uniform(5))

    def test_nonnegative_integer_units(self):
        model = DemandModel.from_moments(0.9, 5.0, 20.0)
        draws = demand_row(model, RngStream(8, 0), 10_000)
        assert draws.dtype == np.int64
        assert np.all(draws >= 0)

    def test_block_equals_one_model_one_stream_at_a_time(self):
        models = [DemandModel.from_moments(0.76, 103.50, 37.32),
                  DemandModel.from_moments(1.0, 648.55, 26.45),
                  DemandModel.from_moments(0.5, 50.0, 0.0)]
        block = demand_series(models, [RngStream(9, i, (0,)) for i in range(5)], 365)
        assert block.shape == (3, 5, 365)
        for k, model in enumerate(models):
            for i in range(5):
                assert np.array_equal(block[k, i], demand_row(model, RngStream(9, i, (0,)), 365))

    def test_day_reads_occurrence_then_size_uniform(self):
        model = DemandModel.from_moments(0.6, 100.0, 30.0)
        u = RngStream(4, 2).uniform(2 * 200).reshape(200, 2)
        size = np.rint(np.exp(model.log_mu + model.log_sigma * ndtri(u[:, 1])))
        expected = np.where(u[:, 0] < 0.6, size, 0).astype(np.int64)
        assert np.array_equal(demand_row(model, RngStream(4, 2), 200), expected)

    def test_empty_block(self):
        model = DemandModel.from_moments(0.5, 10.0, 2.0)
        assert demand_series([model], [], 7).shape == (1, 0, 7)
        assert lead_time_series([LeadTimeModel(3)], [], 7).shape == (1, 0, 7)


class TestLeadTime:
    def test_deterministic_nominal(self):
        model = LeadTimeModel(9)
        assert np.all(lead_time_row(model, RngStream(0, 0), 10) == 9)

    def test_meet_probability_one(self):
        model = LeadTimeModel(9, MeetOrDelay(p_meet=1.0))
        draws = lead_time_row(model, RngStream(0, 0), 1000)
        assert np.all(draws == 9)

    def test_meet_frequency(self):
        model = LeadTimeModel(12, MeetOrDelay(p_meet=0.23, delay_factor=1.5))
        draws = lead_time_row(model, RngStream(4, 0), 100_000)
        assert set(np.unique(draws)) == {12, 18}
        assert np.mean(draws == 12) == pytest.approx(0.23, abs=0.01)

    def test_consumes_one_uniform_per_call(self):
        # deterministic mode still consumes its draw
        models = [LeadTimeModel(9), LeadTimeModel(4, MeetOrDelay(0.5))]
        streams = [RngStream(3, 1), RngStream(3, 2)]
        lead_time_series(models, streams, 3)
        for s in streams:
            ref = RngStream(s.seed, s.stream_id)
            ref.uniform(3)
            assert np.array_equal(s.uniform(5), ref.uniform(5))

    def test_nonnegative_integer_days(self):
        model = LeadTimeModel(0, MeetOrDelay(p_meet=0.5, delay_factor=3.0))
        draws = lead_time_row(model, RngStream(2, 0), 1000)
        assert np.all(draws >= 0)

    def test_block_equals_one_model_one_stream_at_a_time(self):
        models = [LeadTimeModel(12, MeetOrDelay(0.3)), LeadTimeModel(5, MeetOrDelay(0.8, 2.0)),
                  LeadTimeModel(7)]
        block = lead_time_series(models, [RngStream(5, i, (1,)) for i in range(4)], 50)
        assert block.shape == (3, 4, 50)
        for k, model in enumerate(models):
            for i in range(4):
                assert np.array_equal(block[k, i], lead_time_row(model, RngStream(5, i, (1,)), 50))

    def test_invalid_modes_rejected(self):
        with pytest.raises(DomainError):
            MeetOrDelay(p_meet=1.5)
        with pytest.raises(DomainError):
            MeetOrDelay(p_meet=0.5, delay_factor=1.0)
        with pytest.raises(DomainError):
            LeadTimeModel(-1)
