import math

import numpy as np
import pytest
from scipy.integrate import quad

from invopt.errors import ConfigError, DomainError, NumericalError
from invopt import gpbo, objectives
from invopt.gpbo import (
    LENGTH_SCALE_BOUNDS,
    BoConfig,
    ConditioningFn,
    GpModel,
    Kernel,
    ObjectiveError,
    _acquisition_and_grad,
    _ei_from_moments,
    bo_run,
    condition_mvn,
    expected_improvement,
    gp_fit,
    gp_posterior,
    probability_of_improvement,
    propose_next,
)
from invopt.objectives import ProfitObjective
from invopt.simengine import SimConfig

from conftest import count_engine_calls


def dense_posterior(x_query, x_train, y_train, kernel, noise, prior_mean=0.0, kappa=None):
    """Independent dense-solve oracle for the GP conditional formulas."""
    ell = np.asarray(kernel.length_scales)

    def gram(a, b):
        sq = ((a[:, None, :] - b[None, :, :]) / ell) ** 2
        return kernel.signal_variance * np.exp(-0.5 * sq.sum(-1))

    adjust_train = kappa(x_train) if kappa else np.zeros(len(x_train))
    adjust_query = kappa(x_query) if kappa else np.zeros(len(x_query))
    k_inv = np.linalg.inv(gram(x_train, x_train) + noise * np.eye(len(x_train)))
    k_star = gram(x_query, x_train)
    mean = prior_mean + adjust_query + k_star @ k_inv @ (y_train - prior_mean - adjust_train)
    var = kernel.signal_variance - np.einsum("ij,jk,ik->i", k_star, k_inv, k_star)
    return mean, np.maximum(var, 0.0)


class TestKernel:
    def test_invalid_hyperparameters(self):
        with pytest.raises(DomainError):
            Kernel(0.0, (1.0,))
        with pytest.raises(DomainError):
            Kernel(1.0, (0.0,))


class TestGpPosterior:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(5, 15))
            x = rng.uniform(-3, 3, size=(n, d))
            y = rng.normal(size=n)
            kernel = Kernel(float(rng.uniform(0.5, 3.0)), tuple(rng.uniform(0.3, 2.0, d)))
            noise = float(rng.uniform(1e-4, 0.1))
            model = GpModel.build(x, y, kernel, noise, prior_mean=0.3)
            xq = rng.uniform(-3, 3, size=(9, d))
            mean, var = gp_posterior(model, xq)
            mean_o, var_o = dense_posterior(xq, x, y, kernel, noise, prior_mean=0.3)
            np.testing.assert_allclose(mean, mean_o, atol=1e-8)
            np.testing.assert_allclose(var, var_o, atol=1e-8)

    def test_prior_recovery_far_from_data(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        kernel = Kernel(1.5, (0.5,))
        model = GpModel.build(x, y, kernel, 1e-6, prior_mean=7.0)
        mean, var = gp_posterior(model, np.array([100.0]))
        assert mean == pytest.approx(7.0, abs=1e-9)
        assert var == pytest.approx(1.5, abs=1e-9)

    def test_interpolates_noise_free_training_point(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 5, size=(6, 1))
        y = np.sin(x[:, 0])
        model = GpModel.build(x, y, Kernel(1.0, (1.0,)), 1e-10)
        mean, var = gp_posterior(model, x[2])
        assert mean == pytest.approx(y[2], abs=1e-5)
        assert var == pytest.approx(0.0, abs=1e-5)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(12, 2))
        y = rng.normal(size=12)
        kernel = Kernel(2.0, (0.7, 1.3))
        model = GpModel.build(x, y, kernel, 0.01)
        _, var = gp_posterior(model, rng.uniform(-3, 3, size=(200, 2)))
        assert np.all(var <= kernel.signal_variance + 1e-9)

    def test_adding_observation_shrinks_variance(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 4, size=(8, 1))
        y = np.cos(x[:, 0])
        kernel = Kernel(1.0, (0.8,))
        small = GpModel.build(x[:-1], y[:-1], kernel, 1e-6)
        full = GpModel.build(x, y, kernel, 1e-6)
        grid = np.linspace(-1, 5, 100)[:, None]
        _, var_small = gp_posterior(small, grid)
        _, var_full = gp_posterior(full, grid)
        assert np.all(var_full <= var_small + 1e-9)

    def test_conditioning_shift_identity(self):
        rng = np.random.default_rng(5)
        cond = ConditioningFn(
            alpha=2.0, centers=((0.5,), (1.5,)), widths=(0.7, 0.4), weights=(1.0, -0.5)
        )
        x = rng.uniform(0, 2, size=(8, 1))
        y = rng.normal(size=8)
        kernel = Kernel(1.3, (0.6,))
        with_cond = GpModel.build(x, y, kernel, 0.01, prior_mean=0.2, conditioning=cond)
        on_residuals = GpModel.build(x, y - cond(x), kernel, 0.01, prior_mean=0.2)
        xq = rng.uniform(0, 2, size=(60, 1))
        mean_c, var_c = gp_posterior(with_cond, xq)
        mean_r, var_r = gp_posterior(on_residuals, xq)
        np.testing.assert_allclose(mean_c, mean_r + cond(xq), atol=1e-10)
        np.testing.assert_allclose(var_c, var_r, atol=1e-10)

    def test_empty_conditioning_is_plain_gp(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(5, 1))
        y = rng.normal(size=5)
        kernel = Kernel(1.0, (0.5,))
        plain = GpModel.build(x, y, kernel, 0.01, prior_mean=0.0)
        empty = GpModel.build(x, y, kernel, 0.01, prior_mean=0.0,
                              conditioning=ConditioningFn(alpha=3.0))
        xq = rng.uniform(0, 1, size=(20, 1))
        np.testing.assert_allclose(gp_posterior(plain, xq)[0], gp_posterior(empty, xq)[0])

    def test_ragged_conditioning_centers_rejected(self):
        with pytest.raises(DomainError, match="center 1 has 3 coordinates, center 0 has 2"):
            ConditioningFn(1.0, ((1, 2), (1, 2, 3)), (1, 1), (1, 1))

    @pytest.mark.parametrize("alpha, center, width, weight", [
        (math.nan, 1.0, 1.0, 1.0),
        (math.inf, 1.0, 1.0, 1.0),
        (1.0, math.nan, 1.0, 1.0),
        (1.0, -math.inf, 1.0, 1.0),
        (1.0, 1.0, math.nan, 1.0),
        (1.0, 1.0, math.inf, 1.0),
        (1.0, 1.0, 1.0, math.nan),
        (1.0, 1.0, 1.0, -math.inf),
    ])
    def test_non_finite_conditioning_rejected(self, alpha, center, width, weight):
        with pytest.raises(ConfigError, match="must be finite"):
            ConditioningFn(alpha, ((0.0, center),), (width,), (weight,))

    def test_conditioning_query_dimension_checked(self):
        cond = ConditioningFn(1.0, ((1.0, 2.0),), (1.0,), (1.0,))
        assert cond(np.array([[1.0, 2.0]]))[0] == pytest.approx(1.0)
        for points in (np.zeros((4, 3)), np.zeros((1, 1)), np.zeros(3)):
            with pytest.raises(DomainError, match="centers have 2"):
                cond(points)
        # without centers kappa is zero at points of any dimension
        assert np.array_equal(ConditioningFn(1.0)(np.zeros((2, 5))), np.zeros(2))

    def test_duplicate_inputs_rescued_by_jitter(self):
        # singular Gram from exact duplicates: the escalating nugget makes the
        # factorization usable and the posterior lands between the two labels
        x = np.array([[1.0], [1.0]])
        y = np.array([0.0, 5.0])
        model = GpModel.build(x, y, Kernel(1.0, (1.0,)), 0.0)
        assert model.jitter > 0
        mean, _ = gp_posterior(model, np.array([1.0]))
        assert 0.0 <= mean <= 5.0

    def test_non_finite_inputs_raise_after_escalation(self):
        x = np.array([[np.inf], [np.inf]])
        y = np.array([0.0, 1.0])
        with pytest.raises(NumericalError, match="positive definite"):
            GpModel.build(x, y, Kernel(1.0, (1.0,)), 0.0)


class TestGpFit:
    def test_constant_outputs(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(10, 1))
        y = np.full(10, 4.2)
        model = gp_fit(x, y, seed=0)
        mean, _ = gp_posterior(model, rng.uniform(0, 1, size=(20, 1)))
        np.testing.assert_allclose(mean, 4.2, atol=1e-6)

    def test_interpolates_smooth_function(self):
        x = np.linspace(0, 1, 20)[:, None]
        y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 0]
        model = gp_fit(x, y, seed=0)
        mean, _ = gp_posterior(model, x)
        np.testing.assert_allclose(mean, y, atol=1e-6)

    def test_beats_random_hyperparameters(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 2, size=(15, 2))
        y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.05 * rng.normal(size=15)
        model = gp_fit(x, y, seed=0)
        fitted_lml = GpModel.build(
            x, y, model.kernel, model.noise_variance, model.prior_mean
        ).log_marginal_likelihood
        for _ in range(10):
            kernel = Kernel(float(rng.uniform(0.01, 5)), tuple(rng.uniform(0.05, 5, 2)))
            noise = float(rng.uniform(1e-6, 0.5))
            random_lml = GpModel.build(x, y, kernel, noise, model.prior_mean).log_marginal_likelihood
            assert fitted_lml >= random_lml - 1e-9

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            gp_fit(np.array([[0.0]]), np.array([1.0]))

    def test_nan_target_rejected(self):
        x = np.linspace(0, 1, 6)[:, None]
        y = np.arange(6.0)
        y[2] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            gp_fit(x, y)

    def test_infinite_input_rejected(self):
        x = np.linspace(0, 1, 6)[:, None]
        x[3, 0] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            gp_fit(x, np.arange(6.0), input_bounds=[(0.0, 1.0)])

    def test_hyper_bounds_respected(self):
        # white noise has no length scale of its own, yet the fit must keep one
        # inside the search box (on the unit box the two scales coincide)
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, size=(15, 1))
        y = rng.normal(size=15)
        model = gp_fit(x, y, input_bounds=[(0.0, 1.0)], seed=0)
        lo, hi = LENGTH_SCALE_BOUNDS
        assert lo * (1 - 1e-9) <= model.kernel.length_scales[0] <= hi * (1 + 1e-9)


class TestLikelihood:
    """gpbo._neg_lml_and_grad, the objective of gp_fit's hyperparameter search,
    against a dense oracle and central differences of its own value."""

    @staticmethod
    def _data(n, dim):
        rng = np.random.default_rng(10 * n + dim)
        x = rng.uniform(size=(n, dim))
        y = np.sin(3.0 * x).sum(1) + 0.1 * rng.normal(size=n)
        diff = x[:, None, :] - x[None, :, :]
        return x, (y - y.mean()) / y.std(), (diff * diff).reshape(n * n, dim)

    @staticmethod
    def _thetas(dim):
        typical = np.hstack(([0.2], np.log(np.linspace(0.2, 0.6, dim)), [math.log(1e-3)]))
        # with no noise the length scale stays near the point spacing, so that
        # K keeps off-diagonal terms and a condition number central
        # differences can resolve
        noise_floor = np.hstack(([0.5], np.full(dim, math.log(0.5 * 24 ** (-1 / dim))),
                                 [math.log(gpbo.NOISE_VARIANCE_BOUNDS[0])]))
        return typical, noise_floor

    @staticmethod
    def _dense_neg_lml(theta, x, y):
        dim = x.shape[1]
        scaled = x / np.exp(theta[1 : 1 + dim])
        sq = ((scaled[:, None, :] - scaled[None, :, :]) ** 2).sum(-1)
        k = math.exp(theta[0]) * np.exp(-0.5 * sq) + math.exp(theta[-1]) * np.eye(len(y))
        sign, logdet = np.linalg.slogdet(k)
        assert sign > 0
        return 0.5 * y @ np.linalg.solve(k, y) + 0.5 * logdet + 0.5 * len(y) * math.log(2 * math.pi)

    @pytest.mark.parametrize("n", [2, 12, 24])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_value_matches_dense_oracle(self, dim, n):
        x, y, sqd = self._data(n, dim)
        for theta in self._thetas(dim):
            value, _ = gpbo._neg_lml_and_grad(theta, sqd, y)
            assert value == pytest.approx(self._dense_neg_lml(theta, x, y), rel=1e-10)

    @pytest.mark.parametrize("n", [2, 12, 24])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_gradient_matches_central_differences(self, dim, n):
        _, y, sqd = self._data(n, dim)
        for theta in self._thetas(dim):
            _, grad = gpbo._neg_lml_and_grad(theta, sqd, y)
            central = central_differences(lambda t: gpbo._neg_lml_and_grad(t, sqd, y)[0], theta)
            assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(central))

    @pytest.mark.parametrize("n", [2, 12, 24])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_model_reports_the_searched_likelihood(self, dim, n):
        # GpModel.build with the hyperparameters theta encodes must report the
        # likelihood the search maximised, and keep a clean lower factor
        x, y, sqd = self._data(n, dim)
        for theta in self._thetas(dim):
            kernel = Kernel(math.exp(theta[0]), tuple(np.exp(theta[1 : 1 + dim])))
            model = GpModel.build(x, y, kernel, math.exp(theta[-1]), prior_mean=0.0)
            assert model.jitter == 0.0
            lml = model.log_marginal_likelihood
            assert lml == pytest.approx(-self._dense_neg_lml(theta, x, y), rel=1e-10)
            assert lml == pytest.approx(-gpbo._neg_lml_and_grad(theta, sqd, y)[0], rel=1e-10)
            assert not np.triu(model.chol, 1).any()

    def test_rejected_factorization_returns_inf_and_zero_gradient(self):
        # 30 identical points with no noise: K is sf2 times a rank-one matrix
        n, dim = 30, 2
        theta = np.hstack(([0.0], np.full(dim, math.log(LENGTH_SCALE_BOUNDS[1])), [-60.0]))
        value, grad = gpbo._neg_lml_and_grad(theta, np.zeros((n * n, dim)), np.zeros(n))
        assert value == np.inf
        assert grad.shape == theta.shape and not grad.any()


class TestConditionMvn:
    def test_two_dimensional_example(self):
        mean, cov = condition_mvn(
            [1.0, 2.0], np.array([[2.0, 0.5], [0.5, 1.0]]), {1: 2.0}
        )
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(1.75)

    def test_observed_value_shifts_mean(self):
        mean, _ = condition_mvn([1.0, 2.0], np.array([[2.0, 0.5], [0.5, 1.0]]), {1: 4.0})
        assert mean[0] == pytest.approx(1.0 + 0.5 * (4.0 - 2.0) / 1.0)

    def test_diagonal_cov_independence(self):
        mean, cov = condition_mvn(
            [1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]), {1: 10.0}
        )
        np.testing.assert_allclose(mean, [1.0, 3.0])
        np.testing.assert_allclose(cov, np.diag([1.0, 3.0]))

    def test_conditional_cov_ignores_observed_value(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        _, cov_a = condition_mvn([1.0, 2.0], sigma, {1: -7.0})
        _, cov_b = condition_mvn([1.0, 2.0], sigma, {1: 99.0})
        np.testing.assert_allclose(cov_a, cov_b)

    def test_conditional_cov_psd_and_shrinking(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + 0.1 * np.eye(d)
            mu = rng.normal(size=d)
            n_obs = int(rng.integers(1, d))
            obs_idx = rng.choice(d, size=n_obs, replace=False)
            observed = {int(i): float(rng.normal()) for i in obs_idx}
            cond_mean, cond_cov = condition_mvn(mu, sigma, observed)
            eigenvalues = np.linalg.eigvalsh(cond_cov)
            assert eigenvalues.min() >= -1e-9
            free = [i for i in range(d) if i not in observed]
            for row, i in enumerate(free):
                assert cond_cov[row, row] <= sigma[i, i] + 1e-12

    def test_singular_observed_block(self):
        sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NumericalError, match="nugget"):
            condition_mvn([0.0, 0.0, 0.0], sigma, {1: 1.0, 2: 1.0})

    @pytest.mark.parametrize("mean, cov, observed", [
        ([np.nan, 0.0, 0.0], np.eye(3), {1: 1.0}),
        ([0.0, 0.0, 0.0], np.eye(3), {1: np.inf}),
        ([0.0, 0.0, 0.0], np.diag([1.0, np.nan, 1.0]), {1: 1.0}),
        ([0.0, 0.0, 0.0], np.diag([np.inf, 1.0, 1.0]), {2: 1.0}),
    ])
    def test_non_finite_input_rejected(self, mean, cov, observed):
        with pytest.raises(DomainError, match="finite"):
            condition_mvn(mean, cov, observed)

    def test_observed_must_be_proper_subset(self):
        sigma = np.eye(2)
        with pytest.raises(DomainError):
            condition_mvn([0.0, 0.0], sigma, {0: 1.0, 1: 1.0})
        with pytest.raises(DomainError):
            condition_mvn([0.0, 0.0], sigma, {})
        with pytest.raises(DomainError):
            condition_mvn([0.0, 0.0], sigma, {5: 1.0})


def quadrature_ei(mu, sd, f_best, direction):
    """Numerical integral of the improvement over the posterior density."""
    def density(f):
        return math.exp(-0.5 * ((f - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

    if direction == "maximize":
        value, _ = quad(lambda f: (f - f_best) * density(f), f_best, np.inf)
    else:
        value, _ = quad(lambda f: (f_best - f) * density(f), -np.inf, f_best)
    return value


class TestExpectedImprovement:
    def test_zero_variance_at_incumbent(self):
        assert _ei_from_moments(np.float64(1.0), np.float64(0.0), 1.0, "maximize") == 0.0

    def test_zero_variance_above_incumbent(self):
        assert _ei_from_moments(np.float64(2.0), np.float64(0.0), 1.0, "maximize") == 1.0

    def test_at_incumbent_unit_sd(self):
        value = _ei_from_moments(np.float64(0.0), np.float64(1.0), 0.0, "maximize")
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_matches_quadrature_on_grid(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            mu = float(rng.uniform(-5, 5))
            sd = float(rng.uniform(0.05, 4.0))
            f_best = float(rng.uniform(-5, 5))
            direction = "maximize" if rng.random() < 0.5 else "minimize"
            closed = _ei_from_moments(np.float64(mu), np.float64(sd**2), f_best, direction)
            assert closed == pytest.approx(quadrature_ei(mu, sd, f_best, direction), abs=1e-6)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, size=(8, 1))
        y = rng.normal(size=8)
        model = GpModel.build(x, y, Kernel(1.0, (0.3,)), 0.01)
        grid = np.linspace(-0.5, 1.5, 200)[:, None]
        assert np.all(np.asarray(expected_improvement(model, grid, float(y.max()))) >= 0)

    def test_probability_of_improvement_bounds(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, size=(8, 1))
        y = rng.normal(size=8)
        model = GpModel.build(x, y, Kernel(1.0, (0.3,)), 0.01)
        grid = np.linspace(-0.5, 1.5, 100)[:, None]
        pi = np.asarray(probability_of_improvement(model, grid, float(y.max())))
        assert np.all(pi >= 0) and np.all(pi <= 1)


    @pytest.mark.parametrize("acquisition", [expected_improvement, probability_of_improvement])
    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros((3, 2)), np.zeros((1, 0))])
    def test_wrong_dimension_rejected(self, acquisition, x):
        model = GpModel.build(np.array([[0.1], [0.6]]), np.array([0.0, 1.0]),
                              Kernel(1.0, (0.3,)), 0.01)
        with pytest.raises(DomainError):
            acquisition(model, x, 1.0)


def central_differences(fn, p, h=1e-6):
    return np.array([(fn(p + h * e) - fn(p - h * e)) / (2 * h) for e in np.eye(len(p))])


class TestAcquisitionGradient:
    """_acquisition_and_grad: the value propose_next's refinement maximizes
    and its analytic gradient."""

    @staticmethod
    def _model(dim, conditioned):
        rng = np.random.default_rng(dim)
        x = rng.uniform(size=(8 * dim, dim))
        y = np.sin(3.0 * x).sum(1)
        conditioning = ConditioningFn(
            1.5, centers=(tuple(rng.uniform(size=dim)), tuple(rng.uniform(size=dim))),
            widths=(0.3, 0.5), weights=(1.0, -0.5)) if conditioned else None
        kernel = Kernel(1.3, tuple(rng.uniform(0.3, 0.8, size=dim)))
        return GpModel.build(x, y, kernel, 1e-4, conditioning=conditioning), float(np.median(y))

    @pytest.mark.parametrize("name, acquisition", [
        ("ei", expected_improvement), ("pi", probability_of_improvement)])
    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "conditioned"])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_value_and_central_differences(self, dim, conditioned, direction, name,
                                           acquisition):
        model, f_best = self._model(dim, conditioned)

        def value_at(p):
            return acquisition(model, p, f_best, direction)

        # Where Phi(z) is within 1e-6 of 0 or 1 the acquisition is flat to
        # rounding, and central differences measure that rounding, not the slope.
        rng = np.random.default_rng(100 + dim)
        points = [p for p in rng.uniform(size=(400, dim))
                  if 1e-6 < probability_of_improvement(model, p, f_best, direction) < 1 - 1e-6]
        assert len(points) >= 5
        for p in points[:5]:
            value, grad = _acquisition_and_grad(model, p, f_best, direction, name)
            assert value == pytest.approx(value_at(p), rel=1e-12)
            central = central_differences(value_at, p)
            assert np.max(np.abs(grad - central)) <= 1e-6 * np.max(np.abs(central))

    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_zero_variance_at_noise_free_training_point(self, direction):
        # dyadic inputs and length scales: the variance at x[0] is exactly 0
        x = np.array([[0.25, 0.5], [0.75, 0.25]])
        bump = ConditioningFn(2.0, centers=((0.5, 0.75),), widths=(0.4,), weights=(1.0,))
        model = GpModel.build(x, np.array([1.0, 3.0]), Kernel(1.0, (0.0625, 0.0625)), 0.0,
                              conditioning=bump)
        p = x[0]
        assert gp_posterior(model, p)[1] == 0.0
        sign = 1.0 if direction == "maximize" else -1.0
        f_best = 1.0 - 0.5 * sign  # p improves on it by 0.5

        value, grad = _acquisition_and_grad(model, p, f_best, direction, "ei")
        assert value == expected_improvement(model, p, f_best, direction) == pytest.approx(0.5)
        slope = central_differences(lambda q: expected_improvement(model, q, f_best, direction), p)
        assert np.abs(grad).min() > 0.1  # the bump's slope, not a zero vector
        np.testing.assert_allclose(grad, slope, rtol=1e-6)

        worse = f_best + sign  # p falls short of it by 0.5
        value, grad = _acquisition_and_grad(model, p, worse, direction, "ei")
        assert value == 0.0 and not grad.any()
        for incumbent, expected in ((f_best, 1.0), (worse, 0.0)):
            value, grad = _acquisition_and_grad(model, p, incumbent, direction, "pi")
            assert value == expected and not grad.any()


class TestProposeNext:
    def _model_1d(self):
        x = np.array([[0.1], [0.4], [0.9]])
        y = np.array([0.2, 0.8, 0.1])
        return GpModel.build(x, y, Kernel(1.0, (0.2,)), 1e-6)

    def test_within_bounds(self):
        model = self._model_1d()
        cfg = BoConfig(bounds=((0.0, 1.0),), budget=10, initial_design=3, seed=1)
        for seed in range(5):
            pt = propose_next(model, cfg, seed=seed)
            assert 0.0 <= pt[0] <= 1.0

    def test_dominates_raw_candidates(self):
        model = self._model_1d()
        cfg = BoConfig(bounds=((0.0, 1.0),), budget=10, initial_design=3, seed=2)
        pt = propose_next(model, cfg, seed=7)
        candidates = gpbo.sobol(1, 9, 7)  # the sweep propose_next scores
        best_raw = np.max(np.asarray(expected_improvement(model, candidates, 0.8)))
        proposal_value = float(np.asarray(expected_improvement(model, pt[None, :], 0.8))[0])
        assert proposal_value >= best_raw - 1e-12

    def test_degenerate_variance_falls_back_to_mean(self):
        # interpolating noise-free model queried where variance is ~0 everywhere:
        # shrink the box to the data span with tiny length scale -> EI ~ 0 at data,
        # so force the pure-zero case with a constant model instead
        x = np.linspace(0, 1, 40)[:, None]
        y = np.zeros(40)
        model = GpModel.build(x, y, Kernel(1e-6, (10.0,)), 0.0, prior_mean=0.0)
        cfg = BoConfig(bounds=((0.0, 1.0),), budget=10, initial_design=3, seed=3)
        pt = propose_next(model, cfg, f_best=10.0)  # nothing can improve on 10
        assert 0.0 <= pt[0] <= 1.0

    def test_deterministic_given_seed(self):
        model = self._model_1d()
        cfg = BoConfig(bounds=((0.0, 1.0),), budget=10, initial_design=3, seed=4)
        a = propose_next(model, cfg, seed=11)
        b = propose_next(model, cfg, seed=11)
        np.testing.assert_array_equal(a, b)


class TestBoRun:
    def test_budget_equals_initial_design(self):
        calls = []

        def objective(x):
            calls.append(x.copy())
            return -float((x[0] - 0.3) ** 2)

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=5, initial_design=5, seed=5)
        result = bo_run(objective, cfg)
        assert len(result.history) == 5
        assert len(calls) == 5
        assert result.best_y == max(v for _, v in result.history)

    def test_deterministic(self):
        def objective(x):
            return -float((x[0] - 0.6) ** 2 + (x[1] + 0.2) ** 2)

        cfg = BoConfig(bounds=((-1.0, 1.0), (-1.0, 1.0)), budget=14, initial_design=6, seed=6)
        a = bo_run(objective, cfg)
        b = bo_run(objective, cfg)
        assert a.best_y == b.best_y
        np.testing.assert_array_equal(a.best_x, b.best_x)
        for (xa, ya), (xb, yb) in zip(a.history, b.history):
            np.testing.assert_array_equal(xa, xb)
            assert ya == yb

    def test_minimize_direction(self):
        def objective(x):
            return float((x[0] - 0.25) ** 2)

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=18, initial_design=6, seed=7)
        result = bo_run(objective, cfg, direction="minimize")
        assert result.best_y == min(v for _, v in result.history)
        assert abs(result.best_x[0] - 0.25) < 0.1

    def test_finds_1d_optimum(self):
        def objective(x):
            return float(np.exp(-8 * (x[0] - 0.7) ** 2))

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=20, initial_design=6, seed=8)
        result = bo_run(objective, cfg)
        assert abs(result.best_x[0] - 0.7) < 0.05

    def test_each_fit_is_fresh(self, monkeypatch):
        # every fit bo_run makes equals a fit of the same observations from scratch
        fit, fits = gpbo.gp_fit, []

        def recording_fit(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        def objective(x):
            return float(np.sin(9 * x[0]) + 0.3 * x[0])

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=14, initial_design=4, seed=12)
        monkeypatch.setattr(gpbo, "gp_fit", recording_fit)
        bo_run(objective, cfg)
        assert len(fits) == cfg.budget - cfg.initial_design
        for model in fits:
            fresh = fit(model.x_train, model.y_train, input_bounds=cfg.bounds, seed=cfg.seed)
            assert fresh.kernel == model.kernel
            assert fresh.noise_variance == model.noise_variance

    def test_objective_failure_keeps_partial_history(self):
        def objective(x):
            if len(seen) >= 3:
                raise RuntimeError("simulator exploded")
            seen.append(1)
            return float(x[0])

        seen = []
        cfg = BoConfig(bounds=((0.0, 1.0),), budget=8, initial_design=4, seed=9)
        with pytest.raises(ObjectiveError) as err:
            bo_run(objective, cfg)
        assert len(err.value.history) == 3

    def test_design_evaluated_in_one_batch(self):
        batches = []

        class Objective:
            def __call__(self, x):
                batches.append(1)
                return -float((x[0] - 0.3) ** 2)

            def evaluate_many(self, x):
                batches.append(len(x))
                return -(x[:, 0] - 0.3) ** 2

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=7, initial_design=5, seed=2)
        batched = bo_run(Objective(), cfg)
        assert batches == [5, 1, 1]
        looped = bo_run(lambda x: -float((x[0] - 0.3) ** 2), cfg)
        for (xa, ya), (xb, yb) in zip(batched.history, looped.history, strict=True):
            np.testing.assert_array_equal(xa, xb)
            assert ya == yb

    def test_design_batch_checks_each_value(self):
        class Objective:
            def __call__(self, x):
                return float(x[0])

            def evaluate_many(self, x):
                values = x[:, 0].copy()
                values[2] = np.inf
                return values

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=6, initial_design=4, seed=9)
        with pytest.raises(ObjectiveError, match="non-finite value inf") as err:
            bo_run(Objective(), cfg)
        assert len(err.value.history) == 2

    def test_design_batch_failure(self):
        class Objective:
            def __call__(self, x):
                return float(x[0])

            def evaluate_many(self, x):
                raise RuntimeError("simulator exploded")

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=6, initial_design=4, seed=9)
        with pytest.raises(ObjectiveError, match="initial design") as err:
            bo_run(Objective(), cfg)
        assert err.value.history == []
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_profit_design_one_engine_call(self, catalog, monkeypatch):
        # the batched design gives each point the value a call of its own gives
        objective = ProfitObjective(catalog, SimConfig(horizon=365, replications=5, seed=3),
                                    "rq")
        cfg = BoConfig(bounds=((1.0, 5000.0),) * 4, budget=10, initial_design=8, seed=3)
        calls = count_engine_calls(monkeypatch, objectives)
        result = bo_run(objective, cfg)
        assert calls == [8 * 4 * 5, 4 * 5, 4 * 5]
        for point, value in result.history[:8]:
            assert objective(point) == value

    def test_conditioning_biases_search(self):
        # bump prior at the optimum should not hurt convergence
        cond = ConditioningFn(alpha=0.5, centers=((0.7,),), widths=(0.2,), weights=(1.0,))

        def objective(x):
            return float(np.exp(-8 * (x[0] - 0.7) ** 2))

        cfg = BoConfig(bounds=((0.0, 1.0),), budget=16, initial_design=6, seed=10)
        result = bo_run(objective, cfg, conditioning=cond)
        assert abs(result.best_x[0] - 0.7) < 0.1


class TestBoConfigValidation:
    def test_bad_bounds(self):
        with pytest.raises(ConfigError):
            BoConfig(bounds=((1.0, 0.0),), budget=5, initial_design=2)

    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            BoConfig(bounds=((0.0, 1.0),), budget=1, initial_design=2)

    def test_bad_acquisition(self):
        with pytest.raises(ConfigError):
            BoConfig(bounds=((0.0, 1.0),), budget=5, initial_design=2, acquisition="ucb")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed -1"):
            BoConfig(bounds=((0.0, 1.0),), budget=5, initial_design=2, seed=-1)
