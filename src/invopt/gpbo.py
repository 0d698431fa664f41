"""Gaussian-process regression with an additive prior-mean adjustment,
expected-improvement acquisition, multivariate-Gaussian conditioning, and a
sequential model-based optimization loop over a bounded box.

The surrogate is a GP with a squared-exponential kernel (one length scale
per input dimension).  An optional radial-bump adjustment function kappa(x)
shifts the prior mean to encode prior beliefs about promising regions;
setting it to None (or giving it no centers) recovers plain GP regression.
Hyperparameters are chosen by maximizing the log marginal likelihood with
multi-start L-BFGS-B on inputs scaled to the unit box and standardized
outputs.  One raw-LAPACK path serves the likelihood search, the fitted model
and condition_mvn: dpotrf factors (the model adds an escalating jitter when
it fails), dpotrs solves, and the likelihood's gradient forms K^-1 from
dtrtri's triangular inverse, whose bits do not depend on the BLAS thread
count.  The search builds the squared input differences once per fit as an
(n*n, d) array.  The fitted model stores everything in original units, and
caches its training inputs divided by the length scales (with their squared
row norms), from which one SE cross-kernel gives both its Gram matrix and a
query's k*.  A fit keeps no state between calls: it depends only on its data,
conditioning, input bounds and seed, so each optimization step refits from
the same starts.

A proposal scores a scrambled-Sobol sweep of the box and refines the best
candidates by L-BFGS-B in unit-box coordinates, with the closed-form gradient
of EI or PI (through the SE kernel and the conditioning bumps) instead of
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs
from scipy.optimize import minimize
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import ConfigError, DomainError, NumericalError

# Default hyperparameter bounds, applied on the unit-box / standardized scale.
LENGTH_SCALE_BOUNDS = (1e-3, 10.0)
SIGNAL_VARIANCE_BOUNDS = (1e-6, 10.0)
NOISE_VARIANCE_BOUNDS = (1e-10, 1.0)
N_RESTARTS = 8        # marginal-likelihood searches per gp_fit
N_CANDIDATES = 512    # scrambled-Sobol acquisition candidates per proposal
REFINE_TOP = 8        # best candidates refined by L-BFGS-B

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential covariance with per-dimension length scales."""

    signal_variance: float
    length_scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.signal_variance <= 0:
            raise DomainError(f"signal_variance {self.signal_variance} must be > 0")
        if any(l <= 0 for l in self.length_scales):
            raise DomainError("length scales must be > 0")

    @property
    def dim(self) -> int:
        return len(self.length_scales)


def kernel_eval(kernel: Kernel, x: Sequence[float], x2: Sequence[float]) -> float:
    """sigma_f^2 * exp(-0.5 * sum(((x_i - x2_i) / l_i)^2))."""
    xa, xb = np.asarray(x, float), np.asarray(x2, float)
    if xa.shape != (kernel.dim,) or xb.shape != (kernel.dim,):
        raise DomainError(
            f"points must be {kernel.dim}-dimensional, got {xa.shape} and {xb.shape}"
        )
    scaled = (xa - xb) / np.asarray(kernel.length_scales)
    return kernel.signal_variance * math.exp(-0.5 * float(scaled @ scaled))


def _se_cross(signal_variance: float, a: np.ndarray, a_sq: np.ndarray,
              b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """SE kernel between the rows of a and b, both already divided by the
    length scales, given their squared row norms a_sq and b_sq."""
    sq = a_sq[:, None] + b_sq[None, :] - 2.0 * a @ b.T
    return signal_variance * np.exp(-0.5 * np.maximum(sq, 0.0))


def _lml(y: np.ndarray, alpha: np.ndarray, chol: np.ndarray) -> float:
    """Log marginal likelihood of y under K = L L^T, given alpha = K^-1 y
    (Rasmussen & Williams, 2006, Alg. 2.1)."""
    return -0.5 * float(y @ alpha) - float(np.log(chol.diagonal()).sum()) \
        - 0.5 * len(y) * _LOG_2PI


@dataclass(frozen=True)
class ConditioningFn:
    """Additive prior-mean adjustment kappa(x) = alpha * u(x), where u is a
    sum of radial bumps anchored at prior-belief points.

    With no centers, kappa is identically zero.
    """

    alpha: float
    centers: tuple[tuple[float, ...], ...] = ()
    widths: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        m = len(self.centers)
        if len(self.widths) != m or len(self.weights) != m:
            raise ConfigError("centers, widths, and weights must have equal length")
        values = (self.alpha, *(v for c in self.centers for v in c), *self.widths, *self.weights)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("alpha, center coordinates, widths and weights must be finite")
        if any(w <= 0 for w in self.widths):
            raise ConfigError("bump widths must be > 0")
        for i, center in enumerate(self.centers):
            if len(center) != len(self.centers[0]):
                raise DomainError(f"center {i} has {len(center)} coordinates, "
                                  f"center 0 has {len(self.centers[0])}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, float))
        if not self.centers:
            return np.zeros(len(pts))
        if pts.shape[1] != len(self.centers[0]):
            raise DomainError(f"points have {pts.shape[1]} coordinates, "
                              f"centers have {len(self.centers[0])}")
        centers = np.asarray(self.centers, float)
        widths = np.asarray(self.widths, float)
        weights = np.asarray(self.weights, float)
        sq = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        bumps = np.exp(-0.5 * sq / widths**2)
        return self.alpha * bumps @ weights

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """d kappa / dx at one point x of shape (d,):
        -alpha * sum_j w_j b_j(x) (x - c_j) / h_j^2."""
        if not self.centers:
            return np.zeros(len(x))
        diff = x - np.asarray(self.centers, float)
        inv_h2 = 1.0 / np.asarray(self.widths, float) ** 2
        bumps = np.exp(-0.5 * np.sum(diff * diff, axis=1) * inv_h2)
        return -self.alpha * (np.asarray(self.weights, float) * bumps * inv_h2) @ diff


def _kappa(conditioning: ConditioningFn | None, x: np.ndarray) -> np.ndarray:
    if conditioning is None:
        return np.zeros(len(np.atleast_2d(x)))
    return conditioning(x)


@dataclass
class GpModel:
    """Fitted GP: data, kernel, noise, adjusted prior mean, cached Cholesky
    and scaled training inputs."""

    x_train: np.ndarray
    y_train: np.ndarray
    kernel: Kernel
    noise_variance: float
    prior_mean: float
    conditioning: ConditioningFn | None
    chol: np.ndarray = field(repr=False)
    alpha_vec: np.ndarray = field(repr=False)
    jitter: float
    log_marginal_likelihood: float
    x_scaled: np.ndarray = field(repr=False)  # x_train / length scales
    x_sq: np.ndarray = field(repr=False)      # squared row norms of x_scaled

    @classmethod
    def build(
        cls,
        x_train: np.ndarray,
        y_train: np.ndarray,
        kernel: Kernel,
        noise_variance: float,
        prior_mean: float | None = None,
        conditioning: ConditioningFn | None = None,
    ) -> "GpModel":
        """Factorize and cache a model with the given hyperparameters."""
        x = np.atleast_2d(np.asarray(x_train, float))
        y = np.asarray(y_train, float).ravel()
        if len(x) != len(y):
            raise DomainError(f"|X| = {len(x)} but |y| = {len(y)}")
        if noise_variance < 0:
            raise DomainError(f"noise_variance {noise_variance} must be >= 0")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalError(
                "covariance matrix not positive definite: training data "
                "contains non-finite values"
            )
        mean_adjust = _kappa(conditioning, x)
        if prior_mean is None:
            prior_mean = float(np.mean(y - mean_adjust))
        residual = y - mean_adjust - prior_mean
        x_scaled = x / np.asarray(kernel.length_scales)
        x_sq = np.sum(x_scaled * x_scaled, axis=1)
        gram = _se_cross(kernel.signal_variance, x_scaled, x_sq, x_scaled, x_sq)
        chol, jitter = _chol_with_escalation(gram, noise_variance, kernel.signal_variance)
        alpha_vec, _ = dpotrs(chol, residual, lower=1)
        return cls(x, y, kernel, noise_variance, prior_mean, conditioning, chol, alpha_vec,
                   jitter, _lml(residual, alpha_vec, chol), x_scaled, x_sq)


def _chol_with_escalation(
    gram: np.ndarray, noise_variance: float, signal_variance: float
) -> tuple[np.ndarray, float]:
    n = len(gram)
    if not np.all(np.isfinite(gram)):
        raise NumericalError(
            f"covariance matrix not positive definite: non-finite entries "
            f"(n={n}); check the inputs for inf/nan"
        )
    jitter = 0.0
    for attempt in range(8):
        chol, info = dpotrf(gram + (noise_variance + jitter) * np.eye(n), lower=1, clean=1)
        if info == 0:
            return chol, jitter
        jitter = signal_variance * 10.0 ** (-12 + 2 * attempt)
    raise NumericalError(
        f"covariance matrix not positive definite after jitter escalation "
        f"(n={n}, noise_variance={noise_variance:g}, last jitter={jitter:g}); "
        f"the inputs may contain duplicates with zero noise"
    )


def gp_posterior(model: GpModel, x) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at one point (d,) or a batch (m, d).

    mean(x) = m_c(x) + k(x, X) (K + s2 I)^-1 (y - m_c(X)), with m_c the
    adjusted prior mean; the variance is floored at zero.
    """
    pts, single = _query_points(model, x)
    mean, var = _posterior_terms(model, pts)[:2]
    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def _query_points(model: GpModel, x) -> tuple[np.ndarray, bool]:
    """Query points as an (m, d) array, and whether x was a single point."""
    pts = np.asarray(x, float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != model.kernel.dim:
        raise DomainError(f"query points must be {model.kernel.dim}-dimensional")
    return pts, single


def _posterior_terms(model: GpModel, pts: np.ndarray):
    """Mean and variance at validated (m, d) points, with the terms a gradient
    reuses: the scaled points a = pts / l, k* = k(pts, X) and v = L^-1 k*^T."""
    a = pts / np.asarray(model.kernel.length_scales)
    k_star = _se_cross(model.kernel.signal_variance, a, (a * a).sum(1),
                       model.x_scaled, model.x_sq)
    prior = model.prior_mean
    if model.conditioning is not None:
        prior = prior + model.conditioning(pts)
    mean = prior + k_star @ model.alpha_vec
    # L v = k*^T, solved as solve_triangular does for a C-ordered factor
    v, _ = dtrtrs(model.chol.T, k_star.T, lower=False, trans=True)
    var = np.maximum(model.kernel.signal_variance - (v * v).sum(0), 0.0)
    return mean, var, a, k_star, v


def _neg_lml_and_grad(theta: np.ndarray, sqd: np.ndarray, y: np.ndarray):
    """Negative LML and gradient wrt theta = log [sf2, l_1..d, sn2].

    sqd holds the per-dimension squared input differences as a C-contiguous
    (n*n, d) array, row i*n + j for the pair (i, j); y is the centered,
    standardized target.  K = L L^T comes from dpotrf, and K^-1 = L^-T L^-1
    from dtrtri and one product (dpotri's result depends on the BLAS thread
    count).  With M = alpha alpha^T - K^-1, each gradient entry is
    0.5 * sum(M * dK/dtheta_i) (Rasmussen & Williams, 2006, eq. 5.9).
    """
    n = len(y)
    d = sqd.shape[1]
    sf2 = math.exp(theta[0])
    inv_ell2 = np.exp(-2.0 * theta[1 : 1 + d])
    sn2 = math.exp(theta[-1])
    k_se = sf2 * np.exp(-0.5 * (sqd @ inv_ell2))
    k_full = k_se.reshape(n, n).copy()
    k_full.flat[:: n + 1] += sn2
    chol, info = dpotrf(k_full, lower=1, clean=1)
    if info != 0:
        return np.inf, np.zeros_like(theta)
    alpha, _ = dpotrs(chol, y, lower=1)
    chol_inv, _ = dtrtri(chol, lower=1)
    m = np.outer(alpha, alpha) - chol_inv.T @ chol_inv
    mk = (m * k_se.reshape(n, n)).ravel()
    grad = np.empty_like(theta)
    grad[0] = 0.5 * float(mk.sum())
    grad[1 : 1 + d] = 0.5 * (mk @ sqd) * inv_ell2
    grad[-1] = 0.5 * float(m.trace()) * sn2
    return -_lml(y, alpha, chol), -grad


def gp_fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    conditioning: ConditioningFn | None = None,
    input_bounds: Sequence[tuple[float, float]] | None = None,
    seed: int = 0,
) -> GpModel:
    """Fit kernel and noise hyperparameters by maximum marginal likelihood.

    Inputs are scaled to the unit box (using input_bounds, or the data range)
    and outputs standardized for the search, which runs L-BFGS-B from
    N_RESTARTS starts: a fixed default and random ones drawn from `seed`,
    within the *_BOUNDS boxes.  The returned model carries the equivalent
    original-scale hyperparameters and depends only on the arguments.
    """
    x = np.atleast_2d(np.asarray(x_train, float))
    y = np.asarray(y_train, float).ravel()
    n, d = x.shape
    if n != len(y):
        raise DomainError(f"|X| = {n} but |y| = {len(y)}")
    if n < 2:
        raise DomainError("gp_fit requires at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericalError("gp_fit: training data contains non-finite values")

    if input_bounds is None:
        lo, hi = x.min(axis=0), x.max(axis=0)
    else:
        bounds_arr = np.asarray(input_bounds, float)
        lo, hi = bounds_arr[:, 0], bounds_arr[:, 1]
    width = np.where(hi > lo, hi - lo, 1.0)
    x_scaled = (x - lo) / width

    mean_adjust = _kappa(conditioning, x)
    residual = y - mean_adjust
    center = float(np.mean(residual))
    sd = float(np.std(residual - center))
    if sd <= 0 or not math.isfinite(sd):
        sd = 1.0
    y_scaled = (residual - center) / sd

    diff = x_scaled[:, None, :] - x_scaled[None, :, :]
    sqd = (diff * diff).reshape(n * n, d)

    box = [SIGNAL_VARIANCE_BOUNDS] + [LENGTH_SCALE_BOUNDS] * d + [NOISE_VARIANCE_BOUNDS]
    log_bounds = [(math.log(a), math.log(b)) for a, b in box]
    lo_b, hi_b = np.array(log_bounds).T
    rng = np.random.default_rng(seed)
    starts = [np.hstack(([0.0], np.full(d, math.log(0.3)), [math.log(1e-4)]))]
    starts += [rng.uniform(lo_b, hi_b) for _ in range(N_RESTARTS - 1)]

    best_theta, best_val = None, np.inf
    for start in starts:
        res = minimize(
            _neg_lml_and_grad, start, args=(sqd, y_scaled),
            method="L-BFGS-B", jac=True, bounds=log_bounds,
            options={"maxiter": 200},
        )
        if res.fun < best_val:
            best_val, best_theta = res.fun, res.x
    if best_theta is None:
        raise NumericalError("marginal-likelihood optimization failed for every start")

    sf2 = math.exp(best_theta[0]) * sd**2
    ell = np.exp(best_theta[1 : 1 + d]) * width
    sn2 = math.exp(best_theta[-1]) * sd**2
    kernel = Kernel(sf2, tuple(float(l) for l in ell))
    return GpModel.build(x, y, kernel, sn2, prior_mean=center, conditioning=conditioning)


def condition_mvn(
    mean: Sequence[float],
    cov: np.ndarray,
    observed: Mapping[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Condition a multivariate Gaussian on exact values for some coordinates.

    Returns the mean and covariance of the unobserved coordinates (in their
    original order): mu_a + S_ab S_bb^-1 (x_b - mu_b) and
    S_aa - S_ab S_bb^-1 S_ba.
    """
    mu = np.asarray(mean, float)
    sigma = np.asarray(cov, float)
    dim = len(mu)
    if sigma.shape != (dim, dim):
        raise DomainError(f"cov shape {sigma.shape} does not match mean length {dim}")
    if not observed:
        raise DomainError("observed map must not be empty")
    obs_idx = sorted(observed)
    if any(i < 0 or i >= dim for i in obs_idx):
        raise DomainError(f"observed indices {obs_idx} outside 0..{dim - 1}")
    if len(obs_idx) >= dim:
        raise DomainError("observed indices must be a proper subset of the coordinates")
    free_idx = [i for i in range(dim) if i not in observed]
    x_b = np.array([observed[i] for i in obs_idx], float)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and np.isfinite(x_b).all()):
        raise DomainError("mean, cov and observed values must be finite")

    s_aa = sigma[np.ix_(free_idx, free_idx)]
    s_ab = sigma[np.ix_(free_idx, obs_idx)]
    s_bb = sigma[np.ix_(obs_idx, obs_idx)]
    chol, info = dpotrf(s_bb, lower=1)
    if info != 0:
        raise NumericalError("observed-block covariance is singular; add a diagonal nugget")
    gain = dpotrs(chol, s_ab.T, lower=1)[0].T
    cond_mean = mu[free_idx] + gain @ (x_b - mu[obs_idx])
    cond_cov = s_aa - gain @ s_ab.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return cond_mean, cond_cov


def expected_improvement(
    model: GpModel, x, f_best: float, direction: str = "maximize"
) -> float | np.ndarray:
    """Closed-form expected improvement over the incumbent f_best."""
    pts, single = _query_points(model, x)
    out = _ei_from_moments(*_posterior_terms(model, pts)[:2], f_best, direction)
    return float(out[0]) if single else out


def _improvement(mean, f_best: float, direction: str):
    if direction == "maximize":
        return mean - f_best
    if direction == "minimize":
        return f_best - mean
    raise ConfigError(f"direction {direction!r} not 'maximize' or 'minimize'")


def _ei_from_moments(mean, var, f_best: float, direction: str):
    improve = _improvement(mean, f_best, direction)
    sd = np.sqrt(var)
    positive = sd > 0
    every = positive.all()
    # a point with zero sd has the improvement itself, floored at zero, as its EI
    z = improve / sd if every else np.where(positive, improve / np.where(positive, sd, 1.0), 0.0)
    ei = improve * ndtr(z) + sd * (np.exp(-0.5 * z * z) / _SQRT_2PI)
    out = ei if every else np.where(positive, ei, np.maximum(improve, 0.0))
    return float(out) if np.ndim(out) == 0 else out


def probability_of_improvement(
    model: GpModel, x, f_best: float, direction: str = "maximize"
) -> float | np.ndarray:
    """Phi(z): probability that x improves on the incumbent."""
    pts, single = _query_points(model, x)
    out = _pi_from_moments(*_posterior_terms(model, pts)[:2], f_best, direction)
    return float(out[0]) if single else out


def _pi_from_moments(mean, var, f_best: float, direction: str):
    improve = _improvement(mean, f_best, direction)
    sd = np.sqrt(var)
    z = np.where(sd > 0, improve / np.where(sd > 0, sd, 1.0), np.where(improve > 0, np.inf, -np.inf))
    return ndtr(z)


def _acquisition_and_grad(
    model: GpModel, x: np.ndarray, f_best: float, direction: str, acquisition: str
) -> tuple[float, np.ndarray]:
    """EI ("ei") or PI ("pi") at one point x of shape (d,), and its gradient.

    With the SE kernel, dk_i/dx = -k_i (x - X_i) / l^2, so
    d mean = d kappa + alpha^T dk and d var = -2 (K^-1 k)^T dk; then
    d EI = Phi(z) d improve + phi(z) d sd and
    d PI = phi(z) (d improve - z d sd) / sd.  A point with zero variance
    has EI = max(improve, 0), and takes that function's gradient.
    """
    mean, var, a, k_star, v = _posterior_terms(model, x[None, :])
    if acquisition == "ei":
        value = float(_ei_from_moments(mean, var, f_best, direction)[0])
    else:
        value = float(_pi_from_moments(mean, var, f_best, direction)[0])
    improve = float(_improvement(mean[0], f_best, direction))
    # K^-1 k = L^-T v; the rows of (x_scaled - a) / l * k are dk_i/dx
    k_inv_k, _ = dtrtrs(model.chol.T, v, lower=False)
    weights = np.vstack((model.alpha_vec, -2.0 * k_inv_k[:, 0])) * k_star
    d_mean, d_var = weights @ (model.x_scaled - a) / np.asarray(model.kernel.length_scales)
    if model.conditioning is not None:
        d_mean = d_mean + model.conditioning.gradient(x)
    d_improve = d_mean if direction == "maximize" else -d_mean
    sd = math.sqrt(var[0])
    if sd == 0.0:
        if acquisition == "ei" and improve > 0.0:
            return value, d_improve
        return value, np.zeros_like(d_improve)
    z = improve / sd
    d_sd = d_var / (2.0 * sd)
    pdf = math.exp(-0.5 * z * z) / _SQRT_2PI
    if acquisition == "ei":
        return value, float(ndtr(z)) * d_improve + pdf * d_sd
    return value, pdf * (d_improve - z * d_sd) / sd


@dataclass(frozen=True)
class BoConfig:
    """Search box, budget, and seeds for one optimization run."""

    bounds: tuple[tuple[float, float], ...]
    budget: int
    initial_design: int = 8
    acquisition: str = "ei"     # "ei" or "pi"
    seed: int = 0               # drives the design and candidate generation

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ConfigError("bounds must not be empty")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigError(f"invalid bound ({lo}, {hi}): lo must be < hi")
        if self.initial_design < 2:
            raise ConfigError(f"initial_design {self.initial_design} must be >= 2")
        if self.budget < self.initial_design:
            raise ConfigError(
                f"budget {self.budget} must be >= initial_design {self.initial_design}"
            )
        if self.acquisition not in ("ei", "pi"):
            raise ConfigError(f"acquisition {self.acquisition!r} not 'ei' or 'pi'")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])


class ObjectiveError(NumericalError):
    """Objective evaluation failed; .history holds the points seen so far."""

    def __init__(self, message: str, history: list[tuple[np.ndarray, float]]):
        super().__init__(message)
        self.history = history


def propose_next(
    model: GpModel,
    cfg: BoConfig,
    f_best: float | None = None,
    direction: str = "maximize",
    seed: int | None = None,
) -> np.ndarray:
    """Acquisition argmax over the box: a scrambled-Sobol candidate sweep
    followed by local refinement of the best candidates.

    Each refinement is an L-BFGS-B run in unit-box coordinates, started at
    the candidate's Sobol point, with the acquisition's analytic gradient.
    Deterministic for a fixed seed.  Ties within 1e-12 of the maximum break
    toward the lexicographically smallest point; if the acquisition is zero
    everywhere (no predicted improvement), the candidate with the best
    posterior mean is returned instead.
    """
    if f_best is None:
        f_best = float(np.max(model.y_train) if direction == "maximize"
                       else np.min(model.y_train))
    sampler = qmc.Sobol(cfg.dim, scramble=True, seed=cfg.seed if seed is None else seed)
    base = sampler.random_base2(int(math.log2(N_CANDIDATES)))
    lo, span = cfg.lo, cfg.hi - cfg.lo
    candidates = lo + base * span
    acquire = expected_improvement if cfg.acquisition == "ei" else probability_of_improvement
    acq = acquire(model, candidates, f_best, direction)

    if float(np.max(acq)) <= 1e-16:
        mean, _ = gp_posterior(model, candidates)
        order = np.argsort(mean)
        pick = order[-1] if direction == "maximize" else order[0]
        return candidates[pick].copy()

    pool_pts = [candidates]
    pool_acq = [acq]
    top = np.argsort(acq)[-REFINE_TOP:]

    def neg_acq_and_grad(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _acquisition_and_grad(model, lo + u * span, f_best, direction,
                                            cfg.acquisition)
        return -value, -grad * span

    for idx in top:
        res = minimize(neg_acq_and_grad, base[idx], method="L-BFGS-B", jac=True,
                       bounds=[(0.0, 1.0)] * cfg.dim)
        z = np.clip(lo + res.x * span, lo, cfg.hi)
        pool_pts.append(z[None, :])
        pool_acq.append(np.array([-res.fun]))

    all_pts = np.vstack(pool_pts)
    all_acq = np.hstack(pool_acq)
    best = float(np.max(all_acq))
    tied = np.flatnonzero(all_acq >= best - 1e-12)
    lex = np.lexsort(all_pts[tied].T[::-1])
    return all_pts[tied[lex[0]]].copy()


@dataclass(frozen=True)
class BoResult:
    best_x: np.ndarray
    best_y: float
    history: tuple[tuple[np.ndarray, float], ...]


def bo_run(
    objective: Callable[[np.ndarray], float],
    cfg: BoConfig,
    conditioning: ConditioningFn | None = None,
    direction: str = "maximize",
) -> BoResult:
    """Sequential optimization: a Latin-hypercube initial design, then
    fit-propose-evaluate until the evaluation budget is exhausted.

    Deterministic given cfg.seed, provided the objective is a deterministic
    function of x (a simulated objective should fix its common-random-numbers
    seed, as ProfitObjective does through its SimConfig).  An objective with
    an `evaluate_many(points)` method gets the whole initial design in one
    call; every value is still checked at its own point.
    """
    history: list[tuple[np.ndarray, float]] = []

    def record(pt: np.ndarray, val: float) -> None:
        if not math.isfinite(val):
            raise ObjectiveError(
                f"objective returned non-finite value {val} at {pt.tolist()}", history
            )
        history.append((pt.copy(), val))

    def evaluate(pt: np.ndarray) -> None:
        try:
            val = float(objective(pt))
        except Exception as exc:
            raise ObjectiveError(
                f"objective evaluation failed at {pt.tolist()}: {exc}", history
            ) from exc
        record(pt, val)

    design = qmc.LatinHypercube(cfg.dim, seed=cfg.seed)
    init_pts = cfg.lo + design.random(cfg.initial_design) * (cfg.hi - cfg.lo)
    evaluate_many = getattr(objective, "evaluate_many", None)
    if evaluate_many is None:
        for pt in init_pts:
            evaluate(pt)
    else:  # the whole design in one batch
        try:
            values = np.asarray(evaluate_many(init_pts), float).reshape(len(init_pts))
        except Exception as exc:
            raise ObjectiveError(
                f"objective evaluation failed on the initial design: {exc}", history
            ) from exc
        for pt, val in zip(init_pts, values):
            record(pt, float(val))

    for iteration in range(cfg.initial_design, cfg.budget):
        x_obs = np.array([p for p, _ in history])
        y_obs = np.array([v for _, v in history])
        model = gp_fit(x_obs, y_obs, conditioning, input_bounds=cfg.bounds, seed=cfg.seed)
        step_seed = int(np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(iteration,)).generate_state(1)[0])
        x_next = propose_next(model, cfg, direction=direction, seed=step_seed)
        evaluate(x_next)

    values = np.array([v for _, v in history])
    best = int(np.argmax(values) if direction == "maximize" else np.argmin(values))
    return BoResult(history[best][0].copy(), float(values[best]),
                    tuple((p.copy(), v) for p, v in history))
