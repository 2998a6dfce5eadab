"""Multivariate-normal orthant probability P(Z > 0).

The estimator is the separation-of-variables form of the integral (sequential
conditioning through the Cholesky factor) driven by randomized quasi-Monte
Carlo: scrambled Sobol points, a batch of independent scramblings, and the
spread of the batch means as the error estimate. Points double until the
error target is met or the point budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["OrthantResult", "mvn_orthant"]

# Jitter scales tried (relative to mean diagonal) when the covariance is
# semidefinite and plain Cholesky fails.
_JITTERS = (0.0, 1e-10, 1e-8)

# Quantile arguments are clipped away from {0, 1} so ndtri stays finite.
_Q_LO = 1e-300
_Q_HI = 1.0 - 1e-16


@dataclass(frozen=True)
class OrthantResult:
    """Orthant probability with its estimated absolute error.

    ``error`` is three standard errors of the batch means (zero for the
    closed-form and degenerate paths). ``points`` counts the quadrature
    points behind the final estimate.
    """

    probability: float
    error: float
    method: str
    points: int

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "error": self.error,
            "method": self.method,
            "points": self.points,
        }


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    m = cov.shape[0]
    scale = float(np.trace(cov)) / m
    for eps in _JITTERS:
        try:
            return np.linalg.cholesky(cov + eps * scale * np.eye(m))
        except np.linalg.LinAlgError:
            continue
    raise ValueError("covariance is not positive semidefinite")


def _sov_batch(b: np.ndarray, chol: np.ndarray, u: np.ndarray) -> float:
    """Mean separation-of-variables integrand over one block of points.

    Computes P(V <= b) for V ~ N(0, chol @ chol.T): each point follows the
    conditional quantile path w_i = ndtri(u_i * e_i) and contributes the
    product of the conditional probabilities e_i.
    """
    npts, m = u.shape
    f = np.ones(npts)
    w = np.zeros((npts, m))
    for i in range(m):
        partial = w[:, :i] @ chol[i, :i]
        t = (b[i] - partial) / chol[i, i]
        e = ndtr(t)
        f *= e
        if i < m - 1:
            w[:, i] = ndtri(np.clip(u[:, i] * e, _Q_LO, _Q_HI))
    return float(f.mean())


def mvn_orthant(mean, cov, tol: float = 5e-4, seed=None, batches: int = 10,
                min_log2_points: int = 10, max_log2_points: int = 17) -> OrthantResult:
    """Probability that every component of N(mean, cov) is positive.

    One dimension short-circuits to the exact normal CDF. Otherwise the
    variables are reordered by ascending marginal probability (hardest
    constraint integrated first), and randomized-QMC batches grow until
    three standard errors of the batch means drop below ``tol`` or the
    per-batch budget of ``2**max_log2_points`` points is reached; the
    result always reports its own error, so a cap hit is visible rather
    than silent.

    ``seed`` takes an int or a ``numpy.random.SeedSequence``; fixed seeds
    give bit-identical results.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    m = mu.shape[0]
    if mu.ndim != 1 or sigma.shape != (m, m):
        raise ValueError(f"mean has length {m} but covariance has shape {sigma.shape}")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("mean and covariance must be finite")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ValueError("covariance is not symmetric")
    if np.any(np.diag(sigma) < -1e-12):
        raise ValueError("covariance has a negative diagonal entry")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if batches < 2:
        raise ValueError("need at least 2 batches to estimate the error")
    sigma = (sigma + sigma.T) / 2.0

    if m == 1:
        var = max(float(sigma[0, 0]), 0.0)
        if var == 0.0:
            return OrthantResult(float(mu[0] > 0), 0.0, "degenerate", 0)
        prob = float(ndtr(mu[0] / np.sqrt(var)))
        return OrthantResult(prob, 0.0, "closed_form_1d", 0)

    diag = np.clip(np.diag(sigma), 0.0, None)
    if float(diag.sum()) == 0.0:
        return OrthantResult(float(np.all(mu > 0)), 0.0, "degenerate", 0)

    # P(Z > 0) == P(V <= mu) for V ~ N(0, sigma).
    marginal = ndtr(mu / np.sqrt(np.where(diag > 0, diag, np.finfo(float).tiny)))
    order = np.argsort(marginal, kind="stable")
    b = mu[order]
    chol = _cholesky_with_jitter(sigma[np.ix_(order, order)])

    # Imported here, not at module level: scipy.stats is most of the
    # package's import time, and only orthants with m >= 2 need it.
    from scipy.stats import qmc

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    estimate, error, points = np.nan, np.inf, 0
    for k in range(min_log2_points, max_log2_points + 1):
        means = np.empty(batches)
        for j, child in enumerate(ss.spawn(batches)):
            engine = qmc.Sobol(d=m, scramble=True, seed=np.random.default_rng(child))
            means[j] = _sov_batch(b, chol, engine.random_base2(k))
        estimate = float(means.mean())
        error = 3.0 * float(means.std(ddof=1)) / np.sqrt(batches)
        points = batches * 2**k
        if error <= tol:
            break
    return OrthantResult(float(np.clip(estimate, 0.0, 1.0)), error, "qmc", points)
