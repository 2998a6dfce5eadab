"""Independent reference implementations used to cross-check the engine.

Everything here avoids the code paths it is checking, on purpose:

* group means accumulate with ``math.fsum`` over plain floats;
* the normal CDF comes from a power series / continued fraction for erf,
  not from ``scipy.special``;
* Monte Carlo sampling draws raw uniforms from the counter-based Philox
  generator keyed by ``(seed, chunk_index)`` and maps them through a hand
  Box-Muller transform, so no library normal sampler or inverse CDF is
  involved, and results are reproducible by construction;
* the Cholesky factor for correlated draws is the textbook loop.

Slow and simple is the point; none of this is exported for production use.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "cell_mean",
    "group_mean_delta",
    "normal_cdf",
    "bivariate_orthant",
    "mc_ratio",
    "mc_orthant",
]

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _select(outcome, arm, label, mask) -> list[float]:
    label = str(label)
    keep = [True] * len(outcome) if mask is None else [bool(v) for v in mask]
    return [
        float(y)
        for y, a, k in zip(outcome, arm, keep)
        if k and str(a) == label
    ]


def cell_mean(outcome, arm, label, mask=None) -> float:
    """Mean outcome of one arm's rows (optionally within a row mask)."""
    values = _select(outcome, arm, label, mask)
    if not values:
        raise ValueError(f"no rows for arm {label!r} in oracle cell")
    return math.fsum(values) / len(values)


def group_mean_delta(outcome, arm, arm_to, arm_from, mask=None) -> float:
    """Difference of two arms' mean outcomes, accumulated with fsum."""
    return cell_mean(outcome, arm, arm_to, mask) - cell_mean(outcome, arm, arm_from, mask)


def _erf_series(t: float) -> float:
    # erf(t) = 2/sqrt(pi) * exp(-t^2) * sum_n t (2 t^2)^n / (1*3*...*(2n+1)).
    # Every term is positive, so there is no cancellation for small t.
    term = t
    total = t
    tt = 2.0 * t * t
    n = 0
    while True:
        n += 1
        term *= tt / (2 * n + 1)
        total += term
        if term <= 1e-17 * total or n > 200:
            break
    return _TWO_OVER_SQRT_PI * math.exp(-t * t) * total


def _erfc_cf(t: float) -> float:
    # Continued fraction sqrt(pi) e^{t^2} erfc(t) = 1/(t + (1/2)/(t + 1/(t +
    # (3/2)/(t + ...)))), evaluated by the modified Lentz algorithm. Used for
    # large t where the series would need the cancellation-prone complement.
    tiny = 1e-300
    f = t if t != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, 300):
        a = n / 2.0
        d = t + a * d
        if d == 0.0:
            d = tiny
        c = t + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-t * t) / math.sqrt(math.pi) / f


def normal_cdf(x: float) -> float:
    """Standard normal CDF from first principles (series + continued
    fraction for erf), accurate to ~1e-14 absolute."""
    t = abs(x) / _SQRT2
    if t <= 2.0:
        half = 0.5 * _erf_series(t)
        return 0.5 + half if x >= 0 else 0.5 - half
    tail = 0.5 * _erfc_cf(t)
    return 1.0 - tail if x >= 0 else tail


def bivariate_orthant(rho: float) -> float:
    """Exact P(Z1 > 0, Z2 > 0) for standard bivariate normal Z with
    correlation rho: 1/4 + asin(rho) / (2 pi)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def _standard_normals(seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Deterministic standard normals for one chunk: raw Philox uniforms
    keyed by (seed, chunk_index), mapped through Box-Muller."""
    pairs = (count + 1) // 2
    raw = np.random.Generator(
        np.random.Philox(key=[np.uint64(seed), np.uint64(chunk_index)])
    )
    u1 = 1.0 - raw.random(pairs)  # (0, 1]; log stays finite
    u2 = raw.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def _cholesky(matrix) -> np.ndarray:
    a = [[float(v) for v in row] for row in np.asarray(matrix, dtype=np.float64).tolist()]
    m = len(a)
    chol = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            s = math.fsum(chol[i][k] * chol[j][k] for k in range(j))
            if i == j:
                d = a[i][i] - s
                if d <= 0.0:
                    raise ValueError("oracle cholesky: matrix is not positive definite")
                chol[i][i] = math.sqrt(d)
            else:
                chol[i][j] = (a[i][j] - s) / chol[j][j]
    return np.asarray(chol)


def _correlated_normals(mu: np.ndarray, chol: np.ndarray, n_samples: int, seed: int,
                        chunk: int):
    """``n_samples`` draws of N(mu, chol chol^T), ``chunk`` rows at a time:
    chunk i maps the standard normals keyed by (seed, i) through ``chol``."""
    m = mu.shape[0]
    for index, done in enumerate(range(0, n_samples, chunk)):
        take = min(chunk, n_samples - done)
        yield _standard_normals(seed, index, take * m).reshape(take, m) @ chol.T + mu


def mc_ratio(mean, cov, n_samples: int = 2**17, seed: int = 0,
             chunk: int = 2**13) -> tuple[float, float]:
    """Monte Carlo mean of R/S for (R, S) jointly normal.

    Returns ``(estimate, standard_error)``. Chunked fixed-key sampling plus
    fsum accumulation makes the result exactly reproducible for a seed.
    """
    mu = np.asarray(mean, dtype=np.float64)
    chol = _cholesky(cov)
    if mu.shape != (2,) or chol.shape != (2, 2):
        raise ValueError("mc_ratio expects a 2-vector mean and 2x2 covariance")
    sums: list[float] = []
    squares: list[float] = []
    for x in _correlated_normals(mu, chol, n_samples, seed, chunk):
        ratio = x[:, 0] / x[:, 1]
        sums.append(math.fsum(ratio.tolist()))
        squares.append(math.fsum((ratio * ratio).tolist()))
    estimate = math.fsum(sums) / n_samples
    second = math.fsum(squares) / n_samples
    variance = max(second - estimate * estimate, 0.0)
    return estimate, math.sqrt(variance / n_samples)


def mc_orthant(mean, cov, n_samples: int = 2**17, seed: int = 0,
               chunk: int = 2**13) -> tuple[float, float]:
    """Monte Carlo estimate of P(Z > 0) for Z ~ N(mean, cov).

    Returns ``(estimate, standard_error)`` with the binomial standard error.
    The variance is floored at 1/n so a zero (or full) hit count reports the
    rule-of-three uncertainty scale instead of an impossible zero error.
    """
    mu = np.asarray(mean, dtype=np.float64)
    draws = _correlated_normals(mu, _cholesky(cov), n_samples, seed, chunk)
    hits = sum(int(np.all(x > 0.0, axis=1).sum()) for x in draws)
    p = hits / n_samples
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
