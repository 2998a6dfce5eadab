"""Multivariate-normal orthant probability P(Z > 0).

The estimator is the separation-of-variables form of the integral (sequential
conditioning through the Cholesky factor) driven by randomized quasi-Monte
Carlo: scrambled Sobol points, a batch of independent scramblings, and the
spread of the batch means as the error estimate. Points double until the
error target is met or the point budget runs out. Each orthant draws its
scramblings once, and a doubling integrates only each sequence's next 2**k
points: points 0 to 2**k - 1 of a scrambled Sobol sequence are a prefix of
points 0 to 2**(k+1) - 1 under the same scramble (Genz & Bretz 2009). So no
point is made or integrated twice. The sequences have m - 1 dimensions,
since the last conditional probability draws no quantile.

The Sobol points are made here, with numpy alone: Joe & Kuo (2008) direction
numbers, read from ``sobol_directions.npz`` next to this module (the table
scipy distributes, stored as ``uint32``), with Matoušek's (1998) random
linear matrix scramble and a digital shift. For a ``SeedSequence`` child they
are bit for bit the points of ``scipy.stats.qmc.Sobol(d, scramble=True,
seed=np.random.default_rng(child))``: ``random_base2(k)`` and then each
``random(n)`` that continues it (scipy 1.17).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .normal import ndtr, ndtri

__all__ = ["OrthantResult", "mvn_orthant"]

# Jitter scales tried (relative to mean diagonal) when the covariance is
# semidefinite and plain Cholesky fails.
_JITTERS = (0.0, 1e-10, 1e-8)

# Quantile arguments are clipped away from {0, 1} so ndtri stays finite.
_Q_LO = 1e-300
_Q_HI = 1.0 - 1e-16

# Sobol points carry 30 bits (scipy's default), so a sequence holds at most
# 2**30 points; the direction-number table has a row for each of 21201
# dimensions.
_SOBOL_BITS = 30
_SOBOL_MAX_DIM = 21201
_BIT = np.arange(_SOBOL_BITS)
_LSB_WEIGHTS = np.uint32(1) << _BIT.astype(np.uint32)
_MSB_WEIGHTS = _LSB_WEIGHTS[::-1].copy()
# Row p of a lower-triangular L packed from bit 29 down keeps bits 29 - p to 29.
_LOWER_ROWS = np.uint32(2**_SOBOL_BITS) - _MSB_WEIGHTS

# Each level integrates BATCHES independent scramblings of 2**k points, for
# k from MIN_LOG2_POINTS up to MAX_LOG2_POINTS (the per-batch budget). A
# floor of 2**8 was slower than 2**9 on the segments_bayes benchmark's
# orthants: more of them climb a level, and an integrand call costs about
# 0.4 ms however few its points (m = 5, 10 stacked scramblings).
BATCHES = 10
MIN_LOG2_POINTS = 9
MAX_LOG2_POINTS = 17

# The integrand is evaluated on blocks of at most this many points: as many
# scramblings stacked as fit, or a slice of one. Over fewer points numpy's
# cost per call dominates; over many more, each pass falls out of cache.
_BLOCK_POINTS = 2**14


@dataclass(frozen=True)
class OrthantResult:
    """Orthant probability with its estimated absolute error.

    ``error`` is three standard errors of the batch means (zero for the
    closed-form and degenerate paths). ``points`` counts the quadrature
    points behind the final estimate, which are also the points integrated:
    no level integrates a point an earlier level did.
    """

    probability: float
    error: float
    method: str
    points: int


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    m = cov.shape[0]
    scale = float(np.trace(cov)) / m
    for eps in _JITTERS:
        try:
            return np.linalg.cholesky(cov + eps * scale * np.eye(m))
        except np.linalg.LinAlgError:
            continue
    raise ValueError("covariance is not positive semidefinite")


@lru_cache(maxsize=None)
def _sobol_directions(m: int) -> np.ndarray:
    """Unscrambled direction numbers of the first ``m`` dimensions, (m, 30).

    Bratley & Fox (1988) recurrence on the primitive polynomials and initial
    numbers of Joe & Kuo (2008); column j holds an odd integer below 2**(j+1)
    shifted up to bit 29 - j. The first dimension is the van der Corput
    sequence.
    """
    with np.load(Path(__file__).with_name("sobol_directions.npz")) as rows:
        poly = rows["poly"][:m].tolist()
        vinit = rows["vinit"][:m].tolist()
    v = [[1] * _SOBOL_BITS]
    for p, init in zip(poly[1:], vinit[1:]):
        deg = p.bit_length() - 1
        row = init[:deg]
        for j in range(deg, _SOBOL_BITS):
            new = row[j - deg]
            for k in range(deg):
                if (p >> (deg - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v.append(row)
    out = np.array(v, dtype=np.uint32) << (_SOBOL_BITS - 1 - _BIT).astype(np.uint32)
    out.flags.writeable = False
    return out


def _scrambles(d: int, children: Sequence[np.random.SeedSequence]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The digital shifts, (d, S), and scrambled direction numbers,
    (d, S, 30), of one scrambled Sobol sequence per child (S children).

    Each child scrambles as ``qmc.Sobol(d, scramble=True,
    seed=np.random.default_rng(child))`` does. That engine spawns its own
    generator and draws 30 shift bits per dimension (bit i weighs 2**i),
    then a 30 x 30 matrix L per dimension, kept lower triangular with a
    unit diagonal. Each bit is the top bit of one 32-bit draw, and PCG64
    hands out the low half of each 64-bit output before its high half, so
    the bits are read from ``random_raw`` directly. A scrambled direction
    number is L times the bits of the plain one over GF(2), both read from
    bit 29 down: its bit 29 - p is the parity of row p of L ANDed with the
    plain number.
    """
    per_child = d * _SOBOL_BITS * (1 + _SOBOL_BITS)
    raw = np.stack([np.random.PCG64(child.spawn(1)[0]).random_raw(per_child // 2)
                    for child in children])
    bits = np.empty((len(children), per_child), dtype=np.uint32)
    bits[:, 0::2] = (raw >> 31) & 1
    bits[:, 1::2] = raw >> 63
    shifts = bits[:, :d * _SOBOL_BITS].reshape(-1, d, _SOBOL_BITS) @ _LSB_WEIGHTS
    rows = bits[:, d * _SOBOL_BITS:].reshape(-1, d, _SOBOL_BITS, _SOBOL_BITS) @ _MSB_WEIGHTS
    rows = (rows & _LOWER_ROWS) | _MSB_WEIGHTS
    rows = rows.transpose(1, 0, 2)
    plain = _sobol_directions(d)[:, None, :, None]
    parity = np.bitwise_count(rows[:, :, None, :] & plain) & 1
    return shifts.T, parity @ _MSB_WEIGHTS


def _sobol_points(shifts: np.ndarray, directions: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Points ``lo`` to ``hi - 1`` of each scrambled sequence of
    :func:`_scrambles`, a (d, S, hi - lo) array.

    Points follow the Gray code: point i is the shift XOR the direction
    numbers at the set bits of i ^ (i >> 1), so point i is point i - 1 XOR
    the direction number indexed by the trailing zeros of i. Point ``lo`` is
    made directly and the rest by that recurrence, so any run of points
    costs only its own length.
    """
    gray = lo ^ (lo >> 1)
    used = [j for j in range(_SOBOL_BITS) if gray >> j & 1]
    i = np.arange(lo + 1, hi)
    steps = np.bitwise_count((i & -i) - 1)
    words = np.empty(shifts.shape + (hi - lo,), dtype=np.uint32)
    words[..., 0] = shifts ^ np.bitwise_xor.reduce(directions[..., used], axis=-1)
    words[..., 1:] = directions[..., steps]
    return np.bitwise_xor.accumulate(words, axis=-1) * 2.0**-_SOBOL_BITS


def _sov_batch(b: np.ndarray, chol: np.ndarray, first: float, u: np.ndarray) -> np.ndarray:
    """The separation-of-variables integrand at each point (column) of ``u``.

    Its mean is P(V <= b) for V ~ N(0, chol @ chol.T): each point follows the
    conditional quantile path w_i = ndtri(u_i * e_i) and its value is the
    product of the conditional probabilities e_i = ndtr(t_i), where t_i is
    b_i less the chol[i, :i] @ w[:i] that the path fixes, over chol[i, i].
    Row i of ``rest`` holds b_i less the part fixed so far, so each w_j is
    taken off every later row at once. The first e, ``first``, is
    ndtr(b_0 / chol[0, 0]) at every point, since nothing is fixed yet; so
    ``u`` has m - 1 rows.
    """
    m, npts = b.shape[0], u.shape[1]
    rest = np.empty((m, npts))
    rest[:] = b[:, None]
    e = first
    f = np.full(npts, e)
    for i in range(1, m):
        p = u[i - 1] * e
        w = ndtri(np.clip(p, _Q_LO, _Q_HI, out=p))
        rest[i:] -= chol[i:, i - 1, None] * w
        t = rest[i]
        t /= chol[i, i]
        e = ndtr(t)
        f *= e
    return f


def _point_sums(b: np.ndarray, chol: np.ndarray, first: float, shifts: np.ndarray,
                directions: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum of the integrand over points ``lo`` to ``hi - 1`` of each
    scrambled sequence (:func:`_scrambles`), one per scrambling.

    The integrand is evaluated in blocks of at most ``_BLOCK_POINTS``
    points: as many scramblings stacked as fit, or a slice of one. Each
    scrambling's values are summed together, so the block size does not
    change the bits; no more than one block's points are held at once.
    """
    d, n = shifts.shape[0], hi - lo
    per_stack = max(1, _BLOCK_POINTS // n)
    step = min(n, _BLOCK_POINTS)
    sums = []
    for s in range(0, shifts.shape[1], per_stack):
        stack = slice(s, s + per_stack)
        f = np.concatenate([
            _sov_batch(b, chol, first,
                       _sobol_points(shifts[:, stack], directions[:, stack], r, r + step)
                       .reshape(d, -1)).reshape(-1, step)
            for r in range(lo, hi, step)], axis=1)
        sums.append(f.sum(axis=1))
    return np.concatenate(sums)


def mvn_orthant(mean, cov, tol: float = 5e-4, seed=None) -> OrthantResult:
    """Probability that every component of N(mean, cov) is positive.

    One dimension short-circuits to the exact normal CDF. Otherwise the
    variables are reordered by ascending marginal probability (hardest
    constraint integrated first), and randomized-QMC batches double,
    each sequence continued where the last level stopped, until three
    standard errors of the batch means drop below ``tol`` or the per-batch
    budget of ``2**MAX_LOG2_POINTS`` points is reached; the
    result always reports its own error, so a cap hit is visible rather
    than silent.

    ``seed`` takes an int or a ``numpy.random.SeedSequence``; fixed seeds
    give bit-identical results. At most 21201 dimensions are supported.
    """
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    sigma = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    m = mu.shape[0]
    if mu.ndim != 1 or sigma.shape != (m, m):
        raise ValueError(f"mean has length {m} but covariance has shape {sigma.shape}")
    if m > _SOBOL_MAX_DIM:
        raise ValueError(f"at most {_SOBOL_MAX_DIM} dimensions are supported, got {m}")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("mean and covariance must be finite")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ValueError("covariance is not symmetric")
    if np.any(np.diag(sigma) < -1e-12):
        raise ValueError("covariance has a negative diagonal entry")
    if tol <= 0:
        raise ValueError("tol must be positive")
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

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    shifts, directions = _scrambles(m - 1, ss.spawn(BATCHES))
    first = ndtr(b[0] / chol[0, 0])
    sums, done = np.zeros(BATCHES), 0
    for k in range(MIN_LOG2_POINTS, MAX_LOG2_POINTS + 1):
        sums += _point_sums(b, chol, first, shifts, directions, done, 2**k)
        done = 2**k
        means = sums / done
        estimate = float(means.mean())
        error = 3.0 * float(means.std(ddof=1)) / float(np.sqrt(BATCHES))
        if error <= tol:
            break
    return OrthantResult(float(np.clip(estimate, 0.0, 1.0)), error, "qmc", BATCHES * done)
