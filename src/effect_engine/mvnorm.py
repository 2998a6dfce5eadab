"""Multivariate-normal orthant probability P(Z > 0).

One and two dimensions have closed forms: the normal CDF, and Genz's (2004)
bivariate normal algorithm after Drezner & Wesolowsky (1990), Gauss-Legendre
on Plackett's one-dimensional integral over the correlation. From three
dimensions on, the estimator is the separation-of-variables form of the
integral (sequential conditioning through the Cholesky factor) driven by
randomized quasi-Monte Carlo: scrambled Sobol points, a batch of independent
scramblings, and the spread of the batch means as the error estimate.
Points double until the error target is met or the point budget runs out.
Each orthant draws its scramblings once, and a doubling integrates only
each sequence's next 2**k points: points 0 to 2**k - 1 of a scrambled Sobol
sequence are a prefix of points 0 to 2**(k+1) - 1 under the same scramble
(Genz & Bretz 2009). So no point is made or integrated twice. The sequences
have m - 1 dimensions, since the last conditional probability draws no
quantile.

The Sobol points are made here, with numpy alone: Joe & Kuo (2008) direction
numbers, the first rows of ``sobol_directions.npz`` next to this module (the
table scipy distributes, stored as ``uint32`` in C order), with Matoušek's
(1998) random linear matrix scramble and a digital shift. For a
``SeedSequence`` child they are bit for bit the points of
``scipy.stats.qmc.Sobol(d, scramble=True, seed=np.random.default_rng(child))``:
``random_base2(k)`` and then each ``random(n)`` that continues it (scipy
1.17).
"""

from __future__ import annotations

import math
import zipfile
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

# The 20-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, the negative ones mirroring them. Written out, as numpy.polynomial
# costs 0.6 MB of memory to import.
_GL_X = (
    0.0765265211334973337546404, 0.2277858511416450780804962, 0.3737060887154195606725482,
    0.5108670019508270980043641, 0.6360536807265150254528367, 0.7463319064601507926143051,
    0.8391169718222188233945291, 0.9122344282513259058677524, 0.9639719272779137912676661,
    0.9931285991850949247861224)
_GL_W = (
    0.1527533871307258506980843, 0.1491729864726037467878287, 0.1420961093183820513292983,
    0.1316886384491766268984945, 0.1181945319615184173123774, 0.1019301198172404350367501,
    0.0832767415767047487247581, 0.0626720483341090635695065, 0.0406014298003869413310400,
    0.0176140071391521183118620)
# The rule moved to [0, 2], as Genz (2004) writes it, as (node, weight)
# pairs: half of a node there is the fraction of the integration range it
# sits at.
_GL_RULE = tuple(zip([1.0 - x for x in _GL_X] + [1.0 + x for x in _GL_X], _GL_W + _GL_W))

# A bound on the absolute error of the bivariate closed form at the limits
# and correlation it is given. Against a 30-digit mpmath quadrature it was
# at most 1.9e-16 over 3,000 random limits and correlations up to 1e-9
# from +-1; a Tier-1 test holds it.
BIVARIATE_ERROR = 1e-15

# Standardized limits past this are treated as infinite: Phi(-40) is below
# the smallest double.
_BVN_LIMIT = 40.0

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

    ``method`` names the path: ``"closed_form_1d"``, ``"closed_form_2d"``,
    ``"qmc"`` or ``"degenerate"``. ``error`` is three standard errors of
    the batch means for QMC, a stated bound for the bivariate closed form
    (:func:`_bivariate_orthant`), and zero for the normal CDF and the
    degenerate paths. ``points`` counts the QMC points behind the final estimate, which are
    also the points integrated (no level integrates a point an earlier
    level did); it is zero on every other path.
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


def _bvn_upper(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals X and Y with correlation ``r``:
    Genz's (2004) ``bvnu``, with the 20-point rule for every ``r``, in
    scalar arithmetic: 20 nodes are too few to pay for numpy arrays.

    For |r| < 0.925 it integrates Plackett's form, the derivative of the
    probability in the correlation, over asin of it. Nearer to +-1 that
    integrand peaks; Genz's form there integrates the difference from the
    r = +-1 limit in sqrt(1 - r**2), after taking out the terms of its
    asymptotic expansion. At r = +-1 the probability is exact.
    """
    h = min(max(h, -_BVN_LIMIT), _BVN_LIMIT)
    k = min(max(k, -_BVN_LIMIT), _BVN_LIMIT)
    two_pi = 2.0 * math.pi
    hk = h * k
    if abs(r) < 0.925:
        asr = math.asin(r) / 2.0
        hs = (h * h + k * k) / 2.0
        plackett = 0.0
        for x, w in _GL_RULE:
            sn = math.sin(asr * x)
            plackett += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = plackett * asr / two_pi + float(ndtr(-h)) * float(ndtr(-k))
        return min(max(bvn, 0.0), 1.0)
    if r < 0:
        k, hk = -k, -hk
    bvn = 0.0
    if abs(r) < 1:
        as_ = (1.0 - r) * (1.0 + r)
        a = math.sqrt(as_)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 80.0
        asr = -(bs / as_ + hk) / 2.0
        if asr > -100:
            bvn = a * math.exp(asr) * (1 - c * (bs - as_) * (1 - d * bs) / 3 + c * d * as_ * as_)
        if hk > -100:
            b = math.sqrt(bs)
            sp = math.sqrt(two_pi) * float(ndtr(-b / a))
            bvn -= math.exp(-hk / 2.0) * sp * b * (1 - c * bs * (1 - d * bs) / 3)
        a /= 2.0
        tail = 0.0
        for x, w in _GL_RULE:
            xs = (a * x) ** 2
            asr = -(bs / xs + hk) / 2.0
            if asr > -100:
                rs = math.sqrt(1 - xs)
                sp = 1 + c * xs * (1 + 5 * d * xs)
                ep = math.exp(-(hk / 2.0) * xs / (1 + rs) ** 2) / rs
                tail += w * math.exp(asr) * (sp - ep)
        bvn = (a * tail - bvn) / two_pi
    if r > 0:
        bvn += float(ndtr(-max(h, k)))
    elif h >= k:
        bvn = -bvn
    else:
        lower = ndtr(k) - ndtr(h) if h < 0 else ndtr(-h) - ndtr(-k)
        bvn = float(lower) - bvn
    return min(max(bvn, 0.0), 1.0)


def _bivariate_orthant(mu: np.ndarray, sigma: np.ndarray) -> OrthantResult:
    """P(Z > 0) for Z ~ N(mu, sigma) in two dimensions, sigma not zero and
    symmetric: :func:`_bvn_upper` at the standardized limits, or the normal
    CDF of the one component that varies, times the indicator of the other.
    A covariance is refused as indefinite where the largest jitter of
    :func:`_cholesky_with_jitter` would not make it semidefinite.

    The error is :data:`BIVARIATE_ERROR` plus the most that rounding the
    correlation (by up to 4 units in its last place) can move the
    probability. Its derivative in asin(rho) is at most 1 / (2 pi)
    (Plackett), so that term grows only near rho = +-1, where a
    probability is that sensitive to its covariance."""
    a, b, c = max(float(sigma[0, 0]), 0.0), max(float(sigma[1, 1]), 0.0), float(sigma[0, 1])
    jitter = _JITTERS[-1] * (a + b) / 2.0
    if c * c > (a + jitter) * (b + jitter):
        raise ValueError("covariance is not positive semidefinite")
    if a == 0.0 or b == 0.0:
        (fixed, varies), var = ((0, 1), b) if a == 0.0 else ((1, 0), a)
        prob = float(mu[fixed] > 0) * float(ndtr(mu[varies] / math.sqrt(var)))
        return OrthantResult(prob, BIVARIATE_ERROR, "closed_form_2d", 0)
    rho = min(max(c / (math.sqrt(a) * math.sqrt(b)), -1.0), 1.0)
    slack = 2.0**-51 * abs(rho)
    moved = (math.asin(min(abs(rho) + slack, 1.0)) - math.asin(abs(rho) - slack)) / (2 * math.pi)
    prob = _bvn_upper(-float(mu[0]) / math.sqrt(a), -float(mu[1]) / math.sqrt(b), rho)
    return OrthantResult(prob, BIVARIATE_ERROR + moved, "closed_form_2d", 0)


def _leading_rows(table: zipfile.ZipFile, name: str, m: int) -> list:
    """The first ``m`` rows of the array ``name`` in the ``.npz`` archive
    ``table``, as lists. The array is stored in C order, so only those rows
    are inflated."""
    with table.open(f"{name}.npy") as stored:
        np.lib.format.read_magic(stored)
        shape, _, dtype = np.lib.format.read_array_header_1_0(stored)
        row = dtype.itemsize * math.prod(shape[1:])
        return np.frombuffer(stored.read(m * row), dtype).reshape((-1, *shape[1:])).tolist()


@lru_cache(maxsize=None)
def _sobol_directions(m: int) -> np.ndarray:
    """Unscrambled direction numbers of the first ``m`` dimensions, (m, 30).

    Bratley & Fox (1988) recurrence on the primitive polynomials and initial
    numbers of Joe & Kuo (2008); column j holds an odd integer below 2**(j+1)
    shifted up to bit 29 - j. The first dimension is the van der Corput
    sequence.
    """
    with zipfile.ZipFile(Path(__file__).with_name("sobol_directions.npz")) as table:
        poly, vinit = (_leading_rows(table, name, m) for name in ("poly", "vinit"))
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

    One dimension short-circuits to the exact normal CDF, and two to the
    bivariate closed form (``"closed_form_2d"``), whose ``error`` is a
    stated bound and whose ``points`` is 0; neither reads ``tol`` or
    ``seed``. From three dimensions on, the variables are reordered by
    ascending marginal probability (hardest constraint integrated first),
    and randomized-QMC batches double, each sequence continued where the
    last level stopped, until three standard errors of the batch means drop
    below ``tol`` or the per-batch budget of ``2**MAX_LOG2_POINTS`` points
    is reached; the result always reports its own error, so a cap hit is
    visible rather than silent.

    ``seed`` takes a ``numpy.random.SeedSequence`` or its entropy (an int
    or a sequence of ints); fixed seeds give bit-identical results. At most
    21201 dimensions are supported.
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
    if m == 2:
        return _bivariate_orthant(mu, sigma)

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
