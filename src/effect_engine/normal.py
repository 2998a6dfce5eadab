"""Standard normal CDF and quantile in numpy.

``ndtr`` is Cody's (1969) rational Chebyshev approximation of erf and erfc
(the coefficients of his CALERF), and ``ndtri`` Wichura's (1988) algorithm
AS 241 (PPND16). Both take a scalar or an array and work on whole arrays:
the first branch of each is evaluated on every element at once, and the
others only on the elements in their ranges, gathered by index. Each
rational function is one Horner recurrence, in place, over its numerator
and denominator stacked, so an array of n costs a few dozen passes over n
elements and allocates a handful of arrays of that size.

``exp(-x*x)`` is evaluated directly, as cephes (and so ``scipy.special``)
does; and like cephes, ``ndtr`` returns 0 below -37.68, where the CDF
would be subnormal.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ndtr", "ndtri"]

_SQRT1_2 = 0.70710678118654752440
_RSQRT_PI = 0.56418958354775628695  # 1/sqrt(pi)
_MAXLOG = 7.09782712893383996843e2  # exp underflows to subnormal past this


def _stack(num, den, scale: float = 1.0) -> np.ndarray:
    """Coefficients of a rational function for :func:`_rational`: a (d+1, 2, 1)
    array whose k-th row holds the numerator's and the denominator's k-th
    coefficient, highest degree first, the shorter one padded with leading
    zeros. ``scale`` multiplies the numerator (by a power of two it changes
    no bit of the quotient)."""
    d = max(len(num), len(den))
    out = np.zeros((d, 2, 1))
    out[d - len(num):, 0, 0] = np.multiply(num, scale)
    out[d - len(den):, 1, 0] = den
    return out


def _rational(coefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Numerator over denominator at ``x``: one Horner recurrence over the
    stacked pair, in place in one (2, n) array."""
    acc = np.multiply(coefs[0], x)
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= x
        acc += c
    num, den = acc
    num /= den
    return num


# Cody (1969): erf(x) = x A(x^2) / B(x^2) for |x| <= 0.46875; erfc(x) =
# exp(-x^2) C(x) / D(x) for 0.46875 < x <= 4; erfc(x) = exp(-x^2) / x
# (1/sqrt(pi) - P(1/x^2) / (x^2 Q(1/x^2))) past 4. The CDF is half of
# erfc, or 0.5 + erf / 2, so the 0.5 goes into the numerators.
_ERF_SPLIT = 0.46875
_ERFC_SPLIT = 4.0
_ERF = _stack((1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
               3.77485237685302021e2, 3.20937758913846947e3),
              (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
               2.84423683343917062e3), 0.5)
_ERFC_MID = _stack((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
                    6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
                    1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
                   (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
                    1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
                    3.43936767414372164e3, 1.23033935480374942e3), 0.5)
_ERFC_TAIL = _stack((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
                    (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
                     6.05183413124413191e-2, 2.33520497626869185e-3), 0.5)

# Wichura (1988), AS 241: x = q A(r) / B(r) with r = 0.180625 - q^2 for
# |q| = |p - 0.5| <= 0.425; past that, with r = sqrt(-log(min(p, 1 - p))),
# x = C(r - 1.6) / D(r - 1.6) up to r = 5 and E(r - 5) / F(r - 5) beyond.
_AS_SPLIT1 = 0.425
_AS_SPLIT2 = 5.0
_AS_AB = _stack((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
                 4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
                 1.3314166789178437745e2, 3.3871328727963666080e0),
                (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
                 2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
                 4.2313330701600911252e1, 1.0))
_AS_CD = _stack((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
                 1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
                 4.63033784615654529590e0, 1.42343711074968357734e0),
                (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
                 1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
                 2.05319162663775882187e0, 1.0))
_AS_EF = _stack((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
                 2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
                 5.46378491116411436990e0, 6.65790464350110377720e0),
                (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
                 7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
                 5.99832206555887937690e-1, 1.0))


def _erfc_branch(x: np.ndarray) -> np.ndarray:
    """The CDF from erfc(|x|) / 2 for |x| > 0.46875: that half for x < 0,
    and 1 minus it for x > 0."""
    y = np.abs(x)
    out = _rational(_ERFC_MID, y)
    ysq = np.multiply(y, y)
    np.negative(ysq, out=ysq)
    out *= np.exp(ysq, out=ysq)
    tail = np.flatnonzero(y > _ERFC_SPLIT)
    if tail.size:
        yt = y[tail]
        ysq = yt * yt
        inv = 1.0 / ysq
        half = _rational(_ERFC_TAIL, inv)
        half *= inv
        np.subtract(0.5 * _RSQRT_PI, half, out=half)
        half /= yt
        half *= np.exp(-ysq)
        half[ysq > _MAXLOG] = 0.0  # where exp(-y^2) would be subnormal
        out[tail] = half
    # (x > 0) - copysign(half, x) is 1 - half for x > 0 and half for x < 0
    np.copysign(out, x, out=out)
    np.subtract(x > 0.0, out, out=out)
    return out


def ndtr(t):
    """Standard normal CDF, P(Z <= t), from erf(x) for |x| <= 0.46875 and
    erfc(|x|) beyond, with x = t / sqrt(2). NaN gives NaN; -inf and inf
    give 0 and 1.

    The erf branch, the cheaper one, is evaluated on every element; only
    the elements past it are gathered for the erfc branch.
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.multiply(t, _SQRT1_2).ravel()
    # the erf branch overflows past its range, and y = inf makes C/D nan
    # before its tail value is written; both are overwritten
    with np.errstate(invalid="ignore", over="ignore"):
        out = _rational(_ERF, x * x)
        out *= x
        out += 0.5
        far = np.flatnonzero(np.abs(x) > _ERF_SPLIT)  # a NaN stays in the erf branch
        if far.size:
            out[far] = _erfc_branch(x[far])
    return out.reshape(t.shape)[()]


def ndtri(p):
    """Standard normal quantile, the t with P(Z <= t) = p, by AS 241. 0 and 1
    give -inf and inf; p outside [0, 1] or NaN gives NaN.

    The central branch, which covers 85% of uniform probabilities, is
    evaluated on every element at once; only the tails are gathered.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    # log(0) for p in {0, 1} and log of a negative for p outside [0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = flat - 0.5
        r = np.multiply(q, q)
        np.subtract(0.180625, r, out=r)
        out = _rational(_AS_AB, r)
        out *= q
        tail = np.flatnonzero(np.abs(q, out=r) > _AS_SPLIT1)
        if tail.size:
            pt = flat[tail]
            rt = np.minimum(pt, 1.0 - pt)
            np.sqrt(np.negative(np.log(rt, out=rt), out=rt), out=rt)
            x = _rational(_AS_CD, rt - 1.6)
            far = np.flatnonzero(~(rt <= _AS_SPLIT2))
            if far.size:
                rf = rt[far]
                xf = _rational(_AS_EF, rf - 5.0)
                xf[rf == np.inf] = np.inf
                x[far] = xf
            out[tail] = np.copysign(x, q[tail], out=x)
    return out.reshape(p.shape)[()]
