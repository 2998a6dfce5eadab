"""The numpy normal CDF and quantile against scipy.special and the oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri

from effect_engine.normal import ndtr, ndtri
from effect_engine.oracles import normal_cdf

TINY = np.finfo(np.float64).tiny
SUBNORMAL = np.finfo(np.float64).smallest_subnormal

# The clips mvnorm puts on quantile arguments, and the CDF's range over them.
Q_LO, Q_HI = 1e-300, 1.0 - 1e-16
T_GRID = np.linspace(-38.0, 9.0, 94_001)
P_GRID = np.concatenate([np.geomspace(Q_LO, 0.5, 60_001), np.linspace(0.0, 1.0, 20_001)[1:-1],
                         1.0 - np.geomspace(1e-16, 0.5, 30_001)])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_ndtr_matches_scipy_over_the_integrand_range():
    got, want = ndtr(T_GRID), scipy_ndtr(T_GRID)
    normal = want >= TINY
    assert _max_rel(got[normal], want[normal]) <= 1e-14
    # Below -37.5 the CDF is subnormal, where one unit in the last place is
    # a large fraction of the value; both flush to 0 below -37.68.
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.max(np.abs(got[~normal] - want[~normal])) <= 4 * SUBNORMAL


def test_ndtr_matches_oracle():
    # The oracle is accurate to about 1e-14 absolute (its docstring).
    ts = T_GRID[::40]
    want = np.array([normal_cdf(t) for t in ts])
    assert_allclose(ndtr(ts), want, rtol=0, atol=1e-14)
    normal = want >= TINY
    assert _max_rel(ndtr(ts)[normal], want[normal]) <= 1e-12


def test_ndtri_matches_scipy_over_the_clipped_range():
    got, want = ndtri(P_GRID), scipy_ndtri(P_GRID)
    nonzero = want != 0.0
    assert _max_rel(got[nonzero], want[nonzero]) <= 1e-14
    assert np.all(got[~nonzero] == 0.0)
    assert ndtri(Q_LO) == pytest.approx(-37.0471, abs=1e-4)


def test_ndtri_inverts_ndtr():
    # Up to t = 3: beyond it ndtr(t) rounds too close to 1 to pin t down.
    ts = np.linspace(-37.0, 3.0, 4001)
    assert_allclose(ndtri(ndtr(ts)), ts, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("t, want", [(0.0, 0.5), (np.inf, 1.0), (-np.inf, 0.0), (1.0, None)])
def test_ndtr_special_values(t, want):
    want = scipy_ndtr(t) if want is None else want
    assert ndtr(t) == pytest.approx(want, rel=1e-15, abs=0)
    assert np.isnan(ndtr(np.nan))


@pytest.mark.parametrize("p, want", [(0.0, -np.inf), (1.0, np.inf), (0.5, 0.0)])
def test_ndtri_special_values(p, want):
    assert ndtri(p) == want
    for bad in (np.nan, -0.5, 1.5, np.inf):
        assert np.isnan(ndtri(bad))


@pytest.mark.parametrize("fn, arg", [(ndtr, np.array([[-40.0, -6.0, -0.3], [0.0, 0.3, 6.0]])),
                                     (ndtri, np.array([[1e-300, 1e-20, 0.2], [0.5, 0.93, 1.0]]))])
def test_scalar_and_array_inputs(fn, arg):
    out = fn(arg)
    assert out.shape == arg.shape and out.dtype == np.float64
    for idx in np.ndindex(arg.shape):
        scalar = fn(float(arg[idx]))
        assert np.ndim(scalar) == 0
        assert np.float64(scalar).tobytes() == out[idx].tobytes()
    # A scalar of either kind gives a scalar.
    assert np.ndim(fn(np.float64(0.25))) == 0
    assert fn([0.25])[0] == fn(0.25)


def test_no_floating_point_warnings(recwarn):
    # Underflow in the far tails is expected, and numpy ignores it by default.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        ndtr(np.array([-np.inf, -40.0, -30.0, -1.0, 0.0, 0.2, 5.0, 30.0, np.inf, np.nan]))
        ndtri(np.array([0.0, 1e-300, 1e-12, 0.3, 0.5, 0.99, 1.0 - 1e-16, 1.0, np.nan]))
    assert not recwarn.list
