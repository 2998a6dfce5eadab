"""Randomized-QMC orthant probabilities."""

import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from conftest import cli_env
from effect_engine.mvnorm import mvn_orthant


def equicorrelated(m, rho):
    return (1 - rho) * np.eye(m) + rho * np.ones((m, m))


def test_one_dimension_is_exact():
    res = mvn_orthant([0.5], [[4.0]])
    assert res.method == "closed_form_1d"
    assert res.error == 0.0
    assert res.points == 0
    assert_allclose(res.probability, ndtr(0.25), rtol=0, atol=1e-15)
    # Scalars are accepted too.
    assert mvn_orthant(0.5, 4.0).probability == res.probability


def test_degenerate_zero_covariance_is_point_mass():
    assert mvn_orthant([1.0, 2.0], np.zeros((2, 2))).probability == 1.0
    assert mvn_orthant([1.0, -2.0], np.zeros((2, 2))).probability == 0.0
    res = mvn_orthant([3.0], [[0.0]])
    assert res.method == "degenerate"
    assert res.probability == 1.0


def test_bivariate_centered_identity():
    # P(Z1 > 0, Z2 > 0) = 1/4 + asin(rho) / (2 pi) for centered unit-variance
    # pairs; standard result via the arcsine law.
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
        exact = 0.25 + np.arcsin(rho) / (2 * np.pi)
        res = mvn_orthant(np.zeros(2), equicorrelated(2, rho), tol=5e-4, seed=3)
        assert res.method == "qmc"
        assert res.error <= 5e-4
        assert abs(res.probability - exact) < 5e-4, rho


def test_trivariate_equicorrelated():
    # 1/8 + 3 asin(rho) / (4 pi); at rho = 1/2 this is exactly 1/4.
    res = mvn_orthant(np.zeros(3), equicorrelated(3, 0.5), tol=2e-4, seed=4)
    assert abs(res.probability - 0.25) < 2e-4
    for rho in (-0.4, 0.3):
        exact = 0.125 + 3 * np.arcsin(rho) / (4 * np.pi)
        res = mvn_orthant(np.zeros(3), equicorrelated(3, rho), tol=2e-4, seed=5)
        assert abs(res.probability - exact) < 2e-4, rho


def test_independent_orthant_is_product():
    res = mvn_orthant(np.zeros(4), np.eye(4), tol=2e-4, seed=6)
    assert abs(res.probability - 0.5**4) < 2e-4


def test_shifted_mean():
    # Independent coordinates: P = prod Phi(mu_i / sigma_i).
    mu = np.array([0.3, -0.2, 1.1])
    var = np.array([1.0, 4.0, 0.25])
    exact = float(np.prod(ndtr(mu / np.sqrt(var))))
    res = mvn_orthant(mu, np.diag(var), tol=2e-4, seed=7)
    assert abs(res.probability - exact) < 2e-4


def test_singular_covariance_uses_jitter():
    # Rank-one covariance: both coordinates are the same N(0,1) draw, so the
    # orthant probability is a single CDF evaluation.
    cov = np.ones((2, 2))
    res = mvn_orthant([0.3, 0.3], cov, tol=5e-4, seed=8)
    assert abs(res.probability - ndtr(0.3)) < 1e-3


def test_indefinite_covariance_rejected():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="not positive semidefinite"):
        mvn_orthant([0.0, 0.0], cov)


def test_seed_determinism():
    cov = equicorrelated(3, 0.4)
    a = mvn_orthant(np.zeros(3), cov, seed=11)
    b = mvn_orthant(np.zeros(3), cov, seed=11)
    assert a.probability == b.probability
    assert a.error == b.error
    assert a.points == b.points
    c = mvn_orthant(np.zeros(3), cov, seed=12)
    assert c.probability != a.probability
    d = mvn_orthant(np.zeros(3), cov, seed=np.random.SeedSequence(11))
    assert d.probability == a.probability


def test_budget_cap_reports_honest_error():
    res = mvn_orthant(np.zeros(2), equicorrelated(2, 0.3), tol=1e-12, seed=13,
                      min_log2_points=10, max_log2_points=10)
    assert res.points == 10 * 2**10
    assert res.error > 1e-12  # cap hit; the reported error says so


def test_validation_errors():
    with pytest.raises(ValueError, match="covariance has shape"):
        mvn_orthant([0.0, 0.0], np.eye(3))
    with pytest.raises(ValueError, match="must be finite"):
        mvn_orthant([np.nan, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="not symmetric"):
        mvn_orthant([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])
    with pytest.raises(ValueError, match="negative diagonal"):
        mvn_orthant([0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="tol must be positive"):
        mvn_orthant([0.0, 0.0], np.eye(2), tol=0.0)
    with pytest.raises(ValueError, match="at least 2 batches"):
        mvn_orthant([0.0, 0.0], np.eye(2), batches=1)


def test_orthant_probability_monotone_in_mean():
    # Raising one mean component enlarges the orthant event stochastically,
    # so the probability must climb well past the integration error.
    cov = equicorrelated(3, 0.3)
    shifts = [-1.0, -0.5, 0.0, 0.5, 1.0]
    results = [mvn_orthant([s, 0.2, -0.1], cov, seed=11) for s in shifts]
    for lo, hi in zip(results, results[1:]):
        assert hi.probability - lo.probability > 3 * (hi.error + lo.error)


def _loads_scipy_stats(code):
    """Whether running ``code`` in a fresh interpreter imports scipy.stats."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('scipy.stats' in sys.modules)"],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_scipy_stats_is_imported_only_by_qmc_orthants():
    # scipy.stats dominates the package's import time; startup must not pay it.
    assert not _loads_scipy_stats("import effect_engine.cli")
    orthant = "from effect_engine.mvnorm import mvn_orthant\nmvn_orthant"
    assert not _loads_scipy_stats(f"{orthant}([0.5], [[1.0]])")
    assert _loads_scipy_stats(f"{orthant}([0.5, 0.5], [[1.0, 0.5], [0.5, 1.0]])")
