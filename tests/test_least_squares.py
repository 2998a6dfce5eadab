"""The least-squares path: one R-only QR of [X | y] and an in-place design.

``fit_ols`` is checked against an in-test reference that forms Q explicitly
(the factorization it replaced), its sandwiches against a 60-digit one on a
near-collinear design, ``build_design`` against the block-and-``hstack``
construction it replaced, byte for byte, and both against a traced-memory
bound: at most two n x p arrays are held at once. The in-place QR rests on
numpy's private ``lapack_lite.dgeqrf``, whose contract is pinned here.
"""

import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.linalg import lapack_lite
from numpy.testing import assert_array_equal
from scipy.linalg import solve_triangular

from effect_engine.data import Dataset
from effect_engine.model import (ModelSpec, _qr_r, build_design, build_schema,
                                 covariate_matrix, fit_bayes, fit_ols)

KINDS = ("classical", "hc1", "cluster")


def _explicit_q_fit(X, y, kind, cluster_ids):
    """Reference fit: reduced QR with Q formed, beta = R^-1 Q'y, and the
    same three covariance formulas."""
    n, p = X.shape
    Q, R = np.linalg.qr(X, mode="reduced")
    beta = solve_triangular(R, Q.T @ y)
    resid = y - X @ beta
    r_inv = solve_triangular(R, np.eye(p))
    bread = r_inv @ r_inv.T
    if kind == "classical":
        cov = float(resid @ resid) / (n - p) * bread
    else:
        xe = X * resid[:, None]
        if kind == "hc1":
            cov = bread @ (xe.T @ xe) @ bread * (n / (n - p))
        else:
            levels, group = np.unique(np.asarray(cluster_ids), return_inverse=True)
            G = len(levels)
            scores = np.zeros((G, p))
            np.add.at(scores, group, xe)
            cov = bread @ (scores.T @ scores) @ bread * ((G / (G - 1)) * ((n - 1) / (n - p)))
    return beta, (cov + cov.T) / 2.0


def _regression(rng, n, scales):
    """Intercept plus normal columns multiplied by ``scales``, with true
    coefficients divided by them so every column moves y by O(1)."""
    scales = np.asarray(scales, dtype=float)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, len(scales))) * scales])
    coef = np.concatenate([[1.0], rng.normal(size=len(scales)) / scales])
    y = X @ coef + rng.standard_t(4, size=n) * (1.0 + np.abs(X[:, 1] / scales[0]))
    return X, y


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scales, cond", [
    ((1.0, 1.0, 1.0, 1.0), (1.0, 10.0)),
    ((1e4, 1.0, 1e-4, 1.0), (1e7, 1e9)),
], ids=["well-conditioned", "condition-1e8"])
def test_fit_matches_explicit_q_reference(kind, scales, cond):
    rng = np.random.default_rng(31)
    n = 900
    X, y = _regression(rng, n, scales)
    assert cond[0] < np.linalg.cond(X) < cond[1]
    ids = [f"g{i % 45}" for i in range(n)]
    model = fit_ols(X, y, kind, cluster_ids=ids if kind == "cluster" else None)
    beta, cov = _explicit_q_fit(X, y, kind, ids)
    assert np.max(np.abs(model.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
    assert np.max(np.abs(model.cov_beta - cov)) <= 1e-12 * np.max(np.abs(cov))


def test_lapack_lite_dgeqrf_factors_in_place():
    # numpy calls lapack_lite "private but present"; fit_ols relies on it
    # taking a C-contiguous array, factoring it in place and returning info.
    rng = np.random.default_rng(37)
    n, k = 500, 7
    xy = np.asfortranarray(rng.normal(size=(n, k)))
    want = np.linalg.qr(xy, mode="r")
    a = xy.T
    assert a.flags.c_contiguous and np.shares_memory(a, xy)
    tau, work = np.empty(k), np.empty(1)
    assert lapack_lite.dgeqrf(n, k, a, n, tau, work, -1, 0)["info"] == 0
    assert work[0] >= k
    work = np.empty(int(work[0]))
    assert lapack_lite.dgeqrf(n, k, a, n, tau, work, work.size, 0)["info"] == 0
    assert np.triu(xy[:k]).tobytes() == want.tobytes()
    # _qr_r makes the same calls.
    again = np.asfortranarray(rng.normal(size=(n, k)))
    assert _qr_r(again.copy(order="F")).tobytes() == np.linalg.qr(again, mode="r").tobytes()


def _near_collinear(seed, n=600):
    """Intercept, three normal columns, and a fourth equal to the third plus
    1e-7 noise (condition number about 2e7), with heteroskedastic t errors."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    X = np.column_stack([np.ones(n), x, x[:, 2] + 1e-7 * rng.normal(size=n)])
    y = X @ np.array([1.0, 0.5, -0.3, 0.2, 0.1]) + rng.standard_t(4, size=n) * (1 + np.abs(x[:, 0]))
    return X, y


def _mp_sandwich(X, y, cluster_ids=None):
    """(X'X)^-1 meat (X'X)^-1 times the hc1 or cluster correction, in 60
    digits from the exact double inputs."""
    n, p = X.shape
    with mpmath.workdps(60):
        Xm, ym = mpmath.matrix(X.tolist()), mpmath.matrix(y.tolist())
        bread = (Xm.T * Xm) ** -1
        e = ym - Xm * (bread * (Xm.T * ym))
        groups = list(range(n)) if cluster_ids is None else cluster_ids
        scores = {}
        for i, g in enumerate(groups):
            row = [Xm[i, j] * e[i] for j in range(p)]
            scores[g] = [a + b for a, b in zip(scores.get(g, [0] * p), row)]
        meat = mpmath.zeros(p, p)
        for s in scores.values():
            meat += mpmath.matrix(s) * mpmath.matrix(s).T
        if cluster_ids is None:
            correction = mpmath.mpf(n) / (n - p)
        else:
            G = len(scores)
            correction = mpmath.mpf(G) / (G - 1) * (mpmath.mpf(n - 1) / (n - p))
        cov = bread * meat * bread * correction
        return np.array(cov.tolist(), dtype=float)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["hc1", "cluster"])
def test_sandwich_keeps_accuracy_on_a_near_collinear_design(kind, seed):
    # Scores in the Q basis carry eps * cond(X), about 1e-9 here; the
    # (X'X)^-1 meat (X'X)^-1 form carried eps * cond(X)^2 and missed by 2-5%.
    X, y = _near_collinear(seed)
    assert 1e7 < np.linalg.cond(X) < 1e8
    ids = [f"g{i % 30}" for i in range(X.shape[0])] if kind == "cluster" else None
    want = _mp_sandwich(X, y, ids)
    got = fit_ols(X, y, kind, cluster_ids=ids).cov_beta
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def _hstack_design(data, spec):
    """The construction ``build_design`` replaced: each block built apart,
    then ``np.hstack``."""
    schema = build_schema(data, spec)
    n = data.n
    covs = covariate_matrix(data, schema)
    arm_block = np.column_stack(
        [(data.arm == a).astype(np.float64) for a in schema.arm_labels])
    blocks = [np.ones((n, 1)), covs, arm_block]
    if schema.interactions:
        inter = np.empty((n, covs.shape[1] * arm_block.shape[1]))
        for k, (i, j) in enumerate(itertools.product(range(covs.shape[1]),
                                                     range(arm_block.shape[1]))):
            inter[:, k] = covs[:, i] * arm_block[:, j]
        blocks.append(inter)
    return np.hstack(blocks)


def _mixed_dataset(rng, n, arms=3):
    return Dataset(
        outcome=rng.normal(size=n),
        arm=rng.choice([f"t{k}" for k in range(arms)], size=n).astype(object),
        covariates={
            "x": rng.normal(size=n) * 3.7,
            "dose": rng.choice([0.5, 1.0, 2.5], size=n),
            "site": rng.choice(["north", "south", "east", "west"], size=n).astype(object),
            "w": rng.exponential(size=n),
        },
    )


@pytest.mark.parametrize("interactions", [True, False])
@pytest.mark.parametrize("encodings, covariates", [
    (None, ("x", "w")),
    (None, ("site",)),
    ({"dose": "categorical"}, ("dose",)),
    ({"dose": "categorical"}, ("x", "site", "dose", "w")),
    (None, ()),
], ids=["numeric", "categorical", "numeric-coded", "mixed", "none"])
def test_build_design_equals_hstack_construction(interactions, encodings, covariates):
    full = _mixed_dataset(np.random.default_rng(32), 500)
    data = Dataset(outcome=full.outcome, arm=full.arm,
                   covariates={name: full.covariates[name] for name in covariates})
    spec = ModelSpec(reference_arm="t0", encodings=encodings, interactions=interactions)
    design, y, schema = build_design(data, spec)
    expected = _hstack_design(data, spec)
    assert design.shape == (data.n, schema.p)
    assert design.dtype == expected.dtype
    assert design.tobytes() == expected.tobytes()
    assert_array_equal(y, data.outcome)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("kind", KINDS)
def test_fit_holds_one_scratch_copy_of_the_design(kind):
    # The in-place QR of the n x (p+1) copy, then the residual-scaled
    # scores: never two n x p arrays besides the caller's design.
    rng = np.random.default_rng(33)
    n, p = 20000, 30
    X, y = _regression(rng, n, np.ones(p - 1))
    ids = np.asarray([f"u{i % 400}" for i in range(n)], dtype=object)
    _, peak = _traced_peak(fit_ols, X, y, kind, cluster_ids=ids if kind == "cluster" else None)
    assert peak <= 1.25 * X.nbytes


def test_build_design_allocates_the_design_once():
    # Besides the design, only covariate_matrix's n x q block is held.
    data = _mixed_dataset(np.random.default_rng(34), 20000)
    spec = ModelSpec(reference_arm="t0", encodings={"dose": "categorical"})
    (design, _, schema), peak = _traced_peak(build_design, data, spec)
    assert schema.p == 24
    assert peak <= 1.6 * design.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_names_row_and_column(bad):
    rng = np.random.default_rng(35)
    X, y = _regression(rng, 40, (1.0, 1.0))
    X[17, 2] = bad
    X[30, 1] = bad
    with pytest.raises(ValueError, match=rf"^design has a non-finite value at row 17, "
                                         rf"column 2: {bad!r}$"):
        fit_ols(X, y, "hc1")


def test_non_finite_design_names_schema_label():
    data = _mixed_dataset(np.random.default_rng(36), 60)
    design, y, schema = build_design(data, ModelSpec(reference_arm="t0"))
    design[5, schema.labels.index("w")] = np.nan
    with pytest.raises(ValueError, match=r"^design has a non-finite value at row 5, "
                                         r"column 'w': nan$"):
        fit_ols(design, y, "classical", schema=schema)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_outcome_names_row(bad):
    rng = np.random.default_rng(37)
    X, y = _regression(rng, 40, (1.0, 1.0))
    y[23] = bad
    X[3, 1] = np.nan  # the outcome is checked first
    with pytest.raises(ValueError, match=rf"^outcome has a non-finite value at row 23: {bad!r}$"):
        fit_ols(X, y, "cluster", cluster_ids=[i % 4 for i in range(40)])


@pytest.mark.parametrize("where", ["design", "outcome"])
def test_fit_bayes_non_finite_names_row(where):
    data = _mixed_dataset(np.random.default_rng(38), 60)
    design, y, schema = build_design(data, ModelSpec(reference_arm="t0"))
    y = y.copy()
    if where == "design":
        design[9, schema.labels.index("w")] = np.inf
        expected = r"^design has a non-finite value at row 9, column 'w': inf$"
    else:
        y[12] = np.nan
        expected = r"^outcome has a non-finite value at row 12: nan$"
    p = schema.p
    with pytest.raises(ValueError, match=expected):
        fit_bayes(design, y, np.zeros(p), np.eye(p), 1.0, schema=schema)
