"""The least-squares path: one blocked R-only QR of [X | y] per fit.

``fit_ols`` is checked against an in-test reference that forms Q explicitly,
also with blocks of a few rows so that every block boundary is crossed, its
sandwiches against a 60-digit one on a near-collinear design, and
``fit_bayes`` against a 60-digit posterior. ``build_design`` is checked
against the block-and-``hstack`` construction it replaced, byte for byte.
Traced-memory bounds show that a fit holds a few row blocks, its block
triangles once, and vectors of length n, and never an n x p array. At the
block size runs use, the sandwich and the posterior are held within a
stated multiple of cond * eps of 60 digits. The rank-deficiency message
names the columns that lie in the span of the columns before them, read
from the diagonal of R. The in-place QR rests on numpy's private
``lapack_lite.dgeqrf``, whose contract is pinned here.
"""

import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.linalg import lapack_lite
from numpy.testing import assert_array_equal
from scipy.linalg import solve_triangular

from conftest import columns_in_earlier_span, labels
from effect_engine import data as data_module
from effect_engine import model as model_module
from effect_engine.data import Dataset
from effect_engine.model import (BayesPrior, DesignRows, ModelSpec, _qr_r, build_design,
                                 build_schema, covariate_matrix, fit_bayes, fit_model, fit_ols)

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
        [(labels(data.arm) == a).astype(np.float64) for a in schema.arm_labels])
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


DESIGN_CASES = pytest.mark.parametrize("encodings, covariates", [
    (None, ("x", "w")),
    (None, ("site",)),
    ({"dose": "categorical"}, ("dose",)),
    ({"dose": "categorical"}, ("x", "site", "dose", "w")),
    (None, ()),
], ids=["numeric", "categorical", "numeric-coded", "mixed", "none"])


def _design_case(encodings, covariates, interactions):
    full = _mixed_dataset(np.random.default_rng(32), 500)
    data = Dataset(outcome=full.outcome, arm=full.arm,
                   covariates={name: full.covariates[name] for name in covariates})
    return data, ModelSpec(reference_arm="t0", encodings=encodings, interactions=interactions)


@pytest.mark.parametrize("interactions", [True, False])
@DESIGN_CASES
def test_build_design_equals_hstack_construction(interactions, encodings, covariates):
    data, spec = _design_case(encodings, covariates, interactions)
    design, y, schema = build_design(data, spec)
    expected = _hstack_design(data, spec)
    assert design.shape == (data.n, schema.p)
    assert design.dtype == expected.dtype
    assert design.tobytes() == expected.tobytes()
    assert_array_equal(y, data.outcome)


@pytest.mark.parametrize("interactions", [True, False])
@DESIGN_CASES
@pytest.mark.parametrize("lo, hi", [(0, 500), (128, 256), (384, 500)],
                         ids=["all", "middle", "partial-last"])
def test_design_rows_write_the_rows_of_build_design_into_any_array(
        interactions, encodings, covariates, lo, hi):
    # A Fortran-ordered block, a C-ordered one, and the design columns of a
    # wider Fortran buffer under head rows, as _blocked_r passes them.
    data, spec = _design_case(encodings, covariates, interactions)
    design, _, schema = build_design(data, spec)
    p, m = schema.p, hi - lo
    wide = np.full((3 + m, p + 1), np.nan, order="F")
    targets = [np.full((m, p), np.nan, order="F"), np.full((m, p), np.nan), wide[3:, :p]]
    for out in targets:
        assert DesignRows(data, schema).write(lo, hi, out) is out
        assert out.tobytes() == design[lo:hi].tobytes()
    assert np.isnan(wide[:3]).all() and np.isnan(wide[:, p]).all()


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("kind", KINDS)
def test_fit_holds_a_few_row_blocks(kind):
    # The QR stack of one block under the triangle, then one block of
    # residual-scaled scores, plus the cluster codes: a few blocks and one
    # vector of length n, where a block is under a tenth of the design.
    rng = np.random.default_rng(33)
    n, p = 100_000, 30
    X, y = _regression(rng, n, np.ones(p - 1))
    ids = np.asarray([f"u{i % 400}" for i in range(n)], dtype=object)
    _, peak = _traced_peak(fit_ols, X, y, kind, cluster_ids=ids if kind == "cluster" else None)
    block = model_module.FIT_BLOCK_ROWS * (p + 1) * 8
    assert 10 * block < X.nbytes
    assert peak <= 3 * block + n * 8


def _panel_dataset(n):
    full = _mixed_dataset(np.random.default_rng(39), n)
    return Dataset(outcome=full.outcome, arm=full.arm, covariates=full.covariates,
                   unit_id=np.asarray([f"u{i % 300}" for i in range(n)], dtype=object))


@pytest.mark.parametrize("kind", ["hc1", "cluster", "bayes"])
def test_fit_model_peak_does_not_grow_with_the_design(kind):
    # fit_model writes the design a block at a time: its peak is a few
    # blocks plus vectors of length n (the cluster codes), so four times the
    # rows add less than two floats a row, where the design adds p = 24.
    bayes = BayesPrior(mean=0.0, covariance=100.0, noise_variance=1.0) if kind == "bayes" else None
    spec = ModelSpec(reference_arm="t0", encodings={"dose": "categorical"},
                     covariance_kind="hc1" if bayes else kind, bayes=bayes)
    peaks = {}
    for n in (30_000, 120_000):
        data = _panel_dataset(n)
        fit_model(data, spec)  # the dataset caches its level codes once
        model, peaks[n] = _traced_peak(fit_model, data, spec)
        assert peaks[n] <= 4 * model_module.FIT_BLOCK_ROWS * model.p * 8 + 2 * n * 8
    assert peaks[120_000] - peaks[30_000] <= 2 * 8 * 90_000


def _wide_dataset(n, arms, numeric):
    """n rows, ``arms`` arms, ``numeric`` numeric covariates and a
    three-level categorical one (two design columns), unit ids of 300 units."""
    rng = np.random.default_rng(46)
    covariates = {f"x{i}": rng.normal(size=n) for i in range(numeric)}
    covariates["site"] = rng.choice(["north", "south", "east"], size=n).astype(object)
    return Dataset(outcome=rng.normal(size=n),
                   arm=rng.choice([f"t{k}" for k in range(arms)], size=n).astype(object),
                   covariates=covariates,
                   unit_id=np.asarray([f"u{i % 300}" for i in range(n)], dtype=object))


@pytest.mark.parametrize("kind, p, blocks", [("bayes", 72, 1.5), ("hc1", 33, 2.5),
                                             ("cluster", 33, 2.5)])
def test_fit_model_holds_its_design_block_and_score_buffers(kind, p, blocks):
    # The QR pass writes each design block into the Fortran buffer it
    # factors; the score pass reuses one block buffer and one scores buffer.
    # So the peak is one block (the posterior's, which has no score pass) or
    # two and a fraction, plus the cluster codes.
    arms, numeric = (6, 9) if kind == "bayes" else (3, 8)
    n = 3 * model_module.FIT_BLOCK_ROWS + 1000
    data = _wide_dataset(n, arms, numeric)
    bayes = BayesPrior(mean=0.0, covariance=100.0, noise_variance=1.0) if kind == "bayes" else None
    spec = ModelSpec(reference_arm="t0", covariance_kind="hc1" if bayes else kind, bayes=bayes)
    fit_model(data, spec)  # the dataset caches its level codes once
    model, peak = _traced_peak(fit_model, data, spec)
    assert model.p == p
    codes = 2 * n * 8 if kind == "cluster" else 0
    assert peak <= blocks * model_module.FIT_BLOCK_ROWS * (p + 1) * 8 + codes


def test_fit_holds_the_block_triangles_once(monkeypatch):
    # 400 blocks of 64 rows: each block's (p+1) x (p+1) triangle is written
    # into one preallocated stack, which is factored in place. So the peak
    # is that stack and one block buffer, where a list of triangles stacked
    # and then copied into Fortran order would hold them three times.
    monkeypatch.setattr(model_module, "FIT_BLOCK_ROWS", 64)
    n, p = 400 * 64, 30
    X, y = _regression(np.random.default_rng(47), n, np.ones(p - 1))
    _, peak = _traced_peak(fit_ols, X, y, "classical")
    stack = 400 * (p + 1) ** 2 * 8
    assert peak <= 1.25 * stack + 64 * (p + 1) * 8


def test_build_design_allocates_the_design_once():
    # The design is written in place: besides it, only its rows' arm
    # indicators, as booleans (an eighth of the slack allowed here), and
    # numpy's fixed-size buffers for strided products are held.
    data = _mixed_dataset(np.random.default_rng(34), 20000)
    spec = ModelSpec(reference_arm="t0", encodings={"dose": "categorical"})
    build_schema(data, spec)  # the dataset caches its level codes once
    (design, _, schema), peak = _traced_peak(build_design, data, spec)
    assert schema.p == 24
    assert peak <= design.nbytes + data.n * len(schema.arm_labels) * 8


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


@pytest.fixture
def seven_row_blocks(monkeypatch):
    monkeypatch.setattr(model_module, "FIT_BLOCK_ROWS", 7)


# (n, p) around blocks of 7 rows: one short block, one full block, one row
# over, many blocks, and more columns than a block has rows.
BOUNDARIES = [(6, 4), (7, 4), (8, 4), (94, 4), (60, 10)]
BOUNDARY_IDS = ["n<B", "n=B", "n=B+1", "many-blocks", "p>B"]


@pytest.mark.usefixtures("seven_row_blocks")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n, p", BOUNDARIES, ids=BOUNDARY_IDS)
def test_blocked_fit_matches_explicit_q_reference(kind, n, p):
    X, y = _regression(np.random.default_rng(40 + n), n, np.geomspace(1e-2, 1e2, p - 1))
    ids = [f"g{i % 3}" for i in range(n)]
    model = fit_ols(X, y, kind, cluster_ids=ids if kind == "cluster" else None)
    beta, cov = _explicit_q_fit(X, y, kind, ids)
    assert np.max(np.abs(model.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
    assert np.max(np.abs(model.cov_beta - cov)) <= 1e-12 * np.max(np.abs(cov))


def _explicit_q_posterior(X, y, m0, S0, s2):
    """Reference posterior: the data rows under the prior rows U0^-T
    (S0 = U0'U0), all over sqrt(s2), fitted by a reduced QR with Q formed."""
    prior = np.linalg.inv(np.linalg.cholesky(S0))
    A = np.vstack([prior, X / np.sqrt(s2)])
    b = np.concatenate([prior @ m0, y / np.sqrt(s2)])
    Q, R = np.linalg.qr(A, mode="reduced")
    r_inv = solve_triangular(R, np.eye(X.shape[1]))
    return solve_triangular(R, Q.T @ b), r_inv @ r_inv.T


@pytest.mark.usefixtures("seven_row_blocks")
@pytest.mark.parametrize("n, p", [(3, 4), *BOUNDARIES], ids=["n<p", *BOUNDARY_IDS])
def test_blocked_posterior_matches_explicit_q_reference(n, p):
    rng = np.random.default_rng(41 + n)
    X, y = _regression(rng, n, np.geomspace(1e-2, 1e2, p - 1))
    A = rng.normal(size=(p, p))
    S0, m0 = A @ A.T + np.eye(p), rng.normal(size=p)
    model = fit_bayes(X, y, m0, S0, 1.7)
    beta, cov = _explicit_q_posterior(X, y, m0, S0, 1.7)
    assert np.max(np.abs(model.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
    assert np.max(np.abs(model.cov_beta - cov)) <= 1e-12 * np.max(np.abs(cov))


@pytest.mark.usefixtures("seven_row_blocks")
@pytest.mark.parametrize("fit", ["ols", "bayes"])
def test_blocked_non_finite_names_global_row(fit):
    X, y = _regression(np.random.default_rng(42), 40, (1.0, 1.0))
    X[17, 2] = np.inf  # the third block, rows 14 to 20
    X[30, 1] = np.nan

    def run():
        if fit == "ols":
            return fit_ols(X, y, "hc1")
        return fit_bayes(X, y, np.zeros(3), np.eye(3), 1.0)

    with pytest.raises(ValueError, match=r"^design has a non-finite value at row 17, "
                                         r"column 2: inf$"):
        run()
    y[33] = np.nan  # in a block after the bad design rows: still reported first
    with pytest.raises(ValueError, match=r"^outcome has a non-finite value at row 33: nan$"):
        run()


@pytest.mark.parametrize("block_rows", [model_module.FIT_BLOCK_ROWS, 16, 7])
def test_blocked_fit_model_reads_the_design_rows_of_build_design(block_rows, monkeypatch):
    # The row-block writer and the full design give the same fits, bit for
    # bit, in one block or many, the last one partial.
    monkeypatch.setattr(model_module, "FIT_BLOCK_ROWS", block_rows)
    data = _panel_dataset(60)
    design, y, schema = build_design(data, ModelSpec(reference_arm="t0"))
    prior = BayesPrior(mean=0.5, covariance=4.0, noise_variance=1.5)
    pairs = [(fit_model(data, ModelSpec(reference_arm="t0", bayes=prior)),
              fit_bayes(design, y, *prior.expand(schema.p), 1.5, schema=schema))]
    for kind in KINDS:
        ids = data.unit_id if kind == "cluster" else None
        pairs.append((fit_model(data, ModelSpec(reference_arm="t0", covariance_kind=kind)),
                      fit_ols(design, y, kind, cluster_ids=ids, schema=schema)))
    for model, want in pairs:
        assert_array_equal(model.beta, want.beta)
        assert_array_equal(model.cov_beta, want.cov_beta)


@pytest.mark.parametrize("block_rows", [model_module.FIT_BLOCK_ROWS, 7])
def test_cluster_fit_of_the_unit_codes_equals_the_fit_of_their_labels(block_rows, monkeypatch):
    # A dataset's cluster fit takes the codes of its unit column as they
    # are, and gives the bits of a fit handed the unit labels themselves.
    # 300 units, named so that string order ("10" < "9"), first-seen order
    # and numeric order all differ, with codes wider than uint8.
    monkeypatch.setattr(model_module, "FIT_BLOCK_ROWS", block_rows)
    full = _mixed_dataset(np.random.default_rng(43), 900)
    units = [str((37 * i) % 300) for i in range(900)]
    data = Dataset(outcome=full.outcome, arm=full.arm, covariates=full.covariates,
                   unit_id=units)
    assert data.unit_id.codes.dtype == np.uint16
    spec = ModelSpec(reference_arm="t0", covariance_kind="cluster")
    design, y, schema = build_design(data, spec)
    want = fit_ols(design, y, "cluster", cluster_ids=units, schema=schema)
    coded = []
    monkeypatch.setattr(data_module._Coder, "add",
                        lambda self, cells, m: coded.append(m))
    got = fit_model(data, spec)
    assert coded == []  # no label is hashed again
    assert got.beta.tobytes() == want.beta.tobytes()
    assert got.cov_beta.tobytes() == want.cov_beta.tobytes()


def _rank_deficient(rng, kind):
    """Normal columns of mixed scales under an intercept, then one or two
    columns overwritten by a duplicate, a scaled copy or a sum of others."""
    n, p = int(rng.integers(40, 400)), int(rng.integers(4, 24))
    X = rng.normal(size=(n, p)) * rng.choice([1e-2, 1.0, 1e2], size=p)
    X[:, 0] = 1.0
    for _ in range(int(rng.integers(1, 3))):
        j = int(rng.integers(1, p))
        a, b = rng.choice(np.delete(np.arange(p), j), size=2, replace=False)
        X[:, j] = {"duplicated": X[:, a], "scaled": rng.uniform(-5, 5) * X[:, a],
                   "summed": X[:, a] + X[:, b]}[kind]
    return X


@pytest.mark.parametrize("kind", ["duplicated", "scaled", "summed"])
def test_rank_deficient_fit_names_the_columns_in_the_span_of_earlier_ones(kind, monkeypatch):
    # |R[j, j]| is column j's distance from the span of the columns before
    # it, so the fit names exactly the columns whose least-squares residual
    # on those is below 1e-8 relative: the later of two copies, the last
    # term of a sum. Blocks of 64 rows make R a TSQR one.
    monkeypatch.setattr(model_module, "FIT_BLOCK_ROWS", 64)
    rng = np.random.default_rng({"duplicated": 43, "scaled": 44, "summed": 45}[kind])
    for _ in range(70):
        X = _rank_deficient(rng, kind)
        dependent = columns_in_earlier_span(X)
        assert dependent
        with pytest.raises(ValueError) as info:
            fit_ols(X, rng.normal(size=X.shape[0]), "classical")
        names = ", ".join(f"column {j}" for j in dependent)
        assert str(info.value) == f"design matrix is rank deficient; dependent columns: {names}"


def _mp_posterior(X, y, m0, S0, s2):
    """(S0^-1 + X'X/s2)^-1 and its product with S0^-1 m0 + X'y/s2, in 60
    digits from the exact double inputs."""
    with mpmath.workdps(60):
        Xm, ym = mpmath.matrix(X.tolist()), mpmath.matrix(y.tolist())
        prior_precision = mpmath.matrix(S0.tolist()) ** -1
        cov = (prior_precision + Xm.T * Xm / s2) ** -1
        beta = cov * (prior_precision * mpmath.matrix(m0.tolist()) + Xm.T * ym / s2)
        return (np.array(beta.tolist(), dtype=float).ravel(),
                np.array(cov.tolist(), dtype=float))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posterior_keeps_accuracy_on_a_near_collinear_design(seed):
    # The posterior as least squares on prior-augmented rows carries
    # eps * cond(X), about 1e-11 here; the X'X form of the precision
    # carried its square and missed by 3e-8 at seed 0.
    rng = np.random.default_rng(seed)
    n = 300
    x = rng.normal(size=(n, 4))
    X = np.column_stack([np.ones(n), x, x[:, 3] + 1e-4 * rng.normal(size=n)])
    assert 1e4 < np.linalg.cond(X) < 1e5
    y = X @ np.array([1.0, 0.5, -0.3, 0.2, 0.1, 0.4]) + rng.normal(size=n)
    m0, S0, s2 = np.full(6, 0.1), 1e6 * np.eye(6), 1.3
    beta, cov = _mp_posterior(X, y, m0, S0, s2)
    model = fit_bayes(X, y, m0, S0, s2)
    assert np.max(np.abs(model.beta - beta)) <= 1e-9 * np.max(np.abs(beta))
    assert np.max(np.abs(model.cov_beta - cov)) <= 1e-9 * np.max(np.abs(cov))


def test_fits_at_the_production_block_size_stay_within_c_kappa_eps_of_60_digits():
    # Three full blocks and a partial one of the block size every run uses,
    # on a near-collinear design (cond about 2e7): the hc1 sandwich, and the
    # posterior under a diffuse prior, against 60 digits, each error relative
    # to the reference's largest entry (2-norm for beta) and over cond * eps.
    # The covariances come from R^-1 and the Q-basis scores, which carry
    # cond * eps: at most 0.14 of it was seen, in blocks of 2,048 or 8,192
    # rows. Beta also carries a cond^2 * eps term times the relative
    # residual (Higham 2002, ch. 20), so it is allowed 32 cond * eps: at
    # seeds 0 to 3 it read 0.24 to 10.6 of it in blocks of 2,048 rows, and
    # 0.06 to 0.30 on the same rows in one block.
    n = 3 * model_module.FIT_BLOCK_ROWS + 500
    X, y = _near_collinear(3, n)
    kappa_eps = np.linalg.cond(X) * np.finfo(float).eps
    p = X.shape[1]
    m0, S0, s2 = np.full(p, 0.1), 1e6 * np.eye(p), 1.3
    want_beta, want_cov = _mp_posterior(X, y, m0, S0, s2)
    posterior = fit_bayes(X, y, m0, S0, s2)
    sandwich = fit_ols(X, y, "hc1").cov_beta
    want_sandwich = _mp_sandwich(X, y)

    def scaled(got, want, norm=lambda a: np.max(np.abs(a))):
        return norm(got - want) / norm(want) / kappa_eps

    assert scaled(sandwich, want_sandwich) <= 1
    assert scaled(posterior.cov_beta, want_cov) <= 1
    assert scaled(posterior.beta, want_beta, np.linalg.norm) <= 32
