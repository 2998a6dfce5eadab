"""Interacted linear model: design-matrix construction and fitting.

The design matrix always has the layout ``[1 | covariates | arms | arm-by-
covariate interactions]``. One matrix serves every downstream query type;
effect vectors zero out whatever blocks a query does not need. Coefficient
covariance can be classical, heteroskedasticity-robust (HC1), cluster-robust
(Liang-Zeger), or an exact conjugate-normal posterior.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .data import Dataset, factorize

__all__ = [
    "BayesPrior",
    "ModelSpec",
    "ColumnSchema",
    "FittedModel",
    "build_design",
    "build_schema",
    "require_more_rows",
    "covariate_matrix",
    "fit_ols",
    "fit_bayes",
    "fit_model",
    "as_flat_prior_posterior",
    "COVARIANCE_KINDS",
    "RANK_RTOL",
]

COVARIANCE_KINDS = ("classical", "hc1", "cluster")

# Relative singular-value cutoff for declaring the design rank deficient.
RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class BayesPrior:
    """Normal prior over the full coefficient vector, with known noise
    variance, yielding an exact conjugate posterior.

    ``mean`` is a scalar shared by every coefficient or a (p,) vector;
    ``covariance`` is a scalar variance (times the identity), a (p,)
    diagonal, or a full (p, p) matrix; :meth:`expand` gives both in full
    form once the design's p is known. Equality is identity.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=np.float64))
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")

    def expand(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The (p,) mean and (p, p) covariance for a design of p columns.
        Raises ``ValueError`` naming the config field whose vector or matrix
        form does not fit p."""
        mean, cov = self.mean, self.covariance
        if mean.ndim == 0:
            mean = np.full(p, float(mean))
        elif mean.shape != (p,):
            raise ValueError(f"model.bayes.prior_mean has shape {mean.shape} but the "
                             f"design has p = {p} columns")
        if cov.ndim == 0:
            cov = np.eye(p) * float(cov)
        elif cov.shape in ((p,), (p, p)):
            cov = np.diag(cov) if cov.ndim == 1 else cov
        else:
            raise ValueError(f"model.bayes.prior_covariance has shape {cov.shape} but the "
                             f"design has p = {p} columns")
        return mean, cov


@dataclass(frozen=True)
class ModelSpec:
    """How to turn a dataset into a fitted model.

    ``encodings`` optionally forces a covariate to be treated as
    ``"numeric"`` or ``"categorical"`` regardless of its column type;
    unlisted covariates follow the data (float columns numeric, string
    columns categorical). ``interactions`` keeps the full arm-by-covariate
    block; it is on by default and only matters when covariates exist.
    ``bayes``, when present, replaces least squares with the conjugate
    posterior under that prior (``covariance_kind`` is then unused).
    """

    reference_arm: str
    covariance_kind: str = "hc1"
    encodings: Mapping[str, str] | None = None
    interactions: bool = True
    bayes: BayesPrior | None = None

    def __post_init__(self):
        if self.covariance_kind not in COVARIANCE_KINDS:
            raise ValueError(
                f"unknown covariance_kind {self.covariance_kind!r}; "
                f"expected one of {COVARIANCE_KINDS}"
            )
        for name, enc in (self.encodings or {}).items():
            if enc not in ("numeric", "categorical"):
                raise ValueError(f"unknown encoding {enc!r} for covariate {name!r}")


@dataclass(frozen=True)
class ColumnSchema:
    """The design layout ``[1 | covariates | arms | covariates x arms]``,
    and the one writer of it (:meth:`fill`).

    ``covariates`` holds one ``(name, level)`` pair per covariate column:
    ``level`` is None for a numeric covariate and a non-reference level for
    a categorical indicator. ``all_arms`` lists the reference arm first; each
    other arm has an indicator column. With ``interactions`` the last block
    holds every covariate column times every arm indicator, covariate-major
    (all arm columns for the first covariate column, then the next, ...).
    """

    covariates: tuple[tuple[str, str | None], ...]
    all_arms: tuple[str, ...]
    interactions: bool = True

    @property
    def reference_arm(self) -> str:
        return self.all_arms[0]

    @property
    def arm_labels(self) -> tuple[str, ...]:
        """Non-reference arms, in column order."""
        return self.all_arms[1:]

    @property
    def p(self) -> int:
        q, k = len(self.covariates), len(self.arm_labels)
        return 1 + q + k + (q * k if self.interactions else 0)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        covs = [name if level is None else f"{name}={level}" for name, level in self.covariates]
        arms = [f"arm={a}" for a in self.arm_labels]
        inter = [f"{c}:{a}" for c in covs for a in arms] if self.interactions else []
        return ("intercept", *covs, *arms, *inter)

    def fill(self, out: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Write ``[1 | z | a | z (x) a]`` into the last axis of ``out`` and
        return it.

        ``out`` is (p,) or (n, p); ``z`` holds the expanded covariate values,
        (q,) or (n, q), and ``a`` the arm indicators, (k,) or (n, k). The
        interaction block is one product into a (q, k) view of its columns.
        """
        q, k = len(self.covariates), len(self.arm_labels)
        out[..., 0] = 1.0
        out[..., 1:1 + q] = z
        out[..., 1 + q:1 + q + k] = a
        if self.interactions:
            block = out[..., 1 + q + k:].reshape(out.shape[:-1] + (q, k))
            np.multiply(z[..., :, None], a[..., None, :], out=block)
        return out

    def require_arm(self, arm: str) -> str:
        arm = str(arm)
        if arm not in self.all_arms:
            raise ValueError(f"unknown arm label {arm!r}; model has arms {self.all_arms}")
        return arm

    def arm_onehot(self, arm: str) -> np.ndarray:
        """Indicator over the arm block; all zeros for the reference arm."""
        arm = self.require_arm(arm)
        return np.array([a == arm for a in self.arm_labels], dtype=np.float64)


def _covariate_columns(data: Dataset, spec: ModelSpec) -> list[tuple[str, str | None]]:
    encodings = spec.encodings or {}
    columns: list[tuple[str, str | None]] = []
    for name in data.covariate_names:
        enc = encodings.get(name)
        if enc is None:
            enc = "numeric" if data.is_numeric(name) else "categorical"
        if enc == "numeric":
            if not data.is_numeric(name):
                raise ValueError(
                    f"covariate {name!r} holds categorical levels and cannot "
                    "be encoded as numeric"
                )
            col = data.covariates[name]
            if np.all(col == col[0]):
                warnings.warn(
                    f"covariate {name!r} is constant across all rows; the design "
                    "matrix is at risk of rank deficiency",
                    UserWarning,
                    stacklevel=3,
                )
            columns.append((name, None))
        else:
            levels, _ = data.categorical_codes(name)
            if len(levels) < 2:
                raise ValueError(
                    f"categorical covariate {name!r} has a single level "
                    f"{levels[0]!r} and cannot be encoded"
                )
            # Alphabetically-first level is the dropped reference level.
            columns.extend((name, level) for level in levels[1:])
    return columns


def build_schema(data: Dataset, spec: ModelSpec) -> ColumnSchema:
    """Column schema of the design for ``data`` under ``spec``, without
    building the design itself. Raises for a reference arm missing from the
    data, a covariate that cannot be encoded, or a least-squares cluster
    covariance without a unit_id column, and warns for a constant numeric
    covariate."""
    reference = str(spec.reference_arm)
    arms = data.arms
    if reference not in arms:
        raise ValueError(f"reference arm {reference!r} not present in data; arms are {arms}")
    covariates = tuple(_covariate_columns(data, spec))
    if spec.bayes is None and spec.covariance_kind == "cluster" and data.unit_id is None:
        raise ValueError("cluster covariance requires a unit_id column")
    return ColumnSchema(covariates=covariates,
                        all_arms=(reference, *(a for a in arms if a != reference)),
                        interactions=spec.interactions)


def require_more_rows(n: int, p: int) -> None:
    """Raise unless a least-squares fit of n rows and p columns has more
    rows than columns."""
    if n <= p:
        raise ValueError(f"need more rows than design columns (n={n}, p={p})")


def covariate_matrix(data: Dataset, schema: ColumnSchema, rows=None) -> np.ndarray:
    """Expanded covariate block (n x q) for ``data`` under ``schema``:
    numeric columns pass through, categorical columns become 0/1 indicators
    for their non-reference levels.

    ``rows`` (a boolean mask or index array) restricts the block to those
    rows; the result equals ``covariate_matrix(data, schema)[rows]``.
    Indicators compare the dataset's cached level codes (see
    ``Dataset.categorical_codes``), so each categorical column is encoded
    once per dataset, not once per call.
    """
    n = data.n
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (n,):
                raise ValueError(f"row mask has shape {rows.shape}, expected ({n},)")
            rows = np.flatnonzero(rows)
        n = rows.shape[0]
    out = np.empty((n, len(schema.covariates)))
    gathered: dict[str, np.ndarray] = {}
    for k, (name, level) in enumerate(schema.covariates):
        if level is None:
            values = data.covariates[name]
            out[:, k] = values if rows is None else values[rows]
            continue
        levels, codes = data.categorical_codes(name)
        if name not in gathered:
            gathered[name] = codes if rows is None else codes[rows]
        out[:, k] = gathered[name] == levels.index(level)
    return out


def build_design(data: Dataset, spec: ModelSpec):
    """Build the interacted design matrix.

    Returns ``(design, y, schema)`` where ``design`` is the n x p array that
    :meth:`ColumnSchema.fill` writes from the covariate block of
    :func:`covariate_matrix` and the n x k indicators of the non-reference
    arms, so besides the design only those two blocks are held (n x q
    floats with q < p, and n x k booleans).
    """
    schema = build_schema(data, spec)
    arms = data.arm[:, None] == np.array(schema.arm_labels, dtype=object)
    design = schema.fill(np.empty((data.n, schema.p)), covariate_matrix(data, schema), arms)
    return design, np.asarray(data.outcome, dtype=np.float64), schema


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Fitted coefficients plus their covariance, bound to a column schema.

    ``posterior`` is True when ``beta``/``cov_beta`` are the mean and
    covariance of a normal posterior rather than a sampling distribution.
    Equality is identity.
    """

    schema: ColumnSchema
    beta: np.ndarray
    cov_beta: np.ndarray
    n: int
    covariance_kind: str
    posterior: bool = False

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        cov = np.asarray(self.cov_beta, dtype=np.float64)
        p = self.schema.p
        if beta.shape != (p,):
            raise ValueError(f"beta has length {beta.shape}, schema expects {p}")
        if cov.shape != (p, p):
            raise ValueError(f"cov_beta has shape {cov.shape}, schema expects ({p}, {p})")
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
            raise ValueError("cov_beta is not symmetric")
        if np.any(np.diag(cov) < -1e-12):
            raise ValueError("cov_beta has a negative diagonal entry")
        beta.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "cov_beta", cov)

    @property
    def p(self) -> int:
        return self.schema.p

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_beta), 0.0, None))


def _dependent_column_labels(design: np.ndarray, schema: ColumnSchema | None, rank: int) -> str:
    """Name the columns a pivoted QR leaves beyond the numerical rank. Only
    this error path needs scipy, so it is imported here."""
    from scipy.linalg import qr

    _, _, piv = qr(design, mode="economic", pivoting=True)
    dependent = sorted(piv[rank:].tolist())
    if schema is not None:
        names = [schema.labels[i] for i in dependent]
    else:
        names = [f"column {i}" for i in dependent]
    return ", ".join(names)


def _qr_r(xy: np.ndarray) -> np.ndarray:
    """R of the Householder QR of the Fortran-ordered n x k ``xy``, a new
    k x k array; ``xy`` is overwritten with the factorization.

    This is LAPACK's dgeqrf through numpy's own ``lapack_lite`` (private but
    present in numpy 2), which takes a C-contiguous array: ``xy.T`` is one,
    and LAPACK reads it column-major as ``xy`` itself. So no copy of the n
    rows is made, as ``np.linalg.qr`` would make. A first call with
    ``lwork = -1`` asks for the workspace size.
    """
    n, k = xy.shape
    tau, work = np.empty(k), np.empty(1)

    def dgeqrf(lwork: int) -> None:
        info = lapack_lite.dgeqrf(n, k, xy.T, n, tau, work, lwork, 0)["info"]
        if info != 0:
            raise RuntimeError(f"LAPACK dgeqrf failed with info = {info}")

    dgeqrf(-1)
    work = np.empty(max(int(work[0]), k))
    dgeqrf(work.size)
    return np.triu(xy[:k])


def _check_finite(X: np.ndarray, y: np.ndarray, schema: ColumnSchema | None) -> None:
    """Raise ``ValueError`` naming the first row (and design column) that
    holds a NaN or infinity. The design is screened by its minimum and
    maximum, which a NaN propagates to and an infinity reaches, so no n x p
    mask is made unless a bad value is there to find."""
    if not np.isfinite(y).all():
        r = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ValueError(f"outcome has a non-finite value at row {r}: {float(y[r])!r}")
    if X.size and not np.isfinite([X.min(), X.max()]).all():
        r, c = (int(i) for i in np.argwhere(~np.isfinite(X))[0])
        column = repr(schema.labels[c]) if schema is not None else c
        raise ValueError(f"design has a non-finite value at row {r}, column {column}: "
                         f"{float(X[r, c])!r}")


def fit_ols(design: np.ndarray, y: np.ndarray, covariance_kind: str = "hc1",
            cluster_ids: Sequence | None = None,
            schema: ColumnSchema | None = None) -> FittedModel:
    """Least-squares fit with a selectable coefficient covariance.

    ``classical`` is the textbook homoskedastic estimator, ``hc1`` the
    degrees-of-freedom-corrected sandwich, and ``cluster`` the Liang-Zeger
    sandwich over ``cluster_ids`` with the usual small-sample correction.
    Cluster scores are accumulated in one pass over the rows (each cluster
    sums its rows in row order), so the cost is linear in rows, not rows
    times clusters.

    The fit is one Householder QR of ``[X | y]``, computed in place in a
    Fortran-ordered n x (p+1) copy (:func:`_qr_r`) and kept only as its
    (p+1) x (p+1) triangle: the top p x p block is R, and the column above
    the diagonal is Q'y, so Q itself is never formed (Golub & Van Loan,
    *Matrix Computations*, section 5.3). The copy is dropped before the
    residuals and scores are computed, so at most two n x p arrays are held
    at once: the caller's design and that copy, or the design and its
    residual-scaled scores. The rank check reads the singular values of R,
    which are those of the design; the solve and the covariance come from R
    too, the sandwiches as R^-1 meat R^-T with the scores in the Q basis,
    X R^-1, so no inverse of X'X is formed. Only a rank-deficient design is
    factorized again, by a pivoted QR that names the dependent columns. A
    NaN or infinity in the design or outcome is rejected first, with its row.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("design must be n x p and y length n")
    n, p = X.shape
    if covariance_kind not in COVARIANCE_KINDS:
        raise ValueError(
            f"unknown covariance_kind {covariance_kind!r}; expected one of {COVARIANCE_KINDS}"
        )
    if covariance_kind == "cluster" and cluster_ids is None:
        raise ValueError("cluster covariance requires cluster_ids")
    require_more_rows(n, p)
    _check_finite(X, y, schema)

    xy = np.empty((n, p + 1), order="F")
    xy[:, :p] = X
    xy[:, p] = y
    Rxy = _qr_r(xy)
    del xy
    R = Rxy[:p, :p]
    singular = np.linalg.svd(R, compute_uv=False)
    rank = int(np.sum(singular > RANK_RTOL * singular[0]))
    if rank < p:
        names = _dependent_column_labels(X, schema, rank)
        raise ValueError(f"design matrix is rank deficient; dependent columns: {names}")

    beta = np.linalg.solve(R, Rxy[:p, p])
    resid = y - X @ beta
    r_inv = np.linalg.solve(R, np.eye(p))

    if covariance_kind == "classical":
        sigma2 = float(resid @ resid) / (n - p)
        cov = sigma2 * (r_inv @ r_inv.T)
    else:
        # Scores in the Q basis, X R^-1 scaled by the residuals, so that
        # R^-1 meat R^-T carries eps * cond(X) where (X'X)^-1 meat (X'X)^-1
        # would carry its square.
        scores = X @ r_inv
        scores *= resid[:, None]
        if covariance_kind == "hc1":
            meat = scores.T @ scores
            correction = n / (n - p)
        else:
            if len(cluster_ids) != n:
                raise ValueError("cluster_ids length does not match design rows")
            groups, group_of_row = factorize(cluster_ids)
            n_groups = len(groups)
            if n_groups < 2:
                raise ValueError("cluster covariance requires at least 2 clusters")
            cluster_scores = np.zeros((n_groups, p))
            np.add.at(cluster_scores, group_of_row, scores)
            meat = cluster_scores.T @ cluster_scores
            correction = (n_groups / (n_groups - 1)) * ((n - 1) / (n - p))
        cov = r_inv @ meat @ r_inv.T * correction

    cov = (cov + cov.T) / 2.0
    if schema is None:
        schema = _anonymous_schema(p)
    return FittedModel(schema=schema, beta=beta, cov_beta=cov, n=n,
                       covariance_kind=covariance_kind, posterior=False)


def _anonymous_schema(p: int) -> ColumnSchema:
    """Placeholder schema for fits on raw matrices (mostly tests)."""
    return ColumnSchema(covariates=tuple((f"x{i}", None) for i in range(1, p)), all_arms=("0",))


def _inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """U^-1 for the upper Cholesky factor U of the symmetric positive
    definite ``a`` (its lower triangle is read), so that a^-1 = U^-1 U^-T.
    U is triangular, so the LU inside ``np.linalg.solve`` is U itself and the
    solve is back substitution. Raises ``LinAlgError`` if ``a`` is not
    positive definite."""
    return np.linalg.solve(np.linalg.cholesky(a).T, np.eye(a.shape[0]))


def fit_bayes(design: np.ndarray, y: np.ndarray, prior_mean: np.ndarray,
              prior_covariance: np.ndarray, noise_variance: float,
              schema: ColumnSchema | None = None) -> FittedModel:
    """Exact conjugate-normal posterior for the coefficients.

    With prior N(m0, S0) and known noise variance s2, the posterior
    covariance is (S0^-1 + X'X/s2)^-1 and the posterior mean is that
    covariance applied to (S0^-1 m0 + X'y/s2). No approximation is involved.
    A NaN or infinity in the design or outcome is rejected first, with its
    row.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("design must be n x p and y length n")
    n, p = X.shape
    if n == 0:
        raise ValueError("cannot fit a posterior on an empty dataset")
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    _check_finite(X, y, schema)
    m0 = np.asarray(prior_mean, dtype=np.float64)
    S0 = np.asarray(prior_covariance, dtype=np.float64)
    if m0.shape != (p,) or S0.shape != (p, p):
        raise ValueError("prior dimensions do not match the design columns")
    if not np.allclose(S0, S0.T, rtol=1e-10, atol=1e-12):
        raise ValueError("prior covariance is not symmetric positive definite")
    try:
        u0_inv = _inverse_cholesky(S0)
    except np.linalg.LinAlgError:
        raise ValueError("prior covariance is not symmetric positive definite") from None
    prior_precision = u0_inv @ u0_inv.T
    try:
        u_inv = _inverse_cholesky(prior_precision + X.T @ X / noise_variance)
    except np.linalg.LinAlgError:
        raise ValueError("posterior precision is not positive definite") from None
    cov = u_inv @ u_inv.T
    cov = (cov + cov.T) / 2.0
    beta = u_inv @ (u_inv.T @ (prior_precision @ m0 + X.T @ y / noise_variance))
    if schema is None:
        schema = _anonymous_schema(p)
    return FittedModel(schema=schema, beta=beta, cov_beta=cov, n=n,
                       covariance_kind="bayes", posterior=True)


def fit_model(data: Dataset, spec: ModelSpec) -> FittedModel:
    """Build the design for ``data`` under ``spec`` and fit it.

    Dispatches to the conjugate posterior when ``spec.bayes`` is present,
    with its prior expanded to the design's p (:meth:`BayesPrior.expand`),
    otherwise to least squares with the requested covariance estimator
    (cluster covariance pulls cluster ids from ``data.unit_id``).
    """
    design, y, schema = build_design(data, spec)
    if spec.bayes is not None:
        mean, cov = spec.bayes.expand(schema.p)
        return fit_bayes(design, y, mean, cov, spec.bayes.noise_variance, schema=schema)
    cluster_ids = data.unit_id if spec.covariance_kind == "cluster" else None
    return fit_ols(design, y, covariance_kind=spec.covariance_kind,
                   cluster_ids=cluster_ids, schema=schema)


def as_flat_prior_posterior(model: FittedModel) -> FittedModel:
    """Reinterpret a least-squares fit as a flat-prior normal posterior.

    This is an explicit opt-in; ranking operations refuse plain fits so the
    reinterpretation is never silent.
    """
    if model.posterior:
        return model
    return dataclasses.replace(model, posterior=True)
