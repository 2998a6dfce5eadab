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
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr as _qr_pivoted, solve_triangular

from .data import Dataset, factorize

__all__ = [
    "BayesPrior",
    "ModelSpec",
    "Column",
    "ColumnSchema",
    "FittedModel",
    "build_design",
    "build_schema",
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
    diagonal, or a full (p, p) matrix. :func:`fit_model` expands both to
    full form once the design's p is known. Equality is identity.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_variance: float

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=np.float64))
        if self.noise_variance <= 0:
            raise ValueError("noise_variance must be positive")


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
class Column:
    """One design-matrix column descriptor."""

    kind: str  # "intercept" | "covariate" | "arm" | "interaction"
    covariate: str | None = None
    level: str | None = None
    arm: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "covariate":
            return self.covariate if self.level is None else f"{self.covariate}={self.level}"
        if self.kind == "arm":
            return f"arm={self.arm}"
        cov = self.covariate if self.level is None else f"{self.covariate}={self.level}"
        return f"{cov}:arm={self.arm}"


@dataclass(frozen=True)
class ColumnSchema:
    """Ordered column descriptors binding coefficients to design columns.

    Layout: intercept first, then the expanded covariate block, then one
    indicator per non-reference arm, then the interaction block ordered
    covariate-major (all arm columns for the first covariate column, then
    the next covariate column, ...).
    """

    columns: tuple[Column, ...]
    reference_arm: str

    def __post_init__(self):
        if not self.columns or self.columns[0].kind != "intercept":
            raise ValueError("schema must start with the intercept column")

    @property
    def p(self) -> int:
        return len(self.columns)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.columns)

    @property
    def covariate_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.kind == "covariate")

    @property
    def covariate_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.kind == "covariate")

    @property
    def arm_labels(self) -> tuple[str, ...]:
        """Non-reference arms, in column order."""
        return tuple(c.arm for c in self.columns if c.kind == "arm")

    @property
    def arm_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.kind == "arm")

    @property
    def interaction_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.kind == "interaction")

    @property
    def all_arms(self) -> tuple[str, ...]:
        return (self.reference_arm,) + self.arm_labels

    def require_arm(self, arm: str) -> str:
        arm = str(arm)
        if arm not in self.all_arms:
            raise ValueError(f"unknown arm label {arm!r}; model has arms {self.all_arms}")
        return arm

    def arm_onehot(self, arm: str) -> np.ndarray:
        """Indicator over the arm block; all zeros for the reference arm."""
        arm = self.require_arm(arm)
        onehot = np.zeros(len(self.arm_labels))
        if arm != self.reference_arm:
            onehot[self.arm_labels.index(arm)] = 1.0
        return onehot


def _covariate_descriptors(data: Dataset, spec: ModelSpec) -> list[Column]:
    encodings = spec.encodings or {}
    descriptors: list[Column] = []
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
            descriptors.append(Column(kind="covariate", covariate=name))
        else:
            levels, _ = data.categorical_codes(name)
            if len(levels) < 2:
                raise ValueError(
                    f"categorical covariate {name!r} has a single level "
                    f"{levels[0]!r} and cannot be encoded"
                )
            # Alphabetically-first level is the dropped reference level.
            for level in levels[1:]:
                descriptors.append(Column(kind="covariate", covariate=name, level=level))
    return descriptors


def build_schema(data: Dataset, spec: ModelSpec) -> ColumnSchema:
    """Column schema of the design for ``data`` under ``spec``, without
    building the design itself. Raises for a reference arm missing from the
    data or a covariate that cannot be encoded, and warns for a constant
    numeric covariate."""
    reference = str(spec.reference_arm)
    arms = data.arms
    if reference not in arms:
        raise ValueError(f"reference arm {reference!r} not present in data; arms are {arms}")
    cov_cols = _covariate_descriptors(data, spec)
    arm_cols = [Column(kind="arm", arm=a) for a in arms if a != reference]
    columns: list[Column] = [Column(kind="intercept")]
    columns.extend(cov_cols)
    columns.extend(arm_cols)
    if spec.interactions:
        for c in cov_cols:
            for a in arm_cols:
                columns.append(
                    Column(kind="interaction", covariate=c.covariate, level=c.level, arm=a.arm)
                )
    return ColumnSchema(columns=tuple(columns), reference_arm=reference)


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
    columns = schema.covariate_columns
    out = np.empty((n, len(columns)))
    gathered: dict[str, np.ndarray] = {}
    for k, c in enumerate(columns):
        if c.level is None:
            values = data.covariates[c.covariate]
            out[:, k] = values if rows is None else values[rows]
            continue
        levels, codes = data.categorical_codes(c.covariate)
        if c.covariate not in gathered:
            gathered[c.covariate] = codes if rows is None else codes[rows]
        out[:, k] = gathered[c.covariate] == levels.index(c.level)
    return out


def build_design(data: Dataset, spec: ModelSpec):
    """Build the interacted design matrix.

    Returns ``(design, y, schema)`` where ``design`` is n x p with columns
    ordered per the schema, arm columns are 0/1 indicators of each
    non-reference arm, and interaction columns are elementwise products of
    their covariate and arm parents.
    """
    schema = build_schema(data, spec)
    n = data.n
    covs = covariate_matrix(data, schema)
    arm_block = np.column_stack(
        [(data.arm == a).astype(np.float64) for a in schema.arm_labels]
    ) if schema.arm_labels else np.empty((n, 0))
    blocks = [np.ones((n, 1)), covs, arm_block]
    if schema.interaction_indices:
        inter = np.empty((n, covs.shape[1] * arm_block.shape[1]))
        k = 0
        for i in range(covs.shape[1]):
            for j in range(arm_block.shape[1]):
                inter[:, k] = covs[:, i] * arm_block[:, j]
                k += 1
        blocks.append(inter)
    design = np.hstack(blocks)
    assert design.shape == (n, schema.p)
    return design, np.asarray(data.outcome, dtype=np.float64), schema


@dataclass(frozen=True)
class FittedModel:
    """Fitted coefficients plus their covariance, bound to a column schema.

    ``posterior`` is True when ``beta``/``cov_beta`` are the mean and
    covariance of a normal posterior rather than a sampling distribution.
    """

    schema: ColumnSchema
    beta: np.ndarray
    cov_beta: np.ndarray
    n: int
    dof: int
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
    """Name the columns a pivoted QR leaves beyond the numerical rank."""
    _, _, piv = _qr_pivoted(design, mode="economic", pivoting=True)
    dependent = sorted(piv[rank:].tolist())
    if schema is not None:
        names = [schema.columns[i].label for i in dependent]
    else:
        names = [f"column {i}" for i in dependent]
    return ", ".join(names)


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
    The design is factorized once, by QR. The rank check reads the singular
    values of the p x p triangular factor R, which are those of the design;
    the solve and the covariance's (X'X)^-1 come from R too, so no explicit
    inverse of the design is formed. Only a rank-deficient design is
    factorized again, by a pivoted QR that names the dependent columns.
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
    if n <= p:
        raise ValueError(f"need more rows than design columns (n={n}, p={p})")

    Q, R = np.linalg.qr(X, mode="reduced")
    singular = np.linalg.svd(R, compute_uv=False)
    rank = int(np.sum(singular > RANK_RTOL * singular[0]))
    if rank < p:
        names = _dependent_column_labels(X, schema, rank)
        raise ValueError(f"design matrix is rank deficient; dependent columns: {names}")

    beta = solve_triangular(R, Q.T @ y)
    resid = y - X @ beta
    r_inv = solve_triangular(R, np.eye(p))
    xtx_inv = r_inv @ r_inv.T

    if covariance_kind == "classical":
        sigma2 = float(resid @ resid) / (n - p)
        cov = sigma2 * xtx_inv
    elif covariance_kind == "hc1":
        xe = X * resid[:, None]
        meat = xe.T @ xe
        cov = xtx_inv @ meat @ xtx_inv * (n / (n - p))
    else:
        labels = [str(c) for c in cluster_ids]
        if len(labels) != n:
            raise ValueError("cluster_ids length does not match design rows")
        groups, group_of_row = factorize(labels)
        n_groups = len(groups)
        if n_groups < 2:
            raise ValueError("cluster covariance requires at least 2 clusters")
        xe = X * resid[:, None]
        scores = np.zeros((n_groups, p))
        np.add.at(scores, group_of_row, xe)
        meat = scores.T @ scores
        correction = (n_groups / (n_groups - 1)) * ((n - 1) / (n - p))
        cov = xtx_inv @ meat @ xtx_inv * correction

    cov = (cov + cov.T) / 2.0
    if schema is None:
        schema = _anonymous_schema(p)
    return FittedModel(schema=schema, beta=beta, cov_beta=cov, n=n, dof=n - p,
                       covariance_kind=covariance_kind, posterior=False)


def _anonymous_schema(p: int) -> ColumnSchema:
    """Placeholder schema for fits on raw matrices (mostly tests)."""
    cols = [Column(kind="intercept")]
    cols += [Column(kind="covariate", covariate=f"x{i}") for i in range(1, p)]
    return ColumnSchema(columns=tuple(cols), reference_arm="0")


def fit_bayes(design: np.ndarray, y: np.ndarray, prior_mean: np.ndarray,
              prior_covariance: np.ndarray, noise_variance: float,
              schema: ColumnSchema | None = None) -> FittedModel:
    """Exact conjugate-normal posterior for the coefficients.

    With prior N(m0, S0) and known noise variance s2, the posterior
    covariance is (S0^-1 + X'X/s2)^-1 and the posterior mean is that
    covariance applied to (S0^-1 m0 + X'y/s2). No approximation is involved.
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
    m0 = np.asarray(prior_mean, dtype=np.float64)
    S0 = np.asarray(prior_covariance, dtype=np.float64)
    if m0.shape != (p,) or S0.shape != (p, p):
        raise ValueError("prior dimensions do not match the design columns")
    if not np.allclose(S0, S0.T, rtol=1e-10, atol=1e-12):
        raise ValueError("prior covariance is not symmetric positive definite")
    try:
        c0 = cho_factor(S0, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("prior covariance is not symmetric positive definite") from None
    prior_precision = cho_solve(c0, np.eye(p))
    precision = prior_precision + X.T @ X / noise_variance
    try:
        cA = cho_factor(precision, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("posterior precision is not positive definite") from None
    cov = cho_solve(cA, np.eye(p))
    cov = (cov + cov.T) / 2.0
    beta = cho_solve(cA, prior_precision @ m0 + X.T @ y / noise_variance)
    if schema is None:
        schema = _anonymous_schema(p)
    return FittedModel(schema=schema, beta=beta, cov_beta=cov, n=n, dof=n - p,
                       covariance_kind="bayes", posterior=True)


def fit_model(data: Dataset, spec: ModelSpec) -> FittedModel:
    """Build the design for ``data`` under ``spec`` and fit it.

    Dispatches to the conjugate posterior when ``spec.bayes`` is present,
    with its scalar or diagonal forms expanded to the design's p,
    otherwise to least squares with the requested covariance estimator
    (cluster covariance pulls cluster ids from ``data.unit_id``).
    """
    design, y, schema = build_design(data, spec)
    if spec.bayes is not None:
        prior, p = spec.bayes, schema.p
        mean = prior.mean if prior.mean.ndim else np.full(p, float(prior.mean))
        cov = prior.covariance
        if cov.ndim < 2:
            cov = np.diag(cov) if cov.ndim else np.eye(p) * float(cov)
        return fit_bayes(design, y, mean, cov, prior.noise_variance, schema=schema)
    cluster_ids = None
    if spec.covariance_kind == "cluster":
        if data.unit_id is None:
            raise ValueError("cluster covariance requires a unit_id column")
        cluster_ids = data.unit_id
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
