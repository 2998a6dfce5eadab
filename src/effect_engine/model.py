"""Interacted linear model: design-matrix construction and fitting.

The design matrix always has the layout ``[1 | covariates | arms | arm-by-
covariate interactions]``. One matrix serves every downstream query type;
effect vectors zero out whatever blocks a query does not need. Coefficient
covariance can be classical, heteroskedasticity-robust (HC1), cluster-robust
(Liang-Zeger), or an exact conjugate-normal posterior.

Every fit is one QR of ``[X | y]`` taken in blocks of ``FIT_BLOCK_ROWS``
rows (TSQR), the posterior's with its prior rows on top. A fit from a
dataset writes each block of design rows as it needs it (:class:`DesignRows`),
in the Fortran order LAPACK factors, straight into the buffer the QR
factors; the sandwiches' second pass writes each block again and copies it
into one reused C-ordered buffer for its products. So no n x p array is
held: the fit keeps a few block buffers, one preallocated stack of the
blocks' (p+1) x (p+1) triangles, and the sandwiches a p x p meat or the
per-cluster scores.
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
    "DesignRows",
    "covariate_matrix",
    "fit_ols",
    "fit_bayes",
    "fit_model",
    "as_flat_prior_posterior",
    "COVARIANCE_KINDS",
    "RANK_RTOL",
    "FIT_BLOCK_ROWS",
]

COVARIANCE_KINDS = ("classical", "hc1", "cluster")

# Relative singular-value cutoff for declaring the design rank deficient.
RANK_RTOL = 1e-10

# Design rows a fit writes and factors at a time. On one OpenBLAS thread
# (every run's), the QR of all blocks of 200k rows took, in seconds, best of
# 5 on a 2-vCPU machine, at 2048 / 4096 / 8192 / 16384 rows a block:
#   p + 1 = 11: 0.0070 / 0.0067 / 0.0067 / 0.0068
#   p + 1 = 35: 0.050 / 0.058 / 0.071 / 0.097
#   p + 1 = 73: 0.268 / 0.288 / 0.348 / 0.424
# The block buffers, two in the sandwiches' pass, grow with the block; the
# stack of block triangles, (p + 1) / FIT_BLOCK_ROWS of the design's size,
# grows as the block shrinks.
FIT_BLOCK_ROWS = 2048


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

    def fill(self, out: np.ndarray, z: np.ndarray | None, a: np.ndarray) -> np.ndarray:
        """Write ``[1 | z | a | z (x) a]`` into the last axis of ``out`` and
        return it.

        ``out`` is (p,) or (n, p), in any memory order; ``z`` holds the
        expanded covariate values, (q,) or (n, q), and ``a`` the arm
        indicators, (k,) or (n, k). ``z`` None means the covariate columns of
        ``out`` already hold them (:func:`covariate_matrix` wrote them there),
        so they are read in place, not copied onto themselves. The
        interaction block is written through a (q, k) view of its columns,
        one product of ``z`` per arm: a single broadcast product would loop
        over k values at a time, which took twice as long on 200k rows.
        """
        q, k = len(self.covariates), len(self.arm_labels)
        out[..., 0] = 1.0
        if z is None:
            z = out[..., 1:1 + q]
        else:
            out[..., 1:1 + q] = z
        out[..., 1 + q:1 + q + k] = a
        a = out[..., 1 + q:1 + q + k]
        if self.interactions:
            block = out[..., 1 + q + k:].reshape(out.shape[:-1] + (q, k))
            for j in range(k):
                np.multiply(z, a[..., j:j + 1], out=block[..., j])
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
    arms = data.arm.levels
    if reference not in arms:
        raise ValueError(f"reference arm {reference!r} not present in data; arms are {arms}")
    covariates = tuple(_covariate_columns(data, spec))
    if spec.bayes is None and spec.covariance_kind == "cluster" and data.unit_id is None:
        raise ValueError("cluster covariance requires a unit_id column")
    return ColumnSchema(covariates=covariates,
                        all_arms=(reference, *(a for a in arms if a != reference)),
                        interactions=spec.interactions)


def covariate_matrix(data: Dataset, schema: ColumnSchema,
                     rows: slice | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Expanded covariate block (n x q) for ``data`` under ``schema``:
    numeric columns pass through, categorical columns become 0/1 indicators
    for their non-reference levels.

    A ``rows`` slice restricts the block to those rows; the result equals
    ``covariate_matrix(data, schema)[rows]``. The block is written into
    ``out`` when given, an (n, q) array of any memory order (the covariate
    columns of a design block, say), and into a new array otherwise.
    Indicators compare the dataset's cached level codes (see
    ``Dataset.categorical_codes``), so each categorical column is encoded
    once per dataset, not once per call.
    """
    rows = slice(None) if rows is None else rows
    if out is None:
        out = np.empty((len(range(*rows.indices(data.n))), len(schema.covariates)))
    for k, (name, level) in enumerate(schema.covariates):
        if level is None:
            out[:, k] = data.covariates[name][rows]
        else:
            levels, codes = data.categorical_codes(name)
            np.equal(codes[rows], levels.index(level), out=out[:, k])
    return out


@dataclass(frozen=True, eq=False)
class DesignRows:
    """The design of ``data`` under ``schema``, written on demand: ``shape``
    is its (n, p), and :meth:`write` writes any of its row ranges into an
    array the caller gives. The fits write each row block straight into the
    array that consumes it, so no n x p array is held. Equality is identity.
    """

    data: Dataset
    schema: ColumnSchema

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.n, self.schema.p

    def write(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Write design rows lo to hi - 1 into ``out``, an (hi - lo, p)
        array of any memory order, and return it. :func:`covariate_matrix`
        writes the covariate columns in place and :meth:`ColumnSchema.fill`
        the rest around them, so no other block is built."""
        q = len(self.schema.covariates)
        covariate_matrix(self.data, self.schema, slice(lo, hi), out=out[:, 1:1 + q])
        arm = self.data.arm
        codes = np.array([arm.levels.index(a) for a in self.schema.arm_labels],
                         dtype=arm.codes.dtype)
        arms = arm.codes[lo:hi, None] == codes
        return self.schema.fill(out, None, arms)


def build_design(data: Dataset, spec: ModelSpec):
    """Build the interacted design matrix.

    Returns ``(design, y, schema)`` where ``design`` is the n x p array of
    every row of :class:`DesignRows`, written in place, so besides the
    design only the n x k arm indicators are held. The fits do not need it:
    :func:`fit_model` writes the design a row block at a time.
    """
    schema = build_schema(data, spec)
    design = DesignRows(data, schema).write(0, data.n, np.empty((data.n, schema.p)))
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


def _qr_r(xy: np.ndarray, rows: int | None = None) -> np.ndarray:
    """R of the Householder QR of the first ``rows`` rows (all by default)
    of the Fortran-ordered n x k ``xy``, a new min(rows, k) x k array; those
    rows are overwritten with the factorization.

    This is LAPACK's dgeqrf through numpy's own ``lapack_lite`` (private but
    present in numpy 2), which takes a C-contiguous array: ``xy.T`` is one,
    and LAPACK reads it column-major as ``xy`` itself, with leading
    dimension n. So no copy of the rows is made, as ``np.linalg.qr`` would
    make. A first call with ``lwork = -1`` asks for the workspace size.
    """
    n, k = xy.shape
    m = n if rows is None else rows
    tau, work = np.empty(k), np.empty(1)

    def dgeqrf(lwork: int) -> None:
        info = lapack_lite.dgeqrf(m, k, xy.T, n, tau, work, lwork, 0)["info"]
        if info != 0:
            raise RuntimeError(f"LAPACK dgeqrf failed with info = {info}")

    dgeqrf(-1)
    work = np.empty(max(int(work[0]), k))
    dgeqrf(work.size)
    return np.triu(xy[:min(m, k)])


def _require_finite(values: np.ndarray, schema: ColumnSchema | None = None) -> None:
    """Raise ``ValueError`` naming the first row (and design column) of
    ``values`` that holds a NaN or infinity: outcome rows if it is 1-D,
    design rows if 2-D. The values are screened by their minimum and
    maximum, which a NaN propagates to and an infinity reaches, so no mask
    is made unless a bad value is there to find. A :class:`DesignRows` needs
    no check: a :class:`~effect_engine.data.Dataset` refuses a non-finite
    numeric covariate, and every other design entry is 1, 0 or such a
    covariate times 0 or 1."""
    if not values.size or np.isfinite([values.min(), values.max()]).all():
        return
    at = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
    row, value = at[0], float(values[at])
    if values.ndim == 1:
        raise ValueError(f"outcome has a non-finite value at row {row}: {value!r}")
    column = repr(schema.labels[at[1]]) if schema is not None else at[1]
    raise ValueError(f"design has a non-finite value at row {row}, column {column}: {value!r}")


def _row_blocks(n: int):
    """(lo, hi) bounds of the consecutive ``FIT_BLOCK_ROWS``-row blocks
    that cover n rows, in row order."""
    return ((lo, min(lo + FIT_BLOCK_ROWS, n)) for lo in range(0, n, FIT_BLOCK_ROWS))


def _write_rows(X, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Rows lo to hi - 1 of the design ``X``, an n x p array or a
    :class:`DesignRows`, written into ``out`` ((hi - lo) x p), which is
    returned."""
    if isinstance(X, DesignRows):
        return X.write(lo, hi, out)
    out[...] = X[lo:hi]
    return out


def _blocked_r(X, y: np.ndarray, head: np.ndarray | None = None) -> np.ndarray:
    """The (p+1) x (p+1) triangle R of the QR of ``[X | y]``, with the rows
    of ``head`` (h x (p+1)) stacked on top, by TSQR (Demmel, Grigori,
    Hoemmen & Langou 2012).

    Each block of rows lo to hi - 1 of ``X`` (under ``head``, for the first)
    is written into the design columns of one Fortran-ordered buffer, the
    order LAPACK factors, by :func:`_write_rows`: a :class:`DesignRows`
    writes its rows there directly, with no other block built. The buffer
    is factored in place (:func:`_qr_r`) into the block's triangle, which
    is written into the next rows of one preallocated Fortran-ordered stack
    of ceil(n / ``FIT_BLOCK_ROWS``) (p+1)-row slots; the stack's used rows
    are then factored once more, in place. So the fit holds one block of
    rows and the stack, and each row passes through two QRs however many
    blocks there are; a design of one block is factored once. Merging
    each block into one running triangle instead lost accuracy in
    proportion to the block count: on a 200k x 33 design in 25 blocks, β
    was off by 9e-15 of its largest entry that way. On three such designs it
    was off by at most 7e-16 both from this and from one QR of all rows.

    The top p x p block of the result is R of the design and the column
    above the diagonal is Q'y, as in a QR of all rows at once; the corner
    entry's square is the residual sum of squares (Golub & Van Loan,
    *Matrix Computations*, section 5.3).
    """
    n, p = X.shape
    h = 0 if head is None else head.shape[0]
    buffer = np.empty((h + min(n, FIT_BLOCK_ROWS), p + 1), order="F")
    if head is not None:
        buffer[:h] = head
    blocks = -(-n // FIT_BLOCK_ROWS)
    stack = np.empty((blocks * (p + 1), p + 1), order="F") if blocks > 1 else None
    used = 0
    for lo, hi in _row_blocks(n):
        rows = buffer[h:h + hi - lo]
        _write_rows(X, lo, hi, rows[:, :p])
        rows[:, p] = y[lo:hi]
        triangle = _qr_r(buffer, h + hi - lo)
        if stack is None:
            return triangle
        stack[used:used + len(triangle)] = triangle
        used += len(triangle)
        h = 0
    return _qr_r(stack, used)


def _design_and_outcome(design, y) -> tuple:
    """The design as the fits read it, an n x p float array or a
    :class:`DesignRows`, and ``y`` as a float vector of matching length."""
    if not isinstance(design, DesignRows):
        design = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(design.shape) != 2 or y.ndim != 1 or y.shape[0] != design.shape[0]:
        raise ValueError("design must be n x p and y length n")
    return design, y


def _solve(Rxy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """β and R^-1 from the triangle of :func:`_blocked_r`, whose top p x p
    block is R and whose last column above the diagonal is Q'y."""
    p = Rxy.shape[1] - 1
    R = Rxy[:p, :p]
    return np.linalg.solve(R, Rxy[:p, p]), np.linalg.solve(R, np.eye(p))


def _fitted(schema: ColumnSchema | None, beta: np.ndarray, cov: np.ndarray, n: int,
            covariance_kind: str, posterior: bool) -> FittedModel:
    """The fit as a :class:`FittedModel`, its covariance symmetrised; a fit
    on a raw matrix (``schema`` None, mostly tests) gets a placeholder schema."""
    if schema is None:
        schema = ColumnSchema(covariates=tuple((f"x{i}", None) for i in range(1, len(beta))),
                              all_arms=("0",))
    return FittedModel(schema=schema, beta=beta, cov_beta=(cov + cov.T) / 2.0, n=n,
                       covariance_kind=covariance_kind, posterior=posterior)


def fit_ols(design, y: np.ndarray, covariance_kind: str = "hc1",
            cluster_ids: Sequence | None = None,
            schema: ColumnSchema | None = None) -> FittedModel:
    """Least-squares fit with a selectable coefficient covariance.

    ``classical`` is the textbook homoskedastic estimator, ``hc1`` the
    degrees-of-freedom-corrected sandwich, and ``cluster`` the Liang-Zeger
    sandwich over ``cluster_ids`` with the usual small-sample correction.
    The ids are a label per row, factorized here (:func:`factorize`), or a
    :class:`~effect_engine.data.LabelColumn`, such as a dataset's
    ``unit_id``, whose codes are taken as they are. Cluster scores are
    accumulated in one pass over the rows (each cluster sums its rows in row
    order), so the cost is linear in rows, not rows times clusters. The
    cluster ids are checked before the design is read.

    ``design`` is an n x p array or a :class:`DesignRows`, read
    ``FIT_BLOCK_ROWS`` rows at a time into the fit's own block buffers
    (:func:`_write_rows`), so the fit holds a few row blocks, the stack of
    the blocks' (p+1) x (p+1) triangles and vectors of length n, never an
    n x p array. The fit is one blocked QR of ``[X | y]``
    (:func:`_blocked_r`). The rank check reads the singular values of R,
    which are those of the design, and the solve and the covariance come
    from R, so no inverse of X'X is formed. The classical variance is the
    triangle's corner entry squared over n - p. The sandwiches are R^-1 meat
    R^-T, from a second pass over the blocks for the residuals and the
    scores in the Q basis, X R^-1. A NaN or infinity in the outcome, then in
    an array design, is rejected with its row.

    A rank-deficient design is refused, naming its p - rank columns of
    smallest |R[j, j]|, column j's distance from the span of the columns
    before it (Golub & Van Loan, *Matrix Computations*, section 5.2): so a
    constant covariate is named, not the intercept, and the later of two copies.
    """
    X, y = _design_and_outcome(design, y)
    n, p = X.shape
    if covariance_kind not in COVARIANCE_KINDS:
        raise ValueError(
            f"unknown covariance_kind {covariance_kind!r}; expected one of {COVARIANCE_KINDS}"
        )
    if covariance_kind == "cluster" and cluster_ids is None:
        raise ValueError("cluster covariance requires cluster_ids")
    if n <= p:
        raise ValueError(f"need more rows than design columns (n={n}, p={p})")
    _require_finite(y)
    if covariance_kind == "cluster":
        if len(cluster_ids) != n:
            raise ValueError("cluster_ids length does not match design rows")
        clusters = factorize(cluster_ids)
        n_groups = len(clusters.levels)
        if n_groups < 2:
            raise ValueError("cluster covariance requires at least 2 clusters")

    if not isinstance(X, DesignRows):
        _require_finite(X, schema)
    Rxy = _blocked_r(X, y)
    singular = np.linalg.svd(Rxy[:p, :p], compute_uv=False)
    rank = int(np.sum(singular > RANK_RTOL * singular[0]))
    if rank < p:
        smallest = np.argsort(np.abs(np.diag(Rxy)[:p]), kind="stable")[:p - rank]
        names = ", ".join(f"column {j}" if schema is None else schema.labels[j]
                          for j in sorted(smallest))
        raise ValueError(f"design matrix is rank deficient; dependent columns: {names}")
    beta, r_inv = _solve(Rxy)

    if covariance_kind == "classical":
        sigma2 = float(Rxy[p, p]) ** 2 / (n - p)
        cov = sigma2 * (r_inv @ r_inv.T)
    else:
        if covariance_kind == "hc1":
            meat = np.zeros((p, p))
            correction = n / (n - p)
        else:
            cluster_scores = np.zeros((n_groups, p))
            correction = (n_groups / (n_groups - 1)) * ((n - 1) / (n - p))
        # One block, scores and residual buffer serve every block. The rows
        # are written column by column, in Fortran order, into the scores
        # buffer, which is free until the product, then copied into the
        # block buffer in C order: the products' bits depend on their
        # operands' order, and column writes into C order took 3 to 5 times
        # as long.
        rows = min(n, FIT_BLOCK_ROWS)
        block_buffer, scores_buffer, residual_buffer = (
            np.empty((rows, p)), np.empty(rows * p), np.empty(rows))
        for lo, hi in _row_blocks(n):
            m = hi - lo
            block, scores = block_buffer[:m], scores_buffer[:m * p]
            block[...] = _write_rows(X, lo, hi, scores.reshape((m, p), order="F"))
            # Scores in the Q basis, X R^-1 scaled by the residuals, so that
            # R^-1 meat R^-T carries eps * cond(X) where (X'X)^-1 meat
            # (X'X)^-1 would carry its square.
            scores = np.matmul(block, r_inv, out=scores.reshape(m, p))
            residuals = np.matmul(block, beta, out=residual_buffer[:m])
            np.subtract(y[lo:hi], residuals, out=residuals)
            scores *= residuals[:, None]
            if covariance_kind == "hc1":
                meat += scores.T @ scores
            else:
                np.add.at(cluster_scores, clusters.codes[lo:hi], scores)
        if covariance_kind == "cluster":
            meat = cluster_scores.T @ cluster_scores
        cov = r_inv @ meat @ r_inv.T * correction
    return _fitted(schema, beta, cov, n, covariance_kind, posterior=False)


def fit_bayes(design, y: np.ndarray, prior_mean: np.ndarray,
              prior_covariance: np.ndarray, noise_variance: float,
              schema: ColumnSchema | None = None) -> FittedModel:
    """Exact conjugate-normal posterior for the coefficients.

    With prior N(m0, S0) and known noise variance s2, the posterior
    covariance is (S0^-1 + X'X/s2)^-1 and the posterior mean is that
    covariance applied to (S0^-1 m0 + X'y/s2). No approximation is involved.

    That posterior is the least-squares fit of ``[X | y]`` under p prior
    rows, sqrt(s2) ``[U0^-T | U0^-T m0]`` with S0 = U0'U0 (Theil &
    Goldberger 1961, mixed estimation): R'R of the stack is s2 times the
    posterior precision. So it is :func:`fit_ols`'s blocked QR with those
    rows on top, reading ``design`` the same way, and its solve; the
    posterior covariance is s2 R^-1 R^-T, and no X'X is formed. The prior
    rows keep R full rank, so a singular design is not refused. A NaN or
    infinity in the outcome, then in an array design, is rejected with its row.
    """
    X, y = _design_and_outcome(design, y)
    n, p = X.shape
    if n == 0:
        raise ValueError("cannot fit a posterior on an empty dataset")
    if noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    _require_finite(y)
    m0 = np.asarray(prior_mean, dtype=np.float64)
    S0 = np.asarray(prior_covariance, dtype=np.float64)
    if m0.shape != (p,) or S0.shape != (p, p):
        raise ValueError("prior dimensions do not match the design columns")
    if not np.allclose(S0, S0.T, rtol=1e-10, atol=1e-12):
        raise ValueError("prior covariance is not symmetric positive definite")
    try:
        # U0^-1 by back substitution: U0 is triangular, so the LU inside
        # np.linalg.solve is U0 itself.
        u0_inv = np.linalg.solve(np.linalg.cholesky(S0).T, np.eye(p))
    except np.linalg.LinAlgError:
        raise ValueError("prior covariance is not symmetric positive definite") from None
    prior_rows = np.column_stack([u0_inv.T, u0_inv.T @ m0]) * np.sqrt(noise_variance)
    if not isinstance(X, DesignRows):
        _require_finite(X, schema)
    beta, r_inv = _solve(_blocked_r(X, y, head=prior_rows))
    return _fitted(schema, beta, noise_variance * (r_inv @ r_inv.T), n, "bayes", posterior=True)


def fit_model(data: Dataset, spec: ModelSpec) -> FittedModel:
    """Fit ``data`` under ``spec``, its design written a row block at a time
    (:class:`DesignRows`), so the n x p design is never built.

    Dispatches to the conjugate posterior when ``spec.bayes`` is present,
    with its prior expanded to the design's p (:meth:`BayesPrior.expand`),
    otherwise to least squares with the requested covariance estimator
    (cluster covariance takes the codes of ``data.unit_id`` as its clusters).
    """
    schema = build_schema(data, spec)
    design, y = DesignRows(data, schema), np.asarray(data.outcome, dtype=np.float64)
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
