"""Built-in self-checks cross-validating the engine against the independent
oracles in :mod:`effect_engine.oracles`.

The fast checks (``run_default``) back the ``verify`` CLI subcommand; the
heavier simulation checks are the release gate the test suite runs. Every
check is deterministic for a given seed and returns a :class:`VerifyResult`
instead of raising, so callers can print one line per check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import oracles
from .data import Dataset
from .effects import ate, cate, hte
from .model import ModelSpec, as_flat_prior_posterior, build_schema, fit_model
from .mvnorm import mvn_orthant
from .ranking import prob_best
from .relative import ratio_moments, relative_effect
from .vectors import CovariateProfile, delta_vector

__all__ = [
    "VerifyResult",
    "delta_identity_check",
    "group_means_check",
    "saturated_subgroup_check",
    "ratio_example_check",
    "bivariate_orthant_check",
    "ci_coverage_check",
    "ratio_mc_battery_check",
    "orthant_mc_battery_check",
    "orthant_tol_check",
    "prob_best_sum_check",
    "exchangeable_ranking_check",
    "run_default",
    "run_mc",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


def _random_dataset(rng: np.random.Generator, n_arms: int, n_numeric: int,
                    n_categorical: int) -> Dataset:
    """Random dataset in which every arm (and every categorical level drawn)
    is guaranteed to appear at least once."""
    arms = [str(a) for a in range(n_arms)]
    base_rows = int(rng.integers(max(3 * n_arms, 12), 40))
    arm_col = list(rng.choice(arms, size=base_rows)) + arms
    total = len(arm_col)
    covariates: dict = {}
    for i in range(n_numeric):
        covariates[f"x{i}"] = rng.normal(size=total)
    for j in range(n_categorical):
        levels = [f"l{k}" for k in range(int(rng.integers(2, 5)))]
        covariates[f"g{j}"] = list(rng.choice(levels, size=total - len(levels))) + levels
    outcome = rng.normal(size=total)
    return Dataset(outcome=outcome, arm=arm_col, covariates=covariates)


def _labelled_delta(labels, profile: CovariateProfile, arm_to: str, arm_from: str) -> np.ndarray:
    """The delta row written from the column labels alone: 0 for the
    intercept and each covariate, ``[a = to] - [a = from]`` for ``arm=a``,
    and ``z_c`` times that for ``c:arm=a``."""
    z = dict(zip((label for label in labels[1:] if "arm=" not in label), profile.values))
    row = []
    for label in labels:
        covariate, is_arm, arm = label.partition("arm=")
        step = float(arm == arm_to) - float(arm == arm_from)  # 0 for a label without "arm="
        row.append(z[covariate[:-1]] * step if is_arm and covariate else step)
    return np.array(row)


def delta_identity_check(n_schemas: int = 200, seed: int = 901) -> VerifyResult:
    """delta(w2, w1) must equal, entry for entry with zero tolerance, the
    row built from the schema's column labels alone, for arbitrary schemas
    and profiles; a design layout that disagrees with its labels fails."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(n_schemas):
        data = _random_dataset(
            rng,
            n_arms=int(rng.integers(2, 6)),
            n_numeric=int(rng.integers(0, 4)),
            n_categorical=int(rng.integers(0, 3)),
        )
        spec = ModelSpec(
            reference_arm=str(rng.choice(data.arm.levels)),
            interactions=bool(rng.integers(0, 2)),
        )
        schema = build_schema(data, spec)
        profile = CovariateProfile(rng.normal(size=len(schema.covariates)))
        w2, w1 = rng.choice(data.arm.levels, size=2, replace=False)
        if not np.array_equal(delta_vector(schema, profile, w2, w1),
                              _labelled_delta(schema.labels, profile, w2, w1)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    return VerifyResult(
        name="delta-identity",
        passed=mismatches == 0,
        detail=f"{n_schemas} random schemas, delta row vs its column labels, exact, "
               f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def group_means_check(n_datasets: int = 100, seed: int = 902) -> VerifyResult:
    """With no covariates the model-based average effect must reproduce the
    difference of raw group means (fsum oracle) to 1e-10."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_datasets):
        n_arms = int(rng.integers(2, 5))
        arms = [str(a) for a in range(n_arms)]
        base_rows = int(rng.integers(4 * n_arms, 60))
        arm_col = list(rng.choice(arms, size=base_rows)) + arms
        idx = np.asarray([int(a) for a in arm_col])
        offsets = rng.normal(0.0, 2.0, size=n_arms)
        outcome = offsets[idx] + rng.normal(size=len(arm_col))
        data = Dataset(outcome=outcome, arm=arm_col, covariates={})
        kind = str(rng.choice(["classical", "hc1"]))
        model = fit_model(data, ModelSpec(reference_arm=arms[0], covariance_kind=kind))
        to, fr = rng.choice(arms, size=2, replace=False)
        est = ate(model, data, to, fr).estimate
        oracle = oracles.group_mean_delta(data.outcome, data.arm, to, fr)
        worst = max(worst, abs(est - oracle))
    return VerifyResult(
        name="group-means",
        passed=worst <= 1e-10,
        detail=f"{n_datasets} covariate-free datasets, max |ate - mean diff| = {worst:.2e}",
    )


def saturated_subgroup_check(n_datasets: int = 50, seed: int = 903) -> VerifyResult:
    """On a saturated model (one categorical covariate, full interactions)
    conditional and heterogeneity estimates must reproduce subgroup means."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_datasets):
        n_arms = int(rng.integers(2, 4))
        arms = [str(a) for a in range(n_arms)]
        levels = [f"s{j}" for j in range(int(rng.integers(2, 4)))]
        arm_col: list = []
        seg_col: list = []
        outcome: list = []
        for a in arms:
            for lev in levels:
                count = int(rng.integers(2, 7))
                cell_mean = rng.normal(0.0, 3.0)
                arm_col += [a] * count
                seg_col += [lev] * count
                outcome += list(rng.normal(cell_mean, 1.0, size=count))
        data = Dataset(outcome=outcome, arm=arm_col, covariates={"seg": seg_col})
        model = fit_model(data, ModelSpec(reference_arm=arms[0], covariance_kind="classical"))
        level = str(rng.choice(levels))
        to, fr = rng.choice(arms, size=2, replace=False)
        predicate = f"seg == {level}"

        in_mask = [s == level for s in seg_col]
        est_cate = cate(model, data, to, fr, predicate).estimate
        oracle_cate = oracles.group_mean_delta(outcome, arm_col, to, fr, in_mask)
        worst = max(worst, abs(est_cate - oracle_cate))

        # Complement oracle: cell-mean deltas weighted by the complement's
        # pooled level shares (both arms together), matching the profile
        # the heterogeneity contrast conditions on.
        comp_total = in_mask.count(False)
        pieces = []
        for other in levels:
            if other == level:
                continue
            other_mask = [s == other for s in seg_col]
            share = other_mask.count(True) / comp_total
            pieces.append(share * oracles.group_mean_delta(outcome, arm_col, to, fr, other_mask))
        oracle_hte = oracle_cate - math.fsum(pieces)
        est_hte = hte(model, data, to, fr, predicate).estimate
        worst = max(worst, abs(est_hte - oracle_hte))
    return VerifyResult(
        name="saturated-subgroups",
        passed=worst <= 1e-10,
        detail=f"{n_datasets} saturated datasets, max |estimate - subgroup oracle| = {worst:.2e}",
    )


def ratio_example_check() -> VerifyResult:
    """Frozen worked example for the ratio moments, end to end.

    Four rows, arms 0/1: delta moments (3, 2), baseline moments (2, 1),
    covariance -1, giving ratio mean 2.125 and variance 1.8125. The guard is
    relaxed explicitly because this baseline sits only two standard errors
    from zero — which is exactly what the default guard is there to catch.
    """
    mean, var = ratio_moments(3.0, 2.0, 2.0, 1.0, -1.0)
    worst = max(abs(mean - 2.125), abs(var - 1.8125))
    data = Dataset(outcome=[1.0, 3.0, 4.0, 6.0], arm=["0", "0", "1", "1"], covariates={})
    model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical"))
    rel = relative_effect(model, data, "1", "0", guard=1.5)
    worst = max(worst, abs(rel.estimate - 2.125), abs(rel.std_error**2 - 1.8125))
    return VerifyResult(
        name="ratio-example",
        passed=worst <= 1e-12,
        detail=f"closed-form vs engine on the 4-row example, max deviation = {worst:.2e}",
    )


def bivariate_orthant_check(seed: int = 904, draws: int = 2**17) -> VerifyResult:
    """The bivariate closed form against the exact zero-mean identity
    1/4 + asin(rho)/(2 pi), within its stated error, and against plain
    Monte Carlo at nonzero means and random covariances, within 3 MC
    standard errors."""
    worst = 0.0
    within = True
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        res = mvn_orthant([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
        gap = abs(res.probability - oracles.bivariate_orthant(rho))
        worst, within = max(worst, gap), within and gap <= res.error
    rng = np.random.default_rng(seed)
    worst_mc = 0.0
    for k in range(5):
        scale = np.exp(rng.normal(size=2))
        cov = _random_correlation(rng, 2) * np.outer(scale, scale)
        mu = rng.normal(0.0, 1.0, size=2) * scale
        res = mvn_orthant(mu, cov)
        mc, mc_se = oracles.mc_orthant(mu, cov, n_samples=draws, seed=seed * 1000 + k)
        worst_mc = max(worst_mc, abs(res.probability - mc) / (3.0 * mc_se))
    return VerifyResult(
        name="bivariate-orthant",
        passed=within and worst_mc <= 1.0,
        detail=f"5 correlations, max |closed form - identity| = {worst:.2e} "
               f"(within its error: {within}); 5 nonzero means, worst "
               f"|closed form - mc| at {worst_mc:.2f}x 3 MC sigma",
    )


def ci_coverage_check(n_sims: int = 2000, n_rows: int = 300, seed: int = 905,
                      lo: float = 0.93, hi: float = 0.97) -> VerifyResult:
    """Coverage of the 95% interval for the average effect under a
    heteroskedastic data-generating process with interactions.

    The per-simulation target is the conditional estimand at that draw's
    covariate means, which is what the delta vector estimates.
    """
    rng = np.random.default_rng(seed)
    alpha, b1, b2, tau, g1, g2 = 1.0, 0.5, -1.0, 0.8, 0.3, -0.4
    covered = 0
    start = time.perf_counter()
    for _ in range(n_sims):
        x1 = rng.normal(size=n_rows)
        x2 = rng.normal(size=n_rows)
        a = rng.integers(0, 2, size=n_rows)
        if a.min() == a.max():
            a[0] = 1 - a[0]
        sd = 0.4 + 0.8 * np.abs(x1) + 0.3 * a
        y = alpha + b1 * x1 + b2 * x2 + tau * a + g1 * x1 * a + g2 * x2 * a
        y = y + sd * rng.normal(size=n_rows)
        data = Dataset(outcome=y, arm=[str(v) for v in a], covariates={"x1": x1, "x2": x2})
        model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="hc1"))
        est = ate(model, data, "1", "0")
        truth = tau + g1 * float(x1.mean()) + g2 * float(x2.mean())
        covered += int(est.ci_low <= truth <= est.ci_high)
    rate = covered / n_sims
    elapsed = time.perf_counter() - start
    return VerifyResult(
        name="ci-coverage",
        passed=lo <= rate <= hi,
        detail=f"{n_sims} sims, 95% CI covered {rate:.3f} (gate [{lo}, {hi}]), {elapsed:.1f}s",
    )


def ratio_mc_battery_check(n_models: int = 20, seed: int = 906,
                           draws: int = 10**6) -> VerifyResult:
    """Relative-effect estimates against Monte Carlo means of the ratio at
    the fitted joint moments, within 3 MC standard errors each.

    The gate is a hard 3 sigma per model, so roughly one arbitrary seed in
    twenty will show a chance excursion; the shipped seed is a pinned,
    passing realization.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst_sigmas = 0.0
    for k in range(n_models):
        n_arms = int(rng.integers(2, 4))
        arms = [str(a) for a in range(n_arms)]
        base_rows = int(rng.integers(150, 400))
        arm_col = list(rng.choice(arms, size=base_rows)) + arms
        idx = np.asarray([int(a) for a in arm_col])
        x = rng.normal(size=len(arm_col))
        intercept = float(rng.uniform(8.0, 15.0))
        effects_ = rng.normal(0.0, 1.0, size=n_arms)
        effects_[0] = 0.0
        slopes = rng.normal(0.0, 0.3, size=n_arms)
        y = intercept + 0.5 * x + effects_[idx] + slopes[idx] * x + rng.normal(size=len(arm_col))
        data = Dataset(outcome=y, arm=arm_col, covariates={"x": x})
        model = fit_model(data, ModelSpec(reference_arm="0", covariance_kind="hc1"))
        to = str(rng.choice([a for a in arms if a != "0"]))
        rel = relative_effect(model, data, to, "0")
        c = rel.components
        mc_mean, mc_se = oracles.mc_ratio(
            (c["delta_mean"], c["baseline_mean"]),
            [[c["delta_variance"], c["covariance"]],
             [c["covariance"], c["baseline_variance"]]],
            n_samples=draws,
            seed=seed * 1000 + k,
        )
        sigmas = abs(rel.estimate - mc_mean) / mc_se
        worst_sigmas = max(worst_sigmas, sigmas)
        if sigmas > 3.0:
            failures += 1
    return VerifyResult(
        name="ratio-vs-mc",
        passed=failures == 0,
        detail=f"{n_models} fitted models, worst |delta-method - MC| = {worst_sigmas:.2f} MC sigmas",
    )


def _random_correlation(rng: np.random.Generator, m: int) -> np.ndarray:
    """An m x m correlation matrix: a @ a.T + I / 2 for a standard normal
    a, scaled to a unit diagonal."""
    a = rng.normal(size=(m, m))
    cov = a @ a.T + 0.5 * np.eye(m)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def orthant_mc_battery_check(n_matrices: int = 20, seed: int = 907,
                             draws: int = 10**6) -> VerifyResult:
    """QMC orthant probabilities against plain Monte Carlo for random means
    and covariances of dimension 3 to 5.

    The gate is ``max(tol, 3*mc_se)`` per matrix. Like the ratio battery,
    it is hard, so an arbitrary seed can flake on MC noise alone; the
    shipped seed is a pinned passing realization.
    """
    rng = np.random.default_rng(seed)
    tol = 5e-4
    failures = 0
    worst = 0.0
    for k in range(n_matrices):
        m = int(rng.integers(3, 6))
        cov = _random_correlation(rng, m)
        mu = rng.normal(0.0, 1.0, size=m)
        est = mvn_orthant(mu, cov, tol=tol, seed=seed + k)
        mc, mc_se = oracles.mc_orthant(mu, cov, n_samples=draws, seed=seed * 1000 + k)
        gap = abs(est.probability - mc)
        allowance = max(tol, 3.0 * mc_se)
        worst = max(worst, gap / allowance)
        if gap > allowance:
            failures += 1
    return VerifyResult(
        name="orthant-vs-mc",
        passed=failures == 0,
        detail=f"{n_matrices} matrices (3<=m<=5), worst |qmc - mc| at {worst:.2f}x its allowance",
    )


def orthant_tol_check(n_matrices: int = 40, seed: int = 910, tol: float = 1e-5) -> VerifyResult:
    """QMC orthant probabilities at a tight ``tol`` against a reference
    that runs the full budget, 10 x 2**17 points, on its own seed, for
    random correlation matrices of dimension 3 to 6 and N(0, 0.5**2) means.

    Each estimate must lie within ``tol`` plus the reference's reported
    error of the reference, so the error bar an estimate stops on holds.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(n_matrices):
        m = int(rng.integers(3, 7))
        cov = _random_correlation(rng, m)
        mu = rng.normal(0.0, 0.5, size=m)
        est = mvn_orthant(mu, cov, tol=tol, seed=seed + k)
        ref = mvn_orthant(mu, cov, tol=np.finfo(float).tiny, seed=seed * 1000 + k)
        worst = max(worst, abs(est.probability - ref.probability) / (tol + ref.error))
    return VerifyResult(
        name="orthant-tol",
        passed=worst <= 1.0,
        detail=f"{n_matrices} matrices (3<=m<=6) at tol {tol:g}, worst |qmc - reference| "
               f"at {worst:.2f}x tol + reference error",
    )


def _ranked_model(rng: np.random.Generator, n_arms: int):
    arms = [str(a) for a in range(n_arms)]
    base_rows = 80 * n_arms
    arm_col = list(rng.choice(arms, size=base_rows)) + arms
    idx = np.asarray([int(a) for a in arm_col])
    x = rng.normal(size=len(arm_col))
    effects_ = rng.normal(0.0, 0.2, size=n_arms)
    y = 1.0 + 0.3 * x + effects_[idx] + rng.normal(size=len(arm_col))
    data = Dataset(outcome=y, arm=arm_col, covariates={"x": x})
    model = as_flat_prior_posterior(fit_model(data, ModelSpec(reference_arm="0", covariance_kind="hc1")))
    return data, model


def prob_best_sum_check(arm_counts=(3, 4, 5), seed: int = 908) -> VerifyResult:
    """Per-arm best-arm probabilities are estimated independently, so their
    sum must come back to 1 within the summed error bounds."""
    rng = np.random.default_rng(seed)
    details = []
    passed = True
    for i, n_arms in enumerate(arm_counts):
        data, model = _ranked_model(rng, n_arms)
        rr = prob_best(model, data, tol=5e-4, seed=seed + i)
        window = 3.0 * rr.total_error
        ok = (1.0 - window) <= rr.total <= (1.0 + window)
        passed = passed and ok
        details.append(f"{n_arms} arms: sum={rr.total:.6f} (window +/-{window:.1e})")
    return VerifyResult(name="prob-best-sum", passed=passed, detail="; ".join(details))


def exchangeable_ranking_check(seed: int = 909, tol: float = 2e-3) -> VerifyResult:
    """Three arms with identical outcome multisets are exchangeable, so each
    must be best with probability 1/3."""
    pattern = [-1.0, 0.0, 1.0, 2.0]
    data = Dataset(
        outcome=pattern * 3,
        arm=["0"] * 4 + ["1"] * 4 + ["2"] * 4,
        covariates={},
    )
    model = as_flat_prior_posterior(fit_model(data, ModelSpec(reference_arm="0", covariance_kind="classical")))
    rr = prob_best(model, data, tol=2e-4, seed=seed)
    worst = max(abs(e.probability - 1.0 / 3.0) for e in rr.entries)
    return VerifyResult(
        name="exchangeable-ranking",
        passed=worst <= tol,
        detail=f"3 exchangeable arms, max |p - 1/3| = {worst:.2e} (tol {tol:g})",
    )


def run_default(seed: int = 0) -> list[VerifyResult]:
    """The fast self-checks behind ``effect-engine verify``."""
    return [
        delta_identity_check(seed=901 + seed),
        group_means_check(seed=902 + seed),
        saturated_subgroup_check(seed=903 + seed),
        ratio_example_check(),
        bivariate_orthant_check(seed=904 + seed),
    ]


def run_mc(seed: int = 0) -> list[VerifyResult]:
    """The Monte Carlo batteries; slower than the default checks."""
    return [
        ci_coverage_check(seed=905 + seed),
        ratio_mc_battery_check(seed=906 + seed),
        orthant_mc_battery_check(seed=907 + seed),
        orthant_tol_check(seed=910 + seed),
        prob_best_sum_check(seed=908 + seed),
        exchangeable_ranking_check(seed=909 + seed),
    ]


SUITES = ("default", "mc", "full")


def run_suite(name: str = "default", seed: int = 0) -> list[VerifyResult]:
    """Run a named self-check suite: the fast checks, the MC ones, or both."""
    if name == "default":
        return run_default(seed)
    if name == "mc":
        return run_mc(seed)
    if name == "full":
        return run_default(seed) + run_mc(seed)
    raise ValueError(f"unknown verify suite {name!r}; choose from {', '.join(SUITES)}")
