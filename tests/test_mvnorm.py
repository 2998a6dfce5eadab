"""Randomized-QMC orthant probabilities."""

import importlib
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from conftest import DEPENDENT_Z, RANK_DEFICIENT_CSV, cli_env
from effect_engine import mvnorm, normal
from effect_engine.mvnorm import (OrthantResult, _cholesky_with_jitter, _scrambles,
                                  _sobol_points, _sov_batch, mvn_orthant)


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
    # pairs; standard result via the arcsine law. Two dimensions are a
    # closed form, within its stated error.
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
        exact = 0.25 + np.arcsin(rho) / (2 * np.pi)
        res = mvn_orthant(np.zeros(2), equicorrelated(2, rho), tol=5e-4, seed=3)
        assert res.method == "closed_form_2d"
        assert mvnorm.BIVARIATE_ERROR <= res.error < 2 * mvnorm.BIVARIATE_ERROR
        assert res.points == 0
        assert type(res.error) is float and type(res.probability) is float
        assert abs(res.probability - exact) <= res.error, rho


def test_trivariate_centered_identity():
    # P(Z > 0) = 1/8 + (asin r12 + asin r13 + asin r23) / (4 pi) for a
    # centered trivariate normal with correlations r; the QMC estimate
    # meets its error target and lies within it.
    rng = np.random.default_rng(3)
    for i in range(5):
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        exact = 0.125 + np.arcsin(corr[np.triu_indices(3, 1)]).sum() / (4 * np.pi)
        res = mvn_orthant(np.zeros(3), cov, tol=5e-4, seed=3)
        assert res.method == "qmc"
        assert res.error <= 5e-4
        assert type(res.error) is float and type(res.probability) is float
        assert abs(res.probability - exact) < 5e-4, i


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
    # Rank-one covariance: all coordinates are the same N(0,1) draw, so the
    # orthant probability is a single CDF evaluation.
    cov = np.ones((3, 3))
    res = mvn_orthant([0.3, 0.3, 0.3], cov, tol=5e-4, seed=8)
    assert res.method == "qmc"
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


def test_budget_cap_reports_honest_error(monkeypatch):
    monkeypatch.setattr(mvnorm, "MAX_LOG2_POINTS", 10)
    res = mvn_orthant(np.zeros(3), equicorrelated(3, 0.3), tol=1e-12, seed=13)
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


def test_orthant_probability_monotone_in_mean():
    # Raising one mean component enlarges the orthant event stochastically,
    # so the probability must climb well past the integration error.
    cov = equicorrelated(3, 0.3)
    shifts = [-1.0, -0.5, 0.0, 0.5, 1.0]
    results = [mvn_orthant([s, 0.2, -0.1], cov, seed=11) for s in shifts]
    for lo, hi in zip(results, results[1:]):
        assert hi.probability - lo.probability > 3 * (hi.error + lo.error)


def _loaded_modules(code, package="scipy"):
    """The modules of ``package`` (scipy by default) that running ``code``
    in a fresh interpreter imports."""
    listed = f"sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join({listed}))"],
        env=cli_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[-1].split() if lines else []


def test_scipy_stats_is_never_imported(tmp_path):
    # scipy.stats costs most of a second to import; no run pays it, not even
    # one that integrates an orthant. Importing the CLI and --help load no
    # scipy module at all.
    assert _loaded_modules("import effect_engine.cli") == []
    assert _loaded_modules("from effect_engine.cli import main\ntry:\n    main(['--help'])\n"
                          "except SystemExit:\n    pass") == []
    orthant = "from effect_engine.mvnorm import mvn_orthant\nmvn_orthant"
    assert "scipy.stats" not in _loaded_modules(f"{orthant}([0.5], [[1.0]])")
    cov = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]
    assert "scipy.stats" not in _loaded_modules(f"{orthant}([0.5, 0.5, 0.5], {cov})")

    rows = [(y, arm) for arm in "abcd" for y in (1.0, 2.5, 4.0, 3.5)]
    (tmp_path / "data.csv").write_text(
        "y,arm\n" + "".join(f"{y},{arm}\n" for y, arm in rows), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": {"path": "data.csv", "columns": {"outcome": "y", "arm": "arm"}},
        "model": {"reference_arm": "a"},
        "queries": [{"type": "prob_best", "arms": ["a", "b", "c", "d"]}],
        "output": "report.json",
    }), encoding="utf-8")
    run = ("import sys\nfrom effect_engine.cli import main\n"
           f"sys.argv[1:] = ['run', '--config', {str(tmp_path / 'config.json')!r}, "
           "'--flat-prior-ok']\nassert main() == 0")
    assert "scipy.stats" not in _loaded_modules(run)
    result, = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["results"]
    assert result["kind"] == "prob_best"
    assert {arm["method"] for arm in result["arms"].values()} == {"qmc"}


SMALL_WORKLOADS = [("xsec_hc1", 2000), ("panel_cluster", 1200), ("segments_bayes", 4000)]


def _workload_argvs(workload, rows, tmp_path, monkeypatch):
    """The ``run`` and ``validate`` arguments for the benchmark workload
    ``workload`` at seed 0, generated with ``rows`` rows under ``tmp_path``.
    The benchmark's generator is imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    inputs = workloads.generate(workload, 0, rows)
    paths = workloads.write_inputs(inputs, str(tmp_path))
    run = ["run", "--config", paths["config"], "--out", str(tmp_path / "report.json")]
    run += ["--flat-prior-ok"] if inputs.flat_prior_ok else []
    return run, ["validate", "--config", paths["config"]]


@pytest.mark.parametrize("workload, rows", SMALL_WORKLOADS)
def test_runs_import_neither_scipy_linalg_nor_special(workload, rows, tmp_path, monkeypatch):
    # Each costs about 0.3 s to import, most of it shared, and a run needs
    # neither: the QR is numpy's LAPACK and the normal functions are numpy.
    for argv in _workload_argvs(workload, rows, tmp_path, monkeypatch):
        loaded = _loaded_modules(f"from effect_engine.cli import main\nassert main({argv!r}) == 0")
        assert not {"scipy.linalg", "scipy.special"} & set(loaded), (argv[0], loaded)
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["errors"] == []


@pytest.mark.parametrize("workload, rows", SMALL_WORKLOADS)
def test_only_runs_that_integrate_by_qmc_load_numpy_random(workload, rows, tmp_path,
                                                           monkeypatch):
    # Loading numpy.random costs 2.45 MB. Rankings of three arms or fewer
    # are answered in closed form and need no seed; segments_bayes ranks six.
    for argv in _workload_argvs(workload, rows, tmp_path, monkeypatch):
        loaded = _loaded_modules(f"from effect_engine.cli import main\nassert main({argv!r}) == 0",
                                package="numpy.random")
        assert bool(loaded) == (workload == "segments_bayes"), (argv[0], loaded)


# Run in a child before the engine loads: from then on, importing or finding
# scipy or any of its submodules fails as it does where scipy is not installed.
HIDE_SCIPY = """\
import sys

class HideScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, HideScipy())
"""


def _cli_outcome(argv, hide_scipy):
    """Exit code, stderr and report text (``created_at`` line removed, if
    ``argv`` writes a report) of ``main(argv)`` in a fresh interpreter."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    code = (HIDE_SCIPY if hide_scipy else "") + (
        f"from effect_engine.cli import main\nraise SystemExit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, timeout=120)
    report = None
    if out is not None and out.exists():
        report = [line for line in out.read_text(encoding="utf-8").splitlines()
                  if '"created_at"' not in line]
    return proc.returncode, proc.stderr, report


def _rank_deficient_argvs(tmp_path):
    """``run`` and ``validate`` on a design whose column z is twice x."""
    (tmp_path / "data.csv").write_text(RANK_DEFICIENT_CSV, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "data": {"path": "data.csv", "columns": {"outcome": "y", "arm": "arm"}},
        "model": {"reference_arm": "a"},
        "queries": [{"type": "prob_best", "arms": ["a", "b", "c"]}],
        "output": "report.json",
    }), encoding="utf-8")
    config = str(tmp_path / "config.json")
    return (["run", "--config", config, "--out", str(tmp_path / "report.json"),
             "--flat-prior-ok"], ["validate", "--config", config])


@pytest.mark.parametrize("workload, rows", SMALL_WORKLOADS + [("rank_deficient", None)])
def test_runs_need_no_scipy_installed(workload, rows, tmp_path, monkeypatch):
    # The Sobol direction numbers ship with the package, so a run gives the
    # same exit code, errors and report bytes where scipy cannot be found.
    if rows is None:
        run, validate = _rank_deficient_argvs(tmp_path)
    else:
        run, validate = _workload_argvs(workload, rows, tmp_path, monkeypatch)
    hidden = _cli_outcome(validate, hide_scipy=True)
    assert hidden == _cli_outcome(validate, hide_scipy=False)
    assert hidden[0] == (0 if rows else 1), hidden[1]
    hidden = _cli_outcome(run, hide_scipy=True)
    assert hidden == _cli_outcome(run, hide_scipy=False)
    if rows is None:
        assert hidden[0] == 2
        assert DEPENDENT_Z in hidden[1]
    else:
        assert hidden[0] == 0 and hidden[2] is not None, hidden[1]


def _scipy_sobol(d, children, k):
    return [qmc_sobol(d, child).random_base2(k) for child in children]


def test_shipped_sobol_table_equals_scipys():
    import scipy

    got = np.load(Path(mvnorm.__file__).with_name("sobol_directions.npy"))
    assert got.shape == (mvnorm._SOBOL_MAX_DIM, 19) == (1000, 19)
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    theirs = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(theirs) as want:
        assert np.array_equal(got[:, 0].astype(np.int64), want["poly"][:1000])
        for j in range(18):
            assert np.array_equal(got[:, 1 + j].astype(np.int64), want["vinit"][:1000, j]), j


def test_sdist_ships_the_sobol_table(tmp_path, monkeypatch):
    # The table is package data: without its declaration in pyproject.toml
    # the source distribution leaves it out. A copy is built, so no build
    # files land in the source tree.
    build_meta = pytest.importorskip("setuptools.build_meta")
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    shutil.copytree(root / "src" / "effect_engine", tmp_path / "src" / "effect_engine",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.chdir(tmp_path)
    name = build_meta.build_sdist(str(tmp_path / "dist"))
    with tarfile.open(tmp_path / "dist" / name) as sdist:
        assert any(member.endswith("/src/effect_engine/sobol_directions.npy")
                   for member in sdist.getnames())


@pytest.mark.parametrize("d", [2, 3, 5, 9, 40])
def test_scrambled_sobol_matches_scipy_bit_for_bit(d):
    for k in (0, 1, 4, 10, 12):
        for entropy in (0, 17, 2**70 + 5):
            # spawn() advances the parent, so each side gets its own.
            want = _scipy_sobol(d, np.random.SeedSequence(entropy).spawn(3), k)
            points = _sobol_points(*_scrambles(d, np.random.SeedSequence(entropy).spawn(3)),
                                   0, 2**k)
            assert points.shape == (d, 3, 2**k)
            for s, w in enumerate(want):
                g = np.ascontiguousarray(points[:, s].T)
                assert g.dtype == w.dtype and g.shape == w.shape == (2**k, d)
                assert g.tobytes() == w.tobytes(), (d, k, entropy)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 39])
def test_continued_sobol_matches_scipys_continued_engine(d):
    # Each level's points, made from the level's first index alone, follow
    # on from the last level's as a scipy engine continues its sequence.
    bounds = [0, 2**3, 2**4, 2**5, 2**5 + 3, 2**8]
    for entropy in (0, 2**70 + 5):
        engines = [qmc_sobol(d, child) for child in np.random.SeedSequence(entropy).spawn(3)]
        want = [np.concatenate([engine.random(hi - lo) for lo, hi in zip(bounds, bounds[1:])])
                for engine in engines]
        scrambles = _scrambles(d, np.random.SeedSequence(entropy).spawn(3))
        got = np.concatenate([_sobol_points(*scrambles, lo, hi)
                              for lo, hi in zip(bounds, bounds[1:])], axis=2)
        for s, w in enumerate(want):
            g = np.ascontiguousarray(got[:, s].T)
            assert g.shape == w.shape == (bounds[-1], d)
            assert g.tobytes() == w.tobytes(), (d, entropy, s)


def qmc_sobol(d, child):
    from scipy.stats import qmc
    return qmc.Sobol(d=d, scramble=True, seed=np.random.default_rng(child))


def reference_mvn_orthant(mean, cov, tol=5e-4, seed=None, batches=10,
                          min_log2_points=9, max_log2_points=17):
    """The QMC branch of ``mvn_orthant`` with one ``scipy.stats.qmc.Sobol``
    engine of m - 1 dimensions per scrambling, each integrated on its own
    and continued from level to level, for inputs with m >= 2 and a
    nonzero diagonal."""
    mu = np.asarray(mean, dtype=np.float64)
    sigma = np.asarray(cov, dtype=np.float64)
    sigma = (sigma + sigma.T) / 2.0
    diag = np.clip(np.diag(sigma), 0.0, None)
    marginal = normal.ndtr(mu / np.sqrt(np.where(diag > 0, diag, np.finfo(float).tiny)))
    order = np.argsort(marginal, kind="stable")
    b = mu[order]
    chol = _cholesky_with_jitter(sigma[np.ix_(order, order)])
    first = normal.ndtr(b[0] / chol[0, 0])
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    engines = [qmc_sobol(len(mu) - 1, child) for child in ss.spawn(batches)]
    sums = np.zeros(batches)
    for k in range(min_log2_points, max_log2_points + 1):
        for j, engine in enumerate(engines):
            u = engine.random_base2(k) if k == min_log2_points else engine.random(2**(k - 1))
            sums[j] += _sov_batch(b, chol, first, u.T).sum()
        means = sums / 2**k
        estimate = float(means.mean())
        error = 3.0 * float(means.std(ddof=1)) / np.sqrt(batches)
        points = batches * 2**k
        if error <= tol:
            break
    return OrthantResult(float(np.clip(estimate, 0.0, 1.0)), error, "qmc", points)


def _assert_same_result(got, want):
    assert got.method == want.method
    assert got.points == want.points
    for field in ("probability", "error"):
        g, w = getattr(got, field), getattr(want, field)
        assert np.float64(g).tobytes() == np.float64(w).tobytes(), (field, g, w)


@pytest.mark.parametrize("m", range(3, 9))
def test_mvn_orthant_matches_scipy_engine_reference(m):
    rng = np.random.default_rng(100 + m)
    a = rng.normal(size=(m, m))
    cov = a @ a.T + 0.1 * np.eye(m)
    mu = 0.3 * rng.normal(size=m)
    for seed in (m, 2**40 + m):
        _assert_same_result(mvn_orthant(mu, cov, seed=seed),
                            reference_mvn_orthant(mu, cov, seed=seed))
        _assert_same_result(mvn_orthant(mu, cov, seed=np.random.SeedSequence(seed)),
                            reference_mvn_orthant(mu, cov, seed=np.random.SeedSequence(seed)))


def test_mvn_orthant_matches_reference_past_the_first_levels(monkeypatch):
    # A target no level meets: every level up to the cap is integrated.
    monkeypatch.setattr(mvnorm, "MAX_LOG2_POINTS", 13)
    cov = equicorrelated(3, 0.5)
    got = mvn_orthant(np.zeros(3), cov, tol=1e-9, seed=21)
    assert got.points == 10 * 2**13
    _assert_same_result(got, reference_mvn_orthant(np.zeros(3), cov, tol=1e-9, seed=21,
                                                   max_log2_points=13))


def test_blocks_of_points_do_not_change_the_result(monkeypatch):
    # Blocks smaller than one scrambling's points at a level (here 2**8 of
    # its first 2**9, and of the 2**9, 2**10, ... that each doubling adds)
    # give the same bits as stacked ones.
    cov = equicorrelated(4, 0.4)
    mu = np.array([0.1, -0.2, 0.05, 0.3])
    want = mvn_orthant(mu, cov, tol=1e-6, seed=8)
    monkeypatch.setattr(mvnorm, "_BLOCK_POINTS", 2**8)
    got = mvn_orthant(mu, cov, tol=1e-6, seed=8)
    assert got.points >= 10 * 2**11
    _assert_same_result(got, want)


@pytest.mark.parametrize("tol, log2_points", [(1e-1, 9), (1e-12, 17)])
def test_no_point_is_integrated_twice(tol, log2_points, monkeypatch):
    # One call that stops at the floor and one that climbs to the budget:
    # the integrand sees exactly the points the result counts.
    seen = []

    def counting(b, chol, first, u):
        seen.append(u.shape[1])
        return _sov_batch(b, chol, first, u)

    monkeypatch.setattr(mvnorm, "_sov_batch", counting)
    cov = equicorrelated(3, 0.3)
    res = mvn_orthant([0.2, -0.1, 0.4], cov, tol=tol, seed=5)
    assert res.points == mvnorm.BATCHES * 2**log2_points
    assert sum(seen) == res.points
    assert (res.error <= tol) == (log2_points == mvnorm.MIN_LOG2_POINTS)


def test_sobol_limits_fail_loudly():
    # 1001 dimensions: a zero-stride covariance keeps the test small.
    m = 1001
    with pytest.raises(ValueError, match="at most 1000 dimensions are supported, got 1001"):
        mvn_orthant(np.zeros(m), np.broadcast_to(1.0, (m, m)))


def _mp_bivariate_orthant(mean, cov):
    """P(Z > 0) for Z ~ N(mean, cov) in two dimensions, at 30 digits, from
    the exact double inputs: Plackett's integral over the correlation, the
    exact limits at a correlation of +-1, and the normal CDF of the one
    component that varies where the other has no variance."""
    with mpmath.workdps(30):
        mu = [mpmath.mpf(float(v)) for v in mean]
        a, b, c = (mpmath.mpf(float(v)) for v in (cov[0][0], cov[1][1], cov[0][1]))
        if a == 0 or b == 0:
            fixed, varies, var = (0, 1, b) if a == 0 else (1, 0, a)
            return (mu[fixed] > 0) * mpmath.ncdf(mu[varies] / mpmath.sqrt(var))
        h, k = -mu[0] / mpmath.sqrt(a), -mu[1] / mpmath.sqrt(b)
        r = max(min(c / mpmath.sqrt(a * b), 1), -1)
        if r == 1:
            return mpmath.ncdf(-max(h, k))
        if r == -1:
            return max(mpmath.ncdf(-h) - mpmath.ncdf(k), 0)

        def plackett(t):
            return mpmath.exp(-(h * h + k * k - 2 * h * k * mpmath.sin(t))
                              / (2 * mpmath.cos(t) ** 2))

        return (mpmath.ncdf(-h) * mpmath.ncdf(-k)
                + mpmath.quad(plackett, [0, mpmath.asin(r)]) / (2 * mpmath.pi))


def _bivariate_cases():
    """Random means and covariances, then the edges: correlations at and
    near +-1 (0.925 is where the closed form changes its integral), a zero
    variance, and means 40 or more standard deviations from zero."""
    rng = np.random.default_rng(2004)
    cases = []
    for _ in range(240):
        a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        cov = a @ a.T
        cases.append((rng.normal(0.0, 2.0, size=2) * np.sqrt(np.diag(cov)), cov))
    for rho in (0.925, 0.99, 0.99999, 1.0, -0.925, -0.99, -0.99999, -1.0):
        for z in ([0.0, 0.0], [0.3, -0.2], [1.5, 1.5], [-2.0, 1.0], [3.0, 2.9], [-1.0, -1.2]):
            sd = np.array([0.5, 3.0])
            cases.append((np.multiply(z, sd), np.outer(sd, sd) * [[1.0, rho], [rho, 1.0]]))
    for mean in ([1.0, 0.4], [-1.0, 0.4], [0.0, -0.7]):
        cases.append((mean, [[0.0, 0.0], [0.0, 2.0]]))
        cases.append((mean[::-1], [[2.0, 0.0], [0.0, 0.0]]))
    for z in ([40.0, 0.3], [-40.0, 0.3], [45.0, -45.0], [-41.0, -50.0], [0.5, 60.0]):
        for rho in (0.0, 0.5, -0.95, 0.99999):
            sd = np.array([2.0, 0.1])
            cases.append((np.multiply(z, sd), np.outer(sd, sd) * [[1.0, rho], [rho, 1.0]]))
    return cases


def test_bivariate_closed_form_is_within_its_error_of_mpmath():
    cases = _bivariate_cases()
    assert len(cases) >= 300
    for mean, cov in cases:
        res = mvn_orthant(mean, cov, seed=0)
        assert res.method == "closed_form_2d" and res.points == 0
        assert type(res.probability) is float
        want = _mp_bivariate_orthant(mean, cov)
        assert abs(mpmath.mpf(res.probability) - want) <= res.error, (mean, cov)


def test_the_written_nodes_are_the_twenty_point_gauss_legendre_rule():
    # Each node is the nearest double to a root of P_20, and each weight to
    # 2 / ((1 - x**2) P_20'(x)**2) there.
    with mpmath.workdps(40):
        for x, w in zip(mvnorm._GL_X, mvnorm._GL_W):
            root = mpmath.findroot(lambda t: mpmath.legendre(20, t), mpmath.mpf(float(x)))
            slope = mpmath.diff(lambda t: mpmath.legendre(20, t), root)
            assert float(root) == x
            assert float(2 / ((1 - root**2) * slope**2)) == w


def test_a_bivariate_covariance_beyond_the_jitter_is_refused():
    # A correlation just past 1 that the largest Cholesky jitter absorbs is
    # read as 1; one past it is indefinite, as it is in more dimensions.
    res = mvn_orthant([0.3, 0.3], [[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
    assert abs(res.probability - ndtr(0.3)) <= res.error
    for cov in ([[1.0, 1.0 + 1e-7], [1.0 + 1e-7, 1.0]], [[0.0, 1e-3], [1e-3, 1.0]]):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            mvn_orthant([0.0, 0.0], cov)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        mvn_orthant([0.0, 0.0, 0.0], [[1.0, 1.0 + 1e-7, 0.0], [1.0 + 1e-7, 1.0, 0.0],
                                      [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("m", [1, 2, 5, 100, 1000])
def test_sobol_directions_are_scipys(m):
    from scipy.stats import qmc
    assert np.array_equal(mvnorm._sobol_directions(m), qmc.Sobol(m, scramble=False)._sv)


def test_the_first_sobol_rows_are_read_alone():
    # The table is read with a count that stops after the rows asked for, so
    # the first call for a few dimensions copies only their rows, not all
    # 1,000, and loads no mmap module.
    code = ("import sys, tracemalloc\nfrom effect_engine import mvnorm\ntracemalloc.start()\n"
            "mvnorm._sobol_directions(5)\nprint(tracemalloc.get_traced_memory()[1])\n"
            "print('mmap' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, mmap_loaded = proc.stdout.split()
    assert int(peak) < 100_000
    assert mmap_loaded == "False"
