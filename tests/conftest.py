"""Shared test helpers.

The CLI tests start ``python -m effect_engine`` in a child process whose cwd
is a temporary directory. ``cli_env`` gives that child the same source tree
the test process imported, whether the package is on the path through
``PYTHONPATH`` or installed with ``pip install -e``.
"""

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from numpy.linalg import lapack_lite

import effect_engine
from effect_engine.cli import execute
from effect_engine.config import load_config
from effect_engine.report import render_report

# The directory that holds the effect_engine package imported by this process.
PACKAGE_ROOT = Path(effect_engine.__file__).resolve().parents[1]


def cli_env():
    """This process's environment for a child ``python -m effect_engine``.

    ``PACKAGE_ROOT`` goes first on ``PYTHONPATH``. The inherited entries follow
    in their order, each made absolute against this process's cwd (an empty
    entry stands for the cwd), so they keep their meaning in a child started
    elsewhere.
    """
    env = dict(os.environ)
    inherited = env["PYTHONPATH"].split(os.pathsep) if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_ROOT), *(os.path.abspath(entry) for entry in inherited)]
    )
    return env


def blas_kernel():
    """What a report's bytes depend on besides its inputs and the numpy
    build: the name of the core numpy's OpenBLAS picked (None for a numpy on
    another BLAS), found through the library ``cli._openblas_threads``
    opens, and whether numpy dispatches its AVX-512 loops."""
    avx512 = bool(__cpu_features__.get("AVX512_SKX"))
    try:
        corename = ctypes.CDLL(lapack_lite.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        return None, avx512
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode(), avx512


def report_digest(workloads, name, directory):
    """sha256 of benchmark workload ``name``'s rendered report at seed 0 and
    3,000 rows, without its created_at field, its inputs written into
    ``directory``; ``workloads`` is the benchmark's generator
    (perfbench/workloads.py)."""
    inputs = workloads.generate(name, seed=0, rows=3000)
    cfg = load_config(workloads.write_inputs(inputs, str(directory))["config"])
    report = execute(cfg, flat_prior_ok=inputs.flat_prior_ok)
    del report["created_at"]
    return hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()


def columns_in_earlier_span(X, rtol=1e-8):
    """Indices j >= 1 of the columns of ``X`` whose least-squares residual
    on columns 0 to j - 1 is below ``rtol`` times the column's norm: the
    columns a rank-deficient fit must name."""
    X = np.asarray(X, dtype=np.float64)
    found = []
    for j in range(1, X.shape[1]):
        coef = np.linalg.lstsq(X[:, :j], X[:, j], rcond=None)[0]
        if np.linalg.norm(X[:, j] - X[:, :j] @ coef) < rtol * np.linalg.norm(X[:, j]):
            found.append(j)
    return found


# Thirty rows over arms a, b and c whose column z is exactly twice x, and
# what a least-squares fit of them says: z and its interactions lie in the
# span of the columns before them.
RANK_DEFICIENT_CSV = "y,arm,x,z\n" + "".join(
    f"{(i * 7) % 5 + 0.5 * i},{'abc'[i % 3]},{i * 0.5},{i * 1.0}\n" for i in range(30))
DEPENDENT_Z = "design matrix is rank deficient; dependent columns: z, z:arm=b, z:arm=c"


def labels(column):
    """Each row's label of a ``LabelColumn``, ``levels[codes]``, as an
    object array: what a test reads where a dataset keeps only codes."""
    return np.asarray(column.levels, dtype=object)[column.codes]
