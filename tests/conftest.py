"""Shared test helpers.

The CLI tests start ``python -m effect_engine`` in a child process whose cwd
is a temporary directory. ``cli_env`` gives that child the same source tree
the test process imported, whether the package is on the path through
``PYTHONPATH`` or installed with ``pip install -e``.
"""

import os
from pathlib import Path

import effect_engine

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
