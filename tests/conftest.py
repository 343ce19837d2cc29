"""Shared fixtures for the test suite."""

import os
import shutil
from pathlib import Path

import pytest

import mmrank
from mmrank.flipgraph import HAVE_COMPILED


@pytest.fixture
def cli_env():
    """Environment for a ``python -m mmrank`` child process.

    The directory that holds the ``mmrank`` this process imported goes first
    on ``PYTHONPATH``, so the child imports the same package whatever its
    working directory (a relative ``PYTHONPATH=src`` would resolve against
    the child's ``cwd``). Every other variable and path entry is kept.
    """
    root = str(Path(mmrank.__file__).resolve().parent.parent)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


@pytest.fixture
def native():
    """Require the native kernel wherever it can be built.

    Skips only under ``MMRANK_NO_EXT`` or with no ``cc`` on ``PATH``; with
    a compiler present, a kernel that failed to load fails the test.
    """
    if HAVE_COMPILED:
        return
    if os.environ.get("MMRANK_NO_EXT"):
        pytest.skip("MMRANK_NO_EXT forces the pure path")
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH to build the native kernel")
    pytest.fail("cc is on PATH but the native kernel did not load")
