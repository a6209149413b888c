"""Shared test helpers."""

import os
import subprocess
import sys

import pytest


def _run_optimized(lines):
    """Standard output of `lines` run by `python -O`, which strips assert
    statements (it prints __debug__ first)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = "\n".join(["print(__debug__)"] + lines)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.fixture
def run_optimized():
    """The `python -O` runner: checks that must not rely on assert use it."""
    return _run_optimized
