"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import weylgraph


@pytest.fixture
def child_env():
    """Environment for `python -m weylgraph` subprocesses: the package under
    test leads PYTHONPATH, so the child imports the same code as the tests."""
    src = str(Path(weylgraph.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get('PYTHONPATH')) if p)
    return {**os.environ, 'PYTHONPATH': path}
