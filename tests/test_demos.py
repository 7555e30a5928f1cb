"""Every demo script runs to completion from a clean working directory.

A demo exits nonzero when a check it prints fails, so the exit code covers
the checks too.
"""

import glob
import os
import subprocess
import sys

import pytest

from conftest import REPO, src_env

DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


def test_all_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                       cwd=tmp_path, env=src_env(), timeout=120)
    assert r.returncode == 0, r.stderr
