"""Every script under ``demos/`` runs to the end.

Each demo runs in its own process, in a temporary working directory (demo 01
writes ``benchmark.edges`` and ``benchmark.truth`` into its working
directory), with the package's ``src`` on ``PYTHONPATH``.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([path] if path else [])))
    done = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
