"""The benchmark's hooks into the package stay in place.

``perfbench/tracing.py`` wraps package functions by name, so a rename in the
package would break only traced benchmark runs; these tests catch it in the
test suite instead.
"""

import os
import subprocess
import sys

import pytest

from commselect import selector
from conftest import build_complete

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(PERFBENCH)


def test_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH,
                                                        "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_and_counted_names_exist(tracing):
    hooks = [(owner, name) for owner, name, _, _ in tracing.TRACED]
    hooks += [(owner, name) for owner, name, _ in tracing.COUNTED]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name in hooks if not hasattr(owner, name)]
    assert not missing


def test_extract_features_calls_traced_mean_clustering(monkeypatch):
    # the benchmark times ``metrics.mean_clustering`` by wrapping the name
    # ``selector.mean_clustering``; if extract_features stopped calling it
    # there, that per-layer time would read 0
    calls = []
    inner = selector.mean_clustering

    def counting(g):
        calls.append(g)
        return inner(g)

    monkeypatch.setattr(selector, "mean_clustering", counting)
    g = build_complete(4)
    assert selector.extract_features(g) == inner(g)
    assert calls == [g]
