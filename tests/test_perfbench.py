"""The benchmark's own self-test, so that a change to the library's
signatures that the benchmark calls fails here and not only when the
benchmark runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
