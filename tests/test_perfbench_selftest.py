"""The benchmark's self-test passes: its workloads still reach every
function and option of the package they call, and its checks still accept
the package's results."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_perfbench_selftest_exits_zero():
    # writes only under the git-ignored perfbench/work/
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
