"""The microbenchmark script runs against the library as it is.

The test run does not collect benchmarks/, so a library call that a
benchmark makes and the library no longer has would otherwise go unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracker_benchmarks_run_without_timing():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_tracker.py", "--benchmark-disable"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
