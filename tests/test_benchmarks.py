"""The benchmark scripts run against the library as they are.

The test run does not collect benchmarks/, so a library call that a
benchmark makes and the library no longer has would otherwise go unnoticed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from learnedcache.trace import WORKLOAD_KINDS

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def test_tracker_benchmarks_run_without_timing():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_tracker.py", "--benchmark-disable"],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


@pytest.fixture(scope="module")
def work_counts():
    proc = subprocess.run([sys.executable, "benchmarks/workcount.py"],
                          cwd=ROOT, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout)


def positive_counts(counts: dict) -> bool:
    return counts["events"] > 0 and all(
        counts[name] > 0 for name in ("opcodes_per_event", "py_calls_per_event", "c_calls_per_event"))


def test_work_counts_cover_both_policies_on_both_simulate_shapes(work_counts):
    for workload in ("sizebias-evict", "mongo-hits"):
        fifo, learned = work_counts[workload]["fifo"], work_counts[workload]["learned"]
        assert fifo["events"] == learned["events"] > 0
        fifo_calls, learned_calls = fifo["c_calls_by_name_per_event"], learned["c_calls_by_name_per_event"]
        # only the learned policy scores, so only it bins feature values
        assert "ndarray.searchsorted" in learned_calls
        assert "ndarray.searchsorted" not in fifo_calls
        # every simulated request is one page: neither policy ranks its
        # window, and FIFO reads its victim with no tolist
        assert "ndarray.argsort" not in learned_calls
        assert "ndarray.argsort" not in fifo_calls
        assert "ndarray.tolist" not in fifo_calls
        assert learned["opcodes_per_event"] > fifo["opcodes_per_event"] > 0


def test_work_counts_cover_generation_of_every_kind_and_the_label_run(work_counts):
    assert set(work_counts["generate"]) == set(WORKLOAD_KINDS)
    assert all(positive_counts(counts) for counts in work_counts["generate"].values())
    assert positive_counts(work_counts["label"])


def test_work_counts_cover_the_collector_in_train_and_generation(work_counts):
    # the pass counts depend on the interpreter's collector thresholds, so
    # only the section's shape is checked
    collector = work_counts["collector"]
    assert set(collector) == {"train", "generate"}
    assert set(collector["train"]) == {"kind", "traces", "ops", "capacity", "pairs", "passes"}
    assert set(collector["generate"]) == {"kind", "ops", "passes"}
    for section in collector.values():
        assert set(section["passes"]) == {"gen0", "gen1", "gen2"}
