"""Self-test of the benchmark runner at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload in-process with tiny traces and checks that each run is
correct, emits exactly the metrics BENCHMARK.json names with their units, and
repeats its deterministic metrics exactly, also with LEARNEDCACHE_SEED set.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from learnedcache.evalstats import run_paired_trials  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
W = run.WORKLOADS
TINY = {
    "sizebias-evict": dataclasses.replace(W["sizebias-evict"], ops=60, quality_trials=2),
    "mongo-hits": dataclasses.replace(W["mongo-hits"], ops=300, capacity=256, quality_trials=2),
    "train-sizebias": dataclasses.replace(W["train-sizebias"], ops=60, capacity=32, train_ops=60,
                                          pairs=2000, quality_trials=2),
}
DETERMINISTIC = ("insertion_pct_vs_fifo", "val_auc")


def bench(capsys, name: str, trace: int) -> dict:
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
                  workloads=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_runner_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(W)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_are_emitted_and_repeat(name, capsys, monkeypatch):
    first = bench(capsys, name, 0)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == run.E2E_UNITS
    assert all(v["value"] for v in first.values()), first
    monkeypatch.setenv("LEARNEDCACHE_SEED", "12345")
    second = bench(capsys, name, 0)["metrics"]
    for k in DETERMINISTIC:
        assert second[k]["value"] == first[k]["value"], k


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_per_layer_metrics(name, capsys):
    metrics = bench(capsys, name, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.LAYER_UNITS
    assert all(isinstance(v["value"], float) for v in metrics.values()), metrics
    # the tracer restores the library it patched
    assert run.run_simulation.__module__ == "learnedcache.simcache"
    assert not hasattr(run.run_simulation, "__wrapped__")


def test_evaluation_set_reproduces_paired_eval():
    wl = TINY["sizebias-evict"]
    pack = run.load_json(str(run.HERE / wl.model))
    q = run.evaluation_set(wl, pack, run.Run(wl, 0, 0, None))
    base = run.default_spec(wl.kind, seed=0, n_ops=wl.ops)
    trials = run_paired_trials(base, pack, wl.capacity, wl.quality_trials, run.QUALITY_SEED)
    test = run.paired_t_test(trials.differences(), trials.baseline_mean())
    assert q["insertion_pct_vs_fifo"] == test.pct_vs_baseline


def test_trial_check_rejects_a_wrong_counter():
    wl = TINY["sizebias-evict"]
    pack = run.load_json(str(run.HERE / wl.model))
    policies = {"fifo": run.FifoPolicy(), "learned": run.LearnedPolicy(pack)}
    trial = run.paired_trial(wl, policies, 1, 2, [])
    run.check_trial(wl, trial)
    for name in ("fifo", "learned"):
        good = trial.reports[name]
        trial.reports[name] = dataclasses.replace(good, evictions=good.evictions - 1)
        with pytest.raises(run.CheckFailed):
            run.check_trial(wl, trial)
        trial.reports[name] = good
