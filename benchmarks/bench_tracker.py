"""Microbenchmarks of the per-access tracker, the window scorer, whole simulations and trace IO.

    PYTHONPATH=src python -m pytest benchmarks/bench_tracker.py --benchmark-only

pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so each side
of a comparison runs from its own tree: run the command in each checkout,
not once with PYTHONPATH pointing at the other. Every case's extra_info
records the learnedcache package file it imported (learnedcache_file).

Covers AccessTracker.on_access on a hit and on new keys, AccessTracker.window
at window 5 (the tracker's feature derivation without score_window's rank
lookup), PreparedScorer.score_window at windows 5 (what simulations score:
one page per eviction request, oversample 5) and 160 (what the latency gate
times), on the committed perfbench models, and whole learned simulations
in the shapes of both perfbench simulate workloads, each with its committed
model: sizebias-evict (synthetic_sizebias, 1000 ops, capacity 96; mostly
evictions, so scoring dominates) and mongo-hits (mongo, 8000 ops, capacity
1024; mostly hits, so the tracker and the hit path dominate). Their
extra_info holds the median in µs per event. An eviction request timed
inside a simulation costs about twice an isolated score_window call, so the
isolated cases alone understate the learned policy's cost. Whole FIFO
simulations of both shapes, which update no features (only the learned
policy tracks them), and generate_workload on mongo-hits' spec also report
µs per event; so does generate_workload on sizebias-evict's spec
(synthetic_sizebias, 1000 ops), whose generator appends to the shared
_Emitter's event list and keys on its own fixed clock, and on the
other five kinds at benchmarks/workcount.py's GENERATE_OPS shapes: webserver
and webproxy (1000 ops), varmail (2000), copyfiles (300) and openfiles
(5000), whose ops mix runs of many pages with single-page touches.
write_trace and read_trace time the binary trace codec, each record checked
by the trace rule, on a mongo trace; their extra_info also holds µs per
event. The read case runs twice, for read_trace, which builds the event
list, and for iter_trace, which streams the same events and is consumed one
event at a time as simulate consumes it; each also records its tracemalloc
peak. The two largest
stages of a train run, the FIFO label run (run_simulation with an
event_sink) and build_dataset, are timed on one trace of train-sizebias'
shape (synthetic_sizebias, 250 ops, capacity 96), in µs per trace event.
The training stages are timed at train-sizebias' shape too (rows from four
such traces, validation rows from a fifth, bins fitted on the training
rows, 5000 pairs each): sample_pairs on the training rows, auc_score on
5000 validation scores, ranker.evaluate on the validation pairs (the
validation pass that each epoch also runs) and a one-epoch ranker.train
(set-up, one epoch and its validation pass).
The file name does not match test_*.py, so the test run does not collect it.

Raw wall times on a shared host move by tens of percent between runs of
one tree, so every case is also reported scaled as perfbench scales its
end-to-end times: perfbench's reference loop is timed just before and just
after the case, and extra_info holds the median times REF_NOMINAL_S over
the mean of those two reference times (scaled_median_s, and
scaled_us_per_event where the case counts events). A case that counts
events also records its unscaled median and fastest round per event
(us_per_event_median and us_per_event_min). The fastest round moves least
between runs on a noisy host: generate_workload's rounds differ by how much
garbage collection falls in them, so it runs 30 rounds, as the label run
and build_dataset do.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

import pytest

import numpy as np

import learnedcache
from learnedcache import ranker
from learnedcache.discretizer import fit_all
from learnedcache.features import AccessTracker, build_dataset
from learnedcache.modelpack import PreparedScorer, load_json
from learnedcache.ranker import TrainConfig, auc_score, sample_pairs
from learnedcache.simcache import CacheState, FifoPolicy, LearnedPolicy, access, run_simulation
from learnedcache.trace import (
    EventKind,
    PageKey,
    default_spec,
    generate_workload,
    iter_trace,
    read_trace,
    write_trace,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODELS = PERFBENCH / "models"
sys.path.insert(0, str(PERFBENCH))
from run import REF_NOMINAL_S, TRAIN_TRACES, WORKLOADS, reference_work  # noqa: E402
# keys of the new-key round: 200 pages over 50 files, 250 columns, within the
# tracker's initial table width (320), so no round pays for growing the table
NEW_KEYS = [PageKey(1, 100 + i // 4, i % 4) for i in range(200)]
SIMULATE = [name for name, wl in WORKLOADS.items() if wl.model]  # the simulate workloads
TRAIN = WORKLOADS["train-sizebias"]


def reference_s() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


@pytest.fixture(autouse=True)
def reference_scaled(benchmark):
    """Time the reference loop around the case and add its scaled median."""
    benchmark.extra_info["learnedcache_file"] = learnedcache.__file__
    if benchmark.disabled:  # --benchmark-disable: no median to scale
        yield
        return
    before = reference_s()
    yield
    after = reference_s()
    if benchmark.stats is None:  # the case failed before it timed anything
        return
    info = benchmark.extra_info
    info["reference_s"] = [before, after]
    info["scaled_median_s"] = benchmark.stats.stats.median * REF_NOMINAL_S * 2 / (before + after)
    if "events" in info:
        info["scaled_us_per_event"] = info["scaled_median_s"] / info["events"] * 1e6


@pytest.fixture(scope="module")
def mongo_events():
    spec = default_spec("mongo", seed=7, n_ops=2000)
    return [ev for ev in generate_workload(spec) if ev.kind == EventKind.ACCESS]


@pytest.fixture(scope="module")
def mongo_tracker(mongo_events):
    tr = AccessTracker()
    for ev in mongo_events:
        tr.on_access(ev.key, ev.t_ns)
    return tr


def test_on_access_hit(benchmark, mongo_events, mongo_tracker):
    key = mongo_events[-1].key
    benchmark(mongo_tracker.on_access, key, mongo_tracker.last_t)


def test_on_access_new_keys(benchmark):
    def replay(tr):
        for t, key in enumerate(NEW_KEYS):
            tr.on_access(key, t)

    benchmark.extra_info["keys_per_round"] = len(NEW_KEYS)
    benchmark.pedantic(replay, setup=lambda: ((AccessTracker(),), {}), rounds=300)


def test_window(benchmark, mongo_events, mongo_tracker):
    # the pages of five mid-trace accesses; offset_distance is not derived,
    # as no committed model bins it
    mid = len(mongo_events) // 2
    slots = np.array([mongo_tracker.page_slot[ev.key] for ev in mongo_events[mid:mid + 5]])
    benchmark(mongo_tracker.window, slots, mongo_tracker.last_t, False)


@pytest.mark.parametrize("window", [5, 160])
@pytest.mark.parametrize("model", SIMULATE)
def test_score_window(benchmark, model, window):
    pack = load_json(str(MODELS / f"{model}.json"))
    # capacity 256 so that a window of 160 oldest resident pages exists
    cache = CacheState(256)
    policy = LearnedPolicy(pack)
    for ev in generate_workload(default_spec(WORKLOADS[model].kind, seed=7, n_ops=400)):
        if ev.kind == EventKind.ACCESS:
            access(cache, ev.key, ev.t_ns, policy)
    assert len(cache) >= window
    slots = cache.order[cache.tail:cache.tail + window]
    benchmark(PreparedScorer(pack).score_window, cache.tracker, slots, cache.tracker.last_t)


def workload_accesses(model: str) -> list:
    """The Access events of a seed-7 trace of a perfbench simulate workload's shape."""
    wl = WORKLOADS[model]
    return [ev for ev in generate_workload(default_spec(wl.kind, seed=7, n_ops=wl.ops))
            if ev.kind == EventKind.ACCESS]


@pytest.mark.parametrize("model", SIMULATE)
def test_learned_simulation(benchmark, model):
    events = workload_accesses(model)
    policy = LearnedPolicy(load_json(str(MODELS / f"{model}.json")))
    capacity = WORKLOADS[model].capacity
    benchmark.pedantic(run_simulation, args=(events, policy, capacity), rounds=5)
    per_event(benchmark, len(events))


@pytest.mark.parametrize("model", SIMULATE)
def test_fifo_simulation(benchmark, model):
    events = workload_accesses(model)
    capacity = WORKLOADS[model].capacity
    benchmark.pedantic(run_simulation, args=(events, FifoPolicy(), capacity), rounds=5)
    per_event(benchmark, len(events))


@pytest.mark.parametrize("kind,ops", [(WORKLOADS[m].kind, WORKLOADS[m].ops)
                                      for m in ("mongo-hits", "sizebias-evict")]
                         + [("webserver", 1000), ("webproxy", 1000), ("varmail", 2000),
                            ("copyfiles", 300), ("openfiles", 5000)])
def test_generate_workload(benchmark, kind, ops):
    spec = default_spec(kind, seed=7, n_ops=ops)
    events = benchmark.pedantic(generate_workload, args=(spec,), rounds=30)
    per_event(benchmark, len(events))


def label_run(seed: int) -> tuple[list, list]:
    """A train-sizebias trace of this seed and its FIFO label run's Evict events."""
    events = generate_workload(default_spec(TRAIN.kind, seed=seed, n_ops=TRAIN.train_ops))
    sink: list = []
    run_simulation(events, FifoPolicy(), TRAIN.capacity, event_sink=sink)
    return events, sink


@pytest.fixture(scope="module")
def label_trace():
    return label_run(7)


def test_label_run(benchmark, label_trace):
    events, _ = label_trace
    benchmark.pedantic(
        run_simulation,
        setup=lambda: ((events, FifoPolicy(), TRAIN.capacity), {"event_sink": []}),
        rounds=30,
    )
    per_event(benchmark, len(events))


def test_build_dataset(benchmark, label_trace):
    events, sink = label_trace
    rows = benchmark.pedantic(build_dataset, args=(events, sink), rounds=30)
    benchmark.extra_info["rows"] = len(rows)
    per_event(benchmark, len(events))


@pytest.fixture(scope="module")
def train_shape():
    """Training rows from four train-sizebias traces, validation rows from a
    fifth, the bins fitted on the training rows, and both pair sets."""
    train_rows = [row for seed in range(1, TRAIN_TRACES + 1) for row in build_dataset(*label_run(seed))]
    val_rows = build_dataset(*label_run(TRAIN_TRACES + 1))
    bins = fit_all(list(zip(*(row.features for row in train_rows))))
    pairs = sample_pairs(train_rows, bins, TRAIN.pairs, 1)
    val_pairs = sample_pairs(val_rows, bins, TRAIN.pairs, 2)
    return train_rows, bins, pairs, val_pairs


def test_sample_pairs(benchmark, train_shape):
    train_rows, bins, _, _ = train_shape
    benchmark.extra_info["rows"] = len(train_rows)
    benchmark.pedantic(sample_pairs, args=(train_rows, bins, TRAIN.pairs, 1), rounds=30)


def test_auc_score(benchmark, train_shape):
    _, _, _, val_pairs = train_shape
    scores = np.random.default_rng(0).normal(size=len(val_pairs))
    benchmark(auc_score, scores, val_pairs.y)


def test_evaluate(benchmark, train_shape):
    _, bins, _, val_pairs = train_shape
    weights = np.random.default_rng(0).normal(size=sum(b.n_bins for b in bins))
    benchmark(ranker.evaluate, ranker.LinearRanker(bins, weights), val_pairs)


def test_train_epoch(benchmark, train_shape):
    _, bins, pairs, val_pairs = train_shape
    config = TrainConfig(max_epochs=1)
    benchmark.pedantic(ranker.train, args=(pairs, val_pairs, bins, config), rounds=20)


def test_write_trace(benchmark, tmp_path, mongo_events):
    benchmark(write_trace, mongo_events, str(tmp_path / "t.bin"))
    per_event(benchmark, len(mongo_events))


def stream(path: str) -> None:
    deque(iter_trace(path), maxlen=0)


@pytest.mark.parametrize("read", [read_trace, stream], ids=["read_trace", "iter_trace"])
def test_read_trace(benchmark, tmp_path, mongo_events, read):
    path = str(tmp_path / "t.bin")
    write_trace(mongo_events, path)
    benchmark(read, path)
    per_event(benchmark, len(mongo_events))
    tracemalloc.start()
    read(path)
    benchmark.extra_info["tracemalloc_peak_kib"] = tracemalloc.get_traced_memory()[1] // 1024
    tracemalloc.stop()


def per_event(benchmark, events: int) -> None:
    benchmark.extra_info["events"] = events
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_event_median"] = benchmark.stats.stats.median / events * 1e6
        benchmark.extra_info["us_per_event_min"] = benchmark.stats.stats.min / events * 1e6
