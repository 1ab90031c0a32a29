"""Microbenchmarks of the per-access tracker, the window scorer, whole simulations and trace IO.

    PYTHONPATH=src python -m pytest benchmarks/bench_tracker.py --benchmark-only

Covers AccessTracker.on_access on a hit and on new keys, extract_features,
PreparedScorer.score_window at windows 5 (what simulations score: one
page per eviction request, oversample 5) and 160 (what the latency gate
times), on the committed perfbench models, and whole learned simulations
in the shapes of both perfbench simulate workloads, each with its committed
model: sizebias-evict (synthetic_sizebias, 1000 ops, capacity 96; mostly
evictions, so scoring dominates) and mongo-hits (mongo, 8000 ops, capacity
1024; mostly hits, so the tracker and the hit path dominate). Their
extra_info holds the median in µs per event. An eviction request timed
inside a simulation costs about twice an isolated score_window call, so the
isolated cases alone understate the learned policy's cost. A whole FIFO
simulation of mongo-hits' shape, which updates no features (only the learned
policy tracks them), and generate_workload on the same spec also report µs
per event; so does generate_workload on sizebias-evict's spec
(synthetic_sizebias, 1000 ops), whose generator builds its events without
the _Emitter the other kinds share. write_trace and read_trace time
the binary trace codec, each record checked by the trace rule, on a
mongo trace; their extra_info also holds µs per event. The two largest
stages of a train run, the FIFO label run (run_simulation with an
event_sink) and build_dataset, are timed on one trace of train-sizebias'
shape (synthetic_sizebias, 250 ops, capacity 96), in µs per trace event.
The file name does not match test_*.py, so the test run does not collect it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from learnedcache.features import AccessTracker, build_dataset
from learnedcache.modelpack import PreparedScorer, load_json
from learnedcache.simcache import CacheState, FifoPolicy, LearnedPolicy, access, run_simulation
from learnedcache.trace import EventKind, PageKey, default_spec, generate_workload, read_trace, write_trace

MODELS = Path(__file__).resolve().parent.parent / "perfbench" / "models"
# keys of the new-key round: 200 pages over 50 files, 250 columns, within the
# tracker's initial table width (320), so no round pays for growing the table
NEW_KEYS = [PageKey(1, 100 + i // 4, i % 4) for i in range(200)]
# the capacity of train-sizebias' label runs
LABEL_CAPACITY = 96


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


def test_extract_features(benchmark, mongo_events, mongo_tracker):
    key = mongo_events[len(mongo_events) // 2].key
    benchmark(mongo_tracker.extract_features, key, mongo_tracker.last_t)


@pytest.mark.parametrize("window", [5, 160])
@pytest.mark.parametrize("model", ["sizebias-evict", "mongo-hits"])
def test_score_window(benchmark, model, window):
    pack = load_json(str(MODELS / f"{model}.json"))
    kind = "synthetic_sizebias" if model == "sizebias-evict" else "mongo"
    # capacity 256 so that a window of 160 oldest resident pages exists
    cache = CacheState(256)
    policy = LearnedPolicy(pack)
    for ev in generate_workload(default_spec(kind, seed=7, n_ops=400)):
        if ev.kind == EventKind.ACCESS:
            access(cache, ev.key, ev.t_ns, policy)
    assert len(cache) >= window
    slots = cache.order[cache.tail:cache.tail + window]
    benchmark(PreparedScorer(pack).score_window, cache.tracker, slots, cache.tracker.last_t)


@pytest.mark.parametrize("model,kind,ops,capacity", [
    ("sizebias-evict", "synthetic_sizebias", 1000, 96),
    ("mongo-hits", "mongo", 8000, 1024),
], ids=["sizebias-evict", "mongo-hits"])
def test_learned_simulation(benchmark, model, kind, ops, capacity):
    spec = default_spec(kind, seed=7, n_ops=ops)
    events = [ev for ev in generate_workload(spec) if ev.kind == EventKind.ACCESS]
    policy = LearnedPolicy(load_json(str(MODELS / f"{model}.json")))
    benchmark.pedantic(run_simulation, args=(events, policy, capacity), rounds=5)
    per_event(benchmark, len(events))


def test_fifo_simulation(benchmark):
    spec = default_spec("mongo", seed=7, n_ops=8000)
    events = [ev for ev in generate_workload(spec) if ev.kind == EventKind.ACCESS]
    benchmark.pedantic(run_simulation, args=(events, FifoPolicy(), 1024), rounds=5)
    per_event(benchmark, len(events))


@pytest.mark.parametrize("kind,ops", [("mongo", 8000), ("synthetic_sizebias", 1000)])
def test_generate_workload(benchmark, kind, ops):
    spec = default_spec(kind, seed=7, n_ops=ops)
    events = benchmark.pedantic(generate_workload, args=(spec,), rounds=5)
    per_event(benchmark, len(events))


@pytest.fixture(scope="module")
def label_trace():
    """One train-sizebias trace and its FIFO label run's Evict events."""
    events = generate_workload(default_spec("synthetic_sizebias", seed=7, n_ops=250))
    sink: list = []
    run_simulation(events, FifoPolicy(), LABEL_CAPACITY, event_sink=sink)
    return events, sink


def test_label_run(benchmark, label_trace):
    events, _ = label_trace
    benchmark.pedantic(
        run_simulation,
        setup=lambda: ((events, FifoPolicy(), LABEL_CAPACITY), {"event_sink": []}),
        rounds=30,
    )
    per_event(benchmark, len(events))


def test_build_dataset(benchmark, label_trace):
    events, sink = label_trace
    rows = benchmark.pedantic(build_dataset, args=(events, sink), rounds=30)
    benchmark.extra_info["rows"] = len(rows)
    per_event(benchmark, len(events))


def test_write_trace(benchmark, tmp_path, mongo_events):
    benchmark(write_trace, mongo_events, str(tmp_path / "t.bin"))
    per_event(benchmark, len(mongo_events))


def test_read_trace(benchmark, tmp_path, mongo_events):
    path = str(tmp_path / "t.bin")
    write_trace(mongo_events, path)
    benchmark(read_trace, path)
    per_event(benchmark, len(mongo_events))


def per_event(benchmark, events: int) -> None:
    benchmark.extra_info["events"] = events
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_event_median"] = benchmark.stats.stats.median / events * 1e6
