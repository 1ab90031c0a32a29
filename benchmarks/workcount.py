"""Count the interpreter work per event of whole simulations and of trace
generation: exact where timings are noisy.

    PYTHONPATH=src python benchmarks/workcount.py > counts.json

For FIFO and the learned policy, runs run_simulation on traces in the
shapes of both perfbench simulate workloads, each learned run with its
committed model: sizebias-evict (synthetic_sizebias, capacity 96, 200 ops:
3100 events, 80% of them eviction requests) and mongo-hits (mongo,
capacity 1024, 2000 ops: 13060 events, mostly hits). A 200-op mongo trace
touches only 420 pages, so it would never fill the cache and would count no
eviction request. Three more sections count other stages:

- generate: generate_workload for every workload kind, at GENERATE_OPS ops
  (mongo and synthetic_sizebias at the simulate shapes above, the other
  kinds at 5,000 to 14,000 events);
- label: the FIFO label run of train (run_simulation with an event_sink) on
  a trace of train-sizebias' shape (synthetic_sizebias, 250 ops, capacity
  96);
- collector: the cyclic garbage collector's passes per generation, seen by
  a gc.callbacks hook after a gc.collect() (as perfbench's ops start), in
  one in-process `learnedcache train` run at train-sizebias' shape (4 + 1
  traces of 250 ops, capacity 96, --pairs 5000) and in one mongo
  generate_workload at 2000 ops. Each is run once, with no tracing.

The other sections make each counted call twice, and count only that call:

- under sys.settrace with f_trace_opcodes set on every frame: Python
  opcodes and Python calls ("call" events, which also count each resumed
  generator);
- under sys.setprofile: C calls, in total and by name ("c_call" events,
  named by the callee's __qualname__, such as ndarray.take).

It prints one JSON object with each count divided by the run's trace
events. The counts do not depend on the host's speed or load, and two runs
of one tree give the same numbers, but they do depend on the Python build,
so compare them only within one interpreter. setprofile does not see every
C call: numpy's ufuncs called directly (np.subtract, np.maximum; their
.reduce method is seen) and np.concatenate raise no c_call event, so the
elementwise numpy work is undercounted. The file name does not match
test_*.py, so the test run does not collect it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from learnedcache import cli
from learnedcache.modelpack import load_json
from learnedcache.simcache import FifoPolicy, LearnedPolicy, run_simulation
from learnedcache.trace import default_spec, generate_workload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODELS = PERFBENCH / "models"
sys.path.insert(0, str(PERFBENCH))
from run import TRAIN_TRACES, WORKLOADS, train_argv, write_train_traces  # noqa: E402

SEED = 1
# trace ops per perfbench simulate workload, whose kind and capacity these
# runs take from WORKLOADS (the docstring says why mongo-hits needs 2000)
SIMULATE_OPS = {"sizebias-evict": 200, "mongo-hits": 2000}
# generate_workload ops per workload kind: webserver and varmail at the
# ROADMAP's paired-trial shapes, openfiles at one op per file (setting up
# its 5000 file sizes is a large share of a shorter trace)
GENERATE_OPS = {"webserver": 1000, "webproxy": 1000, "varmail": 2000, "copyfiles": 300,
                "openfiles": 5000, "mongo": 2000, "synthetic_sizebias": 200}
LABEL = WORKLOADS["train-sizebias"]


def traced_counts(run) -> dict[str, int]:
    """Python opcodes and calls made while run() runs."""
    counts = {"opcodes": 0, "py_calls": 0}

    def local(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        return local

    def call(frame, event, arg):
        counts["py_calls"] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def c_calls(run) -> Counter:
    """C calls made while run() runs, by the callee's qualified name."""
    names: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call":
            names[getattr(arg, "__qualname__", repr(arg))] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    # the profiler sees its own removal
    names["setprofile"] -= 1
    return +names


def count(run, events: int) -> dict:
    """The work of run() per trace event, for a run over that many events."""
    traced = traced_counts(run)
    calls = c_calls(run)
    return {
        "events": events,
        "opcodes_per_event": round(traced["opcodes"] / events, 2),
        "py_calls_per_event": round(traced["py_calls"] / events, 2),
        "c_calls_per_event": round(sum(calls.values()) / events, 2),
        "c_calls_by_name_per_event": {
            name: round(c / events, 3) for name, c in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0]))
        },
    }


def collector_passes(run) -> dict[str, int]:
    """The cyclic collector's passes per generation while run() runs."""
    passes: Counter = Counter()

    def callback(phase, info):
        if phase == "start":
            passes[f"gen{info['generation']}"] += 1

    gc.collect()
    gc.callbacks.append(callback)
    try:
        run()
    finally:
        gc.callbacks.remove(callback)
    return {f"gen{g}": passes[f"gen{g}"] for g in range(3)}


def train_passes(work: Path) -> dict[str, int]:
    """collector_passes of one train run on traces of train-sizebias' shape."""
    paths = write_train_traces(LABEL, SEED, work)
    argv = train_argv(LABEL, paths, SEED, work / "model.json")

    def train() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc:
            raise SystemExit(f"train exited {rc}")

    return collector_passes(train)


def count_simulation(events: list, policy, capacity: int) -> dict:
    return count(lambda: run_simulation(events, policy, capacity), len(events))


def main() -> None:
    out: dict = {"python": sys.version.split()[0], "seed": SEED}
    for workload, ops in SIMULATE_OPS.items():
        wl = WORKLOADS[workload]
        events = generate_workload(default_spec(wl.kind, seed=SEED, n_ops=ops))
        pack = load_json(str(MODELS / f"{workload}.json"))
        out[workload] = {
            "ops": ops,
            "fifo": count_simulation(events, FifoPolicy(), wl.capacity),
            "learned": count_simulation(events, LearnedPolicy(pack), wl.capacity),
        }
    out["generate"] = {}
    for kind, ops in GENERATE_OPS.items():
        spec = default_spec(kind, seed=SEED, n_ops=ops)
        out["generate"][kind] = {"ops": ops, **count(lambda: generate_workload(spec),
                                                     len(generate_workload(spec)))}
    kind, capacity, ops = LABEL.kind, LABEL.capacity, LABEL.train_ops
    events = generate_workload(default_spec(kind, seed=SEED, n_ops=ops))
    # a fresh sink per run: count makes the run twice
    out["label"] = {"kind": kind, "ops": ops, "capacity": capacity,
                    **count(lambda: run_simulation(events, FifoPolicy(), capacity, event_sink=[]),
                            len(events))}
    with tempfile.TemporaryDirectory() as work:
        train = train_passes(Path(work))
    mongo = default_spec("mongo", seed=SEED, n_ops=GENERATE_OPS["mongo"])
    out["collector"] = {
        "train": {"kind": kind, "traces": TRAIN_TRACES + 1, "ops": ops, "capacity": capacity,
                  "pairs": LABEL.pairs, "passes": train},
        "generate": {"kind": "mongo", "ops": mongo.n_ops,
                     "passes": collector_passes(lambda: generate_workload(mongo))},
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
