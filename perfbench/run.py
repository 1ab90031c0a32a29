"""learnedcache benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop with one client, in this process, through
the public learnedcache API of the checkout's ``src/``. Every op is checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same loop, alternating untraced
ops with ops whose library calls are recorded as spans (see spans.py), and
reports the per-layer metrics and the tracing overhead instead.

The seed comes only from ``--seed``: LEARNEDCACHE_SEED is never consulted,
because every CLI call gets an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "learnedcache" / "__init__.py").is_file():
    sys.exit(f"perfbench: no learnedcache sources under {SRC}")
sys.path.insert(0, str(SRC))

import learnedcache  # noqa: E402
from learnedcache import cli  # noqa: E402
from learnedcache.discretizer import FeatureBins  # noqa: E402
from learnedcache.evalstats import derive_seed, paired_t_test  # noqa: E402
from learnedcache.features import build_dataset  # noqa: E402
from learnedcache.modelpack import PreparedScorer, export_json, load_json  # noqa: E402
from learnedcache.ranker import LinearRanker, default_pair_budget, evaluate, sample_pairs  # noqa: E402
from learnedcache.simcache import BATCH_MAX, FifoPolicy, LearnedPolicy, run_simulation  # noqa: E402
from learnedcache.trace import default_spec, generate_workload, write_trace  # noqa: E402

from spans import LAYERS, SpanTable, Tracer  # noqa: E402

# Master seed of the fixed evaluation set. insertion_pct_vs_fifo and val_auc
# are measured on it, so they do not depend on --seed and can be compared
# across runs and commits; the timed ops use inputs derived from --seed.
QUALITY_SEED = 20_261_017
# Master seed of the traces the train workload's evaluated model is trained on
QUALITY_TRAIN_SEED = QUALITY_SEED + 1
QUALITY_PAIRS = 20_000
# Reported times are scaled to a reference speed: measured time times
# REF_NOMINAL_S over the time reference_work() took next to it. On a shared
# 2-vCPU host the speed drifts by up to 2x within seconds; raw per-run medians
# spread 19-35% across runs, the scaled ones 2-6%.
REF_NOMINAL_S = 0.030
REF_ROUNDS = 24_000
TRAIN_TRACES = 4  # plus one held-out validation trace
# Each set-up sample repeats the set-up until this much time has passed and
# reports the mean, so a 1 ms set-up is not timed alone
SETUP_SAMPLE_S = 0.02
SPAN_CAP = 1_500_000
PROBE_CALLS = 300
PROBE_WINDOWS = (5, 160)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    capacity: int
    ops: int  # workload operations per trial and evaluation-set trace
    quality_trials: int  # paired trials in the fixed evaluation set
    model: str | None = None  # committed pack; None makes each op a train run
    train_ops: int = 0  # workload operations per training trace
    pairs: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # ~87% of accesses evict and learned costs ~5x FIFO per event:
        # modelpack scoring and simcache eviction carry the load
        Workload("sizebias-evict", "synthetic_sizebias", 96, 1000, 4,
                 model="models/sizebias-evict.json"),
        # ~87% hits, ~11% evictions once the cache is full: the tracker and
        # the hit path carry the load and scoring is bypassed
        Workload("mongo-hits", "mongo", 1024, 8000, 2,
                 model="models/mongo-hits.json"),
        # the train pipeline: trace IO, label simulation, dataset, bins,
        # pair sampling, the ranker and export; the only user of those layers
        Workload("train-sizebias", "synthetic_sizebias", 96, 1000, 10, train_ops=250, pairs=5_000),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "op_s.tail": "s",
    "fifo_us_per_event": "us",
    "learned_us_per_event": "us",
    "peak_rss_mb": "MB",
    "insertion_pct_vs_fifo": "%",
    "val_auc": "ratio",
}

LAYER_UNITS = {
    "trace.generate_us_per_event": "us",
    "trace.write_us_per_event": "us",
    "trace.read_us_per_event": "us",
    "features.on_access_ns.p50": "ns",
    "features.on_access_ns.tail": "ns",
    "features.extract_ns": "ns",
    "features.build_dataset_s": "s",
    "features.rows": "count",
    "discretizer.fit_all_s": "s",
    "ranker.sample_pairs_s": "s",
    "ranker.train_s": "s",
    "ranker.epoch_s": "s",
    "ranker.epochs_run": "count",
    "ranker.pairs": "count",
    "modelpack.score_one_ns": "ns",
    "modelpack.score_window_ns.w5": "ns",
    "modelpack.score_window_ns.w160": "ns",
    "modelpack.load_s": "s",
    "simcache.access_hit_ns": "ns",
    "simcache.access_evict_ns.fifo.p50": "ns",
    "simcache.access_evict_ns.fifo.tail": "ns",
    "simcache.access_evict_ns.learned.p50": "ns",
    "simcache.access_evict_ns.learned.tail": "ns",
    "simcache.label_sim_s": "s",
    "simcache.hits": "count",
    "simcache.evictions": "count",
    "simcache.eviction_requests": "count",
    "simcache.candidates": "count",
    "simcache.divergence_rate": "ratio",
    "evalstats.t_test_us": "us",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "tracing.overhead_pct": "%",
}


class CheckFailed(Exception):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least 10 samples beyond it (max if n <= 10)."""
    n = len(samples)
    p = 100 * (n - 10) // n if n > 10 else 100
    return float(np.percentile(samples, p)), p


def median(samples) -> float:
    return float(np.median(samples)) if len(samples) else 0.0


def reference_work() -> int:
    """Fixed dict, deque and small-numpy work, unrelated to learnedcache."""
    resident, order = {}, deque()
    edges = np.arange(0, 4096, 400, dtype=np.uint64)
    col = np.zeros(8, dtype=np.uint64)
    acc = 0
    for i in range(REF_ROUNDS):
        k = (i * 2654435761) % 3000
        if k in resident:
            acc += 1
        else:
            resident[k] = i
            order.append(k)
            if len(resident) > 1024:
                del resident[order.popleft()]
        if i % 4 == 0:
            col[i & 7] = k
            acc += int(edges.searchsorted(col).sum())
    return acc


# -- paired trials -------------------------------------------------------------


@dataclasses.dataclass
class Trial:
    events: list
    reports: dict  # policy name -> SimReport
    sim_s: dict  # policy name -> wall seconds of run_simulation


def paired_trial(wl: Workload, policies: dict, trace_seed: int, coin_seed: int,
                 diffs: list[float]) -> Trial:
    """One paired-eval trial: generate, FIFO and learned in coin order, t-test."""
    events = generate_workload(default_spec(wl.kind, seed=trace_seed, n_ops=wl.ops))
    model_first = random.Random(coin_seed).random() < 0.5
    reports, sim_s = {}, {}
    for name in ("learned", "fifo") if model_first else ("fifo", "learned"):
        s = time.perf_counter()
        reports[name] = run_simulation(events, policies[name], wl.capacity)
        sim_s[name] = time.perf_counter() - s
    diffs.append(reports["learned"].insertion_rate - reports["fifo"].insertion_rate)
    paired_t_test(diffs)
    return Trial(events, reports, sim_s)


def reference_fifo(events, capacity: int) -> tuple[int, int, int]:
    """(hits, insertions, evictions) of a plain FIFO cache, as an oracle."""
    resident, order = set(), deque()
    hits = insertions = evictions = 0
    for ev in events:
        if ev.key in resident:
            hits += 1
            continue
        resident.add(ev.key)
        order.append(ev.key)
        insertions += 1
        if len(resident) > capacity:
            resident.discard(order.popleft())
            evictions += 1
    return hits, insertions, evictions


def counters(report) -> list[int]:
    return [report.accesses, report.hits, report.insertions, report.evictions]


def check_trial(wl: Workload, trial: Trial) -> None:
    n = len(trial.events)
    resident_at_end = min(wl.capacity, len({ev.key for ev in trial.events}))
    for name, r in trial.reports.items():
        if r.accesses != n or r.hits + r.insertions != r.accesses:
            raise CheckFailed(f"{name}: hits + insertions != accesses ({counters(r)}, {n} events)")
        if r.evictions != r.insertions - resident_at_end:
            raise CheckFailed(f"{name}: evictions != insertions - final residency ({counters(r)})")
    fifo = trial.reports["fifo"]
    if (fifo.hits, fifo.insertions, fifo.evictions) != reference_fifo(trial.events, wl.capacity):
        raise CheckFailed(f"fifo counters {counters(fifo)} differ from the reference FIFO")


def pack_auc(wl: Workload, pack) -> float:
    """AUC of the pack's float weights on FIFO-eviction pairs of evaluation trace 0."""
    events = generate_workload(default_spec(wl.kind, seed=derive_seed(QUALITY_SEED, 0), n_ops=wl.ops))
    sink: list = []
    run_simulation(events, FifoPolicy(), wl.capacity, event_sink=sink)
    rows = build_dataset(events, sink)
    bins = tuple(FeatureBins(f.bin_edges) for f in pack.features)
    ranker = LinearRanker(bins, np.concatenate([f.weights_float for f in pack.features]))
    n_pairs = min(QUALITY_PAIRS, default_pair_budget(len(rows)))
    return evaluate(ranker, sample_pairs(rows, bins, n_pairs, QUALITY_SEED)).auc


def evaluation_set(wl: Workload, pack, run: Run) -> dict:
    """Paired trials on the fixed evaluation set, as paired-eval --seed QUALITY_SEED."""
    policies = {"fifo": FifoPolicy(), "learned": LearnedPolicy(pack)}
    diffs: list[float] = []
    trials = []
    for i in range(wl.quality_trials):
        run.calibrate()
        trial = paired_trial(wl, policies, derive_seed(QUALITY_SEED, 2 * i),
                             derive_seed(QUALITY_SEED, 2 * i + 1), diffs)
        run.record_sims(trial)
        check_trial(wl, trial)
        trials.append(trial)
    run.calibrate()
    baseline = statistics.fmean(t.reports["fifo"].insertion_rate for t in trials)
    learned = [t.reports["learned"] for t in trials]
    return {
        "insertion_pct_vs_fifo": paired_t_test(diffs, baseline).pct_vs_baseline,
        "val_auc": pack_auc(wl, pack),
        "counters": [[counters(t.reports["fifo"]), counters(t.reports["learned"])] for t in trials],
        "learned_per_trial": {
            "hits": statistics.fmean(r.hits for r in learned),
            "evictions": statistics.fmean(r.evictions for r in learned),
            "eviction_requests": statistics.fmean(len(r.candidate_counts) for r in learned),
            "candidates": statistics.fmean(sum(r.candidate_counts) for r in learned),
        },
    }


# -- tracing hooks ---------------------------------------------------------------


def _set_items(count):
    def after(tracer, i, args, kwargs, result, ctx):
        tracer.items[i] = count(args, result)
    return (None, after)


def _access_before(args):
    cache, key = args[0], args[1]
    if key in cache.residency:
        return None
    n = min(len(cache.residency) + 1 - cache.capacity, BATCH_MAX)
    if n <= 0:
        return ()
    keys = cache.tracker.page_keys
    return [keys[s] for s in cache.order[cache.tail:cache.tail + n].tolist()]


def _access_after(tracer, i, args, kwargs, result, oldest):
    if oldest is None:
        tracer.rename(i, "simcache.access.hit")
    elif not oldest:
        tracer.rename(i, "simcache.access.insert")
    elif isinstance(args[3], LearnedPolicy):
        cache = args[0]
        tracer.rename(i, "simcache.access.evict.learned")
        tracer.count("learned_evictions")
        if any(k in cache.residency for k in oldest):
            tracer.count("divergent")
        tracer.state["last_learned"] = (cache, args[3])
    else:
        tracer.rename(i, "simcache.access.evict.fifo")


def _run_simulation_after(tracer, i, args, kwargs, result, ctx):
    tracer.items[i] = result.accesses
    if kwargs.get("event_sink") is not None:
        tracer.rename(i, "simcache.run_simulation.label")


HOOKS = {
    "simcache.access": (_access_before, _access_after),
    "simcache.run_simulation": (None, _run_simulation_after),
    "trace.generate_workload": _set_items(lambda a, r: len(r)),
    "trace.write_trace": _set_items(lambda a, r: len(a[0])),
    "trace.read_trace": _set_items(lambda a, r: len(r)),
    "features.build_dataset": _set_items(lambda a, r: len(r)),
    "ranker.sample_pairs": _set_items(lambda a, r: len(r)),
    "ranker.train": _set_items(lambda a, r: len(r.history)),
    "modelpack.PreparedScorer.score_window": _set_items(lambda a, r: len(a[2])),
}


# -- the run -----------------------------------------------------------------------


class Run:
    """Samples, failures and the op loop of one benchmark invocation.

    Every timed unit (set-up sample, op, evaluation trial) is preceded by a
    garbage collection and one run of reference_work(), and one more
    reference run follows each series of units. A sample is reported scaled
    by REF_NOMINAL_S over the mean of the reference times taken just before
    and just after it; the raw samples go to the results file.
    """

    def __init__(self, wl: Workload, seed: int, seconds: float, tracer: Tracer | None):
        self.wl, self.seed, self.seconds, self.tracer = wl, seed, seconds, tracer
        self.ref_s: list[float] = []
        self.samples: dict[str, list[tuple[float, int]]] = {
            k: [] for k in ("setup_s", "op_s", "traced_op_s", "fifo_us_per_event", "learned_us_per_event")
        }
        self.traced_ops: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict = {}
        self.work = OUT / f"work-{wl.name}-{os.getpid()}"

    def calibrate(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        reference_work()
        self.ref_s.append(time.perf_counter() - t0)

    def add(self, key: str, raw: float) -> None:
        self.samples[key].append((raw, len(self.ref_s) - 1))

    def scaled(self, key: str) -> list[float]:
        ref = self.ref_s
        return [raw * REF_NOMINAL_S / statistics.fmean(ref[i:i + 2]) for raw, i in self.samples[key]]

    def record_sims(self, trial: Trial) -> None:
        for name, s in trial.sim_s.items():
            self.add(f"{name}_us_per_event", s * 1e6 / len(trial.events))

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            self.failures.append(f"{what}: {detail}")
            return None

    def recording(self, op_id: int, root: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.recording(op_id, root)

    def setup_sample(self, setup) -> None:
        """Time one set-up sample: the mean of at least SETUP_SAMPLE_S of set-up calls."""
        self.calibrate()
        with self.recording(-1, "bench.setup"):
            calls = 0
            t0 = time.perf_counter()
            while not calls or time.perf_counter() - t0 < SETUP_SAMPLE_S:
                setup()
                calls += 1
            self.add("setup_s", (time.perf_counter() - t0) / calls)

    def loop(self, setup, op) -> None:
        """Set up, then run ops in a closed loop, one client, for the run's seconds.

        Each op is preceded by a set-up sample, so the set-up samples spread
        over the run like the ops and see the same mix of host speeds. In a
        traced run odd ops are recorded (until SPAN_CAP spans) and even ops
        are not, so both op_s medians come from the same process.
        """
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < (2 if self.tracer else 1) or time.perf_counter() < deadline:
            traced = self.tracer is not None and i % 2 == 1 and len(self.tracer) < SPAN_CAP
            self.setup_sample(setup)
            self.calibrate()
            self.attempt(f"op {i}", op, i, traced)
            i += 1
        self.calibrate()

    def timed(self, i: int, traced: bool, fn, *args):
        with self.recording(i, "bench.op") if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
        if traced:
            self.traced_ops.append(i)
        self.add("traced_op_s" if traced else "op_s", wall)
        return result


def run_simulate(run: Run) -> None:
    wl = run.wl
    path = HERE / wl.model
    state: dict = {}

    def setup():
        pack = load_json(str(path))
        state["pack"] = pack
        state["policies"] = {"fifo": FifoPolicy(), "learned": LearnedPolicy(pack)}

    diffs: list[float] = []
    first: dict = {}

    def op(i: int, traced: bool) -> None:
        seeds = derive_seed(run.seed, 2 * i), derive_seed(run.seed, 2 * i + 1)
        trial = run.timed(i, traced, paired_trial, wl, state["policies"], *seeds, diffs)
        if not traced:
            run.record_sims(trial)
        check_trial(wl, trial)
        if i == 0:
            first["seeds"], first["counters"] = seeds, {k: counters(r) for k, r in trial.reports.items()}

    run.loop(setup, op)

    def repeat_first() -> None:
        again = paired_trial(wl, state["policies"], *first["seeds"], [])
        got = {k: counters(r) for k, r in again.reports.items()}
        if got != first["counters"]:
            raise CheckFailed(f"op 0 rerun counters {got} differ from {first['counters']}")

    if first:
        run.attempt("op 0 rerun", repeat_first)
    evaluate_pack(run, lambda: state["pack"])


def write_train_traces(wl: Workload, seed: int, work: Path) -> list[str]:
    """Write the training traces and the validation trace last; return their paths."""
    paths = [str(work / f"trace{j}.bin") for j in range(TRAIN_TRACES + 1)]
    for j, p in enumerate(paths):
        write_trace(generate_workload(default_spec(wl.kind, seed=derive_seed(seed, j), n_ops=wl.train_ops)), p)
    return paths


def train_argv(wl: Workload, paths: list[str], seed: int, model: Path) -> list[str]:
    return ["train", "--traces", *paths[:-1], "--test", paths[-1], "--capacity", str(wl.capacity),
            "--pairs", str(wl.pairs), "--seed", str(seed), "--out", str(model)]


def fixed_train_pack(wl: Workload, work: Path):
    """The model train makes from traces on QUALITY_TRAIN_SEED: the same on every run."""
    work.mkdir(parents=True, exist_ok=True)
    model = work / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(train_argv(wl, write_train_traces(wl, QUALITY_TRAIN_SEED, work), QUALITY_TRAIN_SEED, model))
    if rc != 0:
        raise CheckFailed(f"train on the fixed traces exited {rc}")
    return load_json(str(model))


def run_train(run: Run) -> None:
    wl = run.wl
    run.work.mkdir(parents=True, exist_ok=True)
    paths: list[str] = []

    def setup():
        paths[:] = write_train_traces(wl, run.seed, run.work)

    model = run.work / "model.json"
    first: dict = {}

    def op(i: int, traced: bool) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run.timed(i, traced, cli.main, train_argv(wl, paths, run.seed, model))
        if rc != 0:
            raise CheckFailed(f"train exited {rc}")
        out = {"model": model.read_bytes(), "metrics": model.with_suffix(".metrics.json").read_bytes()}
        pack = load_json(str(model))
        export_json(pack, str(run.work / "reexport.json"))
        if (run.work / "reexport.json").read_bytes() != out["model"]:
            raise CheckFailed("trained pack does not re-export byte-identically")
        auc = json.loads(out["metrics"])["auc"]
        if auc is None or not auc > 0.5:
            raise CheckFailed(f"validation AUC {auc} is no better than chance")
        if not first:
            first.update(out)
        elif out != first:
            raise CheckFailed("train output differs from op 0 on the same inputs and seed")

    run.loop(setup, op)
    evaluate_pack(run, lambda: fixed_train_pack(wl, run.work / "fixed"))


def evaluate_pack(run: Run, make_pack) -> None:
    """Measure the evaluation set of the pack that make_pack() returns.

    For the committed workloads, whose evaluation set is fixed, the outcome
    must equal expected.json, which make_models.py writes.
    """
    def evaluate() -> None:
        run.quality = q = evaluation_set(run.wl, make_pack(), run)
        if run.wl == WORKLOADS.get(run.wl.name):
            expected = json.loads((HERE / "expected.json").read_text()).get(run.wl.name)
            got = {k: q[k] for k in ("insertion_pct_vs_fifo", "val_auc", "counters")}
            if got != expected:
                raise CheckFailed(f"{got} differs from expected.json {expected}")

    run.attempt("evaluation set", evaluate)


def probe_windows(run: Run) -> None:
    """Time score_window on the last learned cache's oldest pages, per window size."""
    cache, policy = run.tracer.state["last_learned"]
    scorer = PreparedScorer(policy.pack)
    t = cache.tracker.last_t
    with run.recording(-2, "bench.probe"):
        for w in PROBE_WINDOWS:
            if len(cache) >= w:
                slots = cache.order[cache.tail:cache.tail + w]
                for _ in range(PROBE_CALLS):
                    scorer.score_window(cache.tracker, slots, t)


# -- metrics -----------------------------------------------------------------------


def e2e_metrics(run: Run) -> dict:
    op_s = run.scaled("op_s")
    q = run.quality
    return {
        "setup_s": median(run.scaled("setup_s")),
        "op_s": median(op_s),
        "op_s.tail": tail(op_s)[0] if op_s else 0.0,
        "fifo_us_per_event": median(run.scaled("fifo_us_per_event")),
        "learned_us_per_event": median(run.scaled("learned_us_per_event")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "insertion_pct_vs_fifo": q.get("insertion_pct_vs_fifo"),
        "val_auc": q.get("val_auc"),
    }


def layer_metrics(run: Run) -> dict:
    t = SpanTable(run.tracer)
    ops = run.traced_ops

    def per_op_s(span: str) -> float:
        return median(t.per_op(t.dur, t.mask(span), ops)) / 1e9

    def per_op_items(span: str) -> float:
        return median(t.per_op(t.items, t.mask(span), ops))

    def p50_tail(span: str) -> tuple[float, float]:
        d = t.durations_ns(span)
        return (median(d), tail(d)[0]) if len(d) else (0.0, 0.0)

    m = {
        "trace.generate_us_per_event": t.ns_per_item("trace.generate_workload") / 1e3,
        "trace.write_us_per_event": t.ns_per_item("trace.write_trace") / 1e3,
        "trace.read_us_per_event": t.ns_per_item("trace.read_trace") / 1e3,
        "features.extract_ns": median(t.durations_ns("features.AccessTracker.extract_features")),
        "features.build_dataset_s": per_op_s("features.build_dataset"),
        "features.rows": per_op_items("features.build_dataset"),
        "discretizer.fit_all_s": per_op_s("discretizer.fit_all"),
        "ranker.sample_pairs_s": per_op_s("ranker.sample_pairs"),
        "ranker.train_s": per_op_s("ranker.train"),
        "ranker.epoch_s": t.ns_per_item("ranker.train") / 1e9,
        "ranker.epochs_run": per_op_items("ranker.train"),
        "ranker.pairs": per_op_items("ranker.sample_pairs"),
        "modelpack.score_one_ns": median(t.durations_ns("modelpack.PreparedScorer.score_one")),
        "modelpack.load_s": median(t.durations_ns("modelpack.load_json")) / 1e9,
        "simcache.access_hit_ns": median(t.durations_ns("simcache.access.hit")),
        "simcache.label_sim_s": per_op_s("simcache.run_simulation.label"),
        "evalstats.t_test_us": median(t.durations_ns("evalstats.paired_t_test")) / 1e3,
    }
    for w in PROBE_WINDOWS:
        m[f"modelpack.score_window_ns.w{w}"] = median(
            t.durations_ns("modelpack.PreparedScorer.score_window", items=w))
    m["features.on_access_ns.p50"], m["features.on_access_ns.tail"] = p50_tail(
        "features.AccessTracker.on_access")
    for policy in ("fifo", "learned"):
        m[f"simcache.access_evict_ns.{policy}.p50"], m[f"simcache.access_evict_ns.{policy}.tail"] = (
            p50_tail(f"simcache.access.evict.{policy}"))
    for k, v in run.quality.get("learned_per_trial", {}).items():
        m[f"simcache.{k}"] = v
    evicted = run.tracer.counts.get("learned_evictions", 0)
    m["simcache.divergence_rate"] = run.tracer.counts.get("divergent", 0) / evicted if evicted else 0.0
    for layer, ns in t.layer_self_ns(ops).items():
        m[f"{layer}.self_s"] = ns / max(len(ops), 1) / 1e9
    m["tracing.overhead_pct"] = 100 * (median(run.scaled("traced_op_s")) / median(run.scaled("op_s")) - 1)
    return m


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads[args.workload]
    tracer = Tracer(learnedcache, HOOKS, extra=(sys.modules[__name__],)) if args.trace else None
    run = Run(wl, args.seed, args.seconds, tracer)
    OUT.mkdir(exist_ok=True)
    try:
        (run_simulate if wl.model else run_train)(run)
        if tracer is not None and "last_learned" in tracer.state:
            probe_windows(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if tracer is None:
        values, units = e2e_metrics(run), E2E_UNITS
    else:
        values, units = layer_metrics(run), LAYER_UNITS
        tracer.save(str(OUT / f"{wl.name}-seed{args.seed}.spans.npz"))
    n_ops = len(run.samples["op_s"])
    tail_p = tail(run.scaled("op_s"))[1] if n_ops else 0
    detail = {
        "workload": dataclasses.asdict(wl), "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "op_s.tail_percentile": tail_p, "op_s.n": n_ops,
        "reference_s": run.ref_s, "raw_samples": run.samples,
        "scaled_samples": {k: run.scaled(k) for k in run.samples},
        "evaluation_set": run.quality, "failures": run.failures, "metrics": values,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    print(f"machine: {json.dumps(detail['machine'])}")
    print(f"{wl.name}: seed={args.seed} untraced_ops={n_ops} traced_ops={len(run.traced_ops)} "
          f"op_s.tail=p{tail_p} of n={n_ops} reference_s={median(run.ref_s):.4f}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
