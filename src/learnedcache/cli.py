"""Command-line pipeline: gen-trace, train, simulate, paired-eval.

Exit codes: 0 success, 2 configuration/usage error, 3 unreadable or malformed
input file, 4 internal invariant violation or any other unexpected error. The
seed defaults to the LEARNEDCACHE_SEED environment variable, then 0; all
outputs are deterministic for a fixed seed (wall-clock latency fields aside).

main pauses the cyclic garbage collector while a subcommand runs and gives it
back the caller's setting on every exit. The records a subcommand builds
(trace events, page keys, feature vectors, dataset rows) are tuple subclasses
that the collector tracks while they live, so each of its passes would walk
them all; reference counting still frees every object outside a reference
cycle at once. The library modules leave the collector to their callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import evalstats, ranker, simcache, trace
from .errors import (
    ConfigurationError,
    PackValidationError,
    QuantizationError,
    SamplingError,
    TraceFormatError,
)
from .discretizer import fit_all
from .features import build_dataset
from .modelpack import export_json, load_json, quantize
from .ranker import TrainConfig, default_pair_budget, sample_pairs, write_history_csv
from .simcache import FifoPolicy, LearnedPolicy, run_simulation
from .trace import default_spec, generate_workload, iter_trace, read_trace, write_trace


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("LEARNEDCACHE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigurationError(f"LEARNEDCACHE_SEED must be an integer, got {env!r}") from None


def _at_least_one(text: str) -> int:
    """argparse type of a count flag: an int >= 1, refused before any input is read."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, allow_nan=False)
        f.write("\n")


def _stem(path: str, suffix: str) -> str:
    return os.path.splitext(path)[0] + suffix


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    spec = default_spec(args.workload, seed=seed, n_ops=args.ops, n_files=args.files)
    events = generate_workload(spec)
    write_trace(events, args.out)
    if args.csv:
        trace.export_csv(args.out, args.csv)
    print(f"gen-trace: {args.workload} seed={seed} ops={args.ops} events={len(events)} -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    config = TrainConfig(
        max_epochs=args.epochs,
        batch_size=args.batch,
        patience=args.patience,
        learning_rate=args.lr,
        seed=evalstats.derive_seed(seed, 3),
    )

    def rows_for(path: str):
        events = read_trace(path)
        sink: list = []
        run_simulation(events, FifoPolicy(), args.capacity, event_sink=sink)
        return build_dataset(events, sink)

    train_rows = []
    for path in args.traces:
        train_rows.extend(rows_for(path))
    val_rows = rows_for(args.test)
    if not train_rows:
        raise ConfigurationError(
            "training traces produced no evictions; lower --capacity or use longer traces"
        )
    if not val_rows:
        raise ConfigurationError(
            "test trace produced no evictions; lower --capacity or use a longer trace"
        )
    if args.verbose:
        print(f"learnedcache: dataset: {len(train_rows)} train rows, {len(val_rows)} val rows",
              file=sys.stderr)

    bins = fit_all(list(zip(*(row.features for row in train_rows))))

    n_train_pairs = default_pair_budget(len(train_rows)) if args.pairs is None else args.pairs
    n_val_pairs = min(default_pair_budget(len(val_rows)), n_train_pairs)
    try:
        train_pairs = sample_pairs(train_rows, bins, n_train_pairs, evalstats.derive_seed(seed, 1))
        val_pairs = sample_pairs(val_rows, bins, n_val_pairs, evalstats.derive_seed(seed, 2))
    except SamplingError as exc:
        raise ConfigurationError(
            f"{exc}: the traces' evicted pages are never reused, or all after the same "
            "gap, so no eviction ranks above another; use traces with page reuse"
        ) from None
    except (MemoryError, ValueError):  # ValueError: above numpy's size limit
        raise ConfigurationError(f"--pairs {n_train_pairs} is too large to allocate") from None

    result = ranker.train(train_pairs, val_pairs, bins, config)
    # the best epoch scored the validation pairs with the returned weights
    best = result.history[result.best_epoch - 1]
    auc = None if math.isnan(best.val_auc) else best.val_auc

    try:
        pack = quantize(result.ranker)
    except QuantizationError as exc:
        raise ConfigurationError(f"{exc}; lower the learning rate") from None
    export_json(pack, args.out)
    history_path = args.history or _stem(args.out, ".history.csv")
    write_history_csv(result.history, history_path)
    metrics_path = args.metrics or _stem(args.out, ".metrics.json")
    _write_json(
        {
            "auc": auc,
            "f1": best.val_f1,
            "best_epoch": result.best_epoch,
            "epochs_run": len(result.history),
            "n_train_rows": len(train_rows),
            "n_val_rows": len(val_rows),
            "n_train_pairs": len(train_pairs),
            "n_val_pairs": len(val_pairs),
        },
        metrics_path,
    )
    auc_txt = "n/a" if auc is None else f"{auc:.4f}"
    print(
        f"train: {len(train_rows)} rows, best epoch {result.best_epoch}/{len(result.history)}, "
        f"val auc {auc_txt}, val f1 {best.val_f1:.4f} -> {args.out}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.policy == "learned" and not args.model:
        raise ConfigurationError("--policy learned requires --model")
    if args.policy == "learned":
        policy = LearnedPolicy(load_json(args.model), oversample=args.oversample)
    else:
        policy = FifoPolicy()
    # the trace streams through the simulation, timed for the report's
    # latency_ns; only --latency-csv keeps raw samples
    samples = [] if args.latency_csv else None
    report = run_simulation(
        iter_trace(args.trace), policy, args.capacity, latency_sink=samples, timed=True
    )

    samples_path = None
    if args.latency_csv:
        with open(args.latency_csv, "w") as f:
            f.write("eviction_latency_ns\n")
            f.writelines(f"{sample}\n" for sample in samples)
        samples_path = args.latency_csv
    obj = simcache.report_to_dict(report, args.policy, args.capacity, samples_path)
    if args.report:
        _write_json(obj, args.report)
    rate = "nan" if report.insertion_rate != report.insertion_rate else f"{report.insertion_rate:.6f}"
    print(
        f"simulate: policy={args.policy} capacity={args.capacity} accesses={report.accesses} "
        f"hits={report.hits} insertions={report.insertions} insertion_rate={rate}"
    )
    return 0


def _cmd_paired_eval(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    pack = load_json(args.model)
    base = default_spec(args.workload, seed=0, n_ops=args.ops, n_files=args.files)
    trial_set = evalstats.run_paired_trials(
        base, pack, args.capacity, args.trials, seed, jobs=args.jobs
    )
    test = evalstats.paired_t_test(trial_set.differences(), trial_set.baseline_mean())
    _write_json(evalstats.trial_set_to_dict(trial_set, test), args.out)
    summary = evalstats.summarize(trial_set, test)
    summary_path = args.summary or _stem(args.out, ".summary.csv")
    evalstats.write_summary_csv([summary], summary_path)
    if test.degenerate:
        print(f"paired-eval: {args.workload} degenerate sample (zero variance or n < 2), "
              f"mean_diff={test.mean_diff!r} pct={summary.pct_vs_baseline!r}")
    else:
        print(
            f"paired-eval: {args.workload} trials={args.trials} mean_diff={test.mean_diff:.6f} "
            f"pct={summary.pct_vs_baseline:.2f}% p={test.p_value:.4g} "
            f"significant={'true' if summary.significant else 'false'}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="learnedcache",
        description="Synthetic page-cache traces, learned-eviction training, and paired evaluation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="print progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (default: $LEARNEDCACHE_SEED or 0)")

    p = sub.add_parser("gen-trace", help="generate a synthetic workload trace")
    p.add_argument("--workload", required=True, choices=trace.WORKLOAD_KINDS)
    p.add_argument("--ops", type=int, default=50_000, help="operation count (default 50000)")
    p.add_argument("--files", type=int, default=None, help="file count (default: per-workload)")
    p.add_argument("--out", required=True, help="output binary trace path")
    p.add_argument("--csv", default=None, help="also export the trace as CSV")
    add_seed(p)
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("train", help="train an eviction ranker from traces")
    p.add_argument("--traces", nargs="+", required=True, help="training trace files")
    p.add_argument("--test", required=True, help="held-out trace file")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--capacity", type=_at_least_one, default=1024,
                   help="cache capacity used to generate eviction labels (default 1024)")
    p.add_argument("--pairs", type=_at_least_one, default=None,
                   help="training pair count (default min(500000, 50 * rows))")
    p.add_argument("--epochs", type=_at_least_one, default=50)
    p.add_argument("--batch", type=_at_least_one, default=512)
    p.add_argument("--patience", type=_at_least_one, default=5)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--history", default=None, help="history CSV path (default <out>.history.csv)")
    p.add_argument("--metrics", default=None, help="metrics JSON path (default <out>.metrics.json)")
    add_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("simulate", help="replay a trace through the cache simulator")
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", required=True, choices=["fifo", "learned"])
    p.add_argument("--model", default=None, help="model JSON (required for --policy learned)")
    p.add_argument("--capacity", type=_at_least_one, required=True)
    p.add_argument("--oversample", type=_at_least_one, default=simcache.DEFAULT_OVERSAMPLE)
    p.add_argument("--report", default=None, help="write the run report JSON here")
    p.add_argument("--latency-csv", default=None, help="dump raw eviction latency samples")
    add_seed(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("paired-eval", help="paired FIFO vs learned trials with a t-test")
    p.add_argument("--workload", required=True, choices=trace.WORKLOAD_KINDS)
    p.add_argument("--model", required=True)
    p.add_argument("--capacity", type=_at_least_one, required=True)
    p.add_argument("--trials", type=_at_least_one, default=50)
    p.add_argument("--ops", type=_at_least_one, default=50_000, help="operations per trial trace")
    p.add_argument("--files", type=_at_least_one, default=None)
    p.add_argument("--jobs", type=_at_least_one, default=1, help="trial processes, >= 1 (capped at trials and CPUs)")
    p.add_argument("--out", required=True, help="trial-set JSON path")
    p.add_argument("--summary", default=None, help="summary CSV path (default <out>.summary.csv)")
    add_seed(p)
    p.set_defaults(func=_cmd_paired_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # paused while the subcommand runs: see the module docstring
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TraceFormatError, PackValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # InternalError and anything unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
