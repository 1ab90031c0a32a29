"""End-to-end command-line pipeline and exit-code contract."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import learnedcache
from learnedcache import cli, trace
from learnedcache.cli import main
from learnedcache.errors import TraceFormatError
from learnedcache.modelpack import load_json
from learnedcache.trace import EventKind, PageKey, TraceEvent, iter_trace, read_trace, write_trace

from reference_impls import ref_csv_rows

OPS = 60
CAPACITY = 24


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run all four stages once into a shared directory."""
    d = tmp_path_factory.mktemp("pipeline")
    paths = {
        "train1": str(d / "train1.bin"),
        "train2": str(d / "train2.bin"),
        "test": str(d / "test.bin"),
        "test_csv": str(d / "test.csv"),
        "model": str(d / "model.json"),
        "report_fifo": str(d / "fifo.json"),
        "report_learned": str(d / "learned.json"),
        "latency": str(d / "latency.csv"),
        "eval": str(d / "eval.json"),
    }
    for name, seed in (("train1", 100), ("train2", 101), ("test", 999)):
        rc = main([
            "gen-trace", "--workload", "synthetic_sizebias", "--ops", str(OPS),
            "--files", "4", "--seed", str(seed), "--out", paths[name],
        ] + (["--csv", paths["test_csv"]] if name == "test" else []))
        assert rc == 0
    rc = main([
        "train", "--traces", paths["train1"], paths["train2"],
        "--test", paths["test"], "--out", paths["model"],
        "--capacity", str(CAPACITY), "--pairs", "2000", "--epochs", "2",
        "--seed", "7",
    ])
    assert rc == 0
    for policy, report in (("fifo", "report_fifo"), ("learned", "report_learned")):
        rc = main([
            "simulate", "--trace", paths["test"], "--policy", policy,
            "--capacity", str(CAPACITY), "--report", paths[report],
            "--seed", "0",
        ] + (["--model", paths["model"], "--latency-csv", paths["latency"]]
             if policy == "learned" else []))
        assert rc == 0
    rc = main([
        "paired-eval", "--workload", "synthetic_sizebias", "--model", paths["model"],
        "--capacity", "16", "--trials", "3", "--ops", "30", "--files", "3",
        "--out", paths["eval"], "--seed", "42",
    ])
    assert rc == 0
    return paths


def test_generated_trace_is_a_valid_sorted_stream(pipeline):
    events = read_trace(pipeline["test"])
    assert len(events) > 100
    assert all(e.kind == EventKind.ACCESS for e in events)
    assert all(a.t_ns <= b.t_ns for a, b in zip(events, events[1:]))


def test_csv_export_matches_binary_trace(pipeline):
    assert ref_csv_rows(pipeline["test_csv"]) == read_trace(pipeline["test"])


def test_trained_model_loads_and_covers_all_features(pipeline):
    pack = load_json(pipeline["model"])
    assert pack.n_features == 9
    assert pack.weight_scale == 10000


def test_train_writes_default_sibling_artifacts(pipeline):
    history = pipeline["model"].replace(".json", ".history.csv")
    metrics_path = pipeline["model"].replace(".json", ".metrics.json")
    lines = Path(history).read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_auc,val_f1"
    metrics = json.loads(Path(metrics_path).read_text())
    assert list(metrics) == [
        "auc", "f1", "best_epoch", "epochs_run",
        "n_train_rows", "n_val_rows", "n_train_pairs", "n_val_pairs",
    ]
    assert len(lines) == 1 + metrics["epochs_run"]
    assert metrics["epochs_run"] <= 2
    assert metrics["n_train_pairs"] == 2000
    assert 1 <= metrics["n_val_pairs"] <= 2000
    assert metrics["n_train_rows"] > 0


def test_simulation_reports_match_a_direct_replay(pipeline):
    from learnedcache.simcache import FifoPolicy, LearnedPolicy, run_simulation

    report = json.loads(Path(pipeline["report_fifo"]).read_text())
    events = read_trace(pipeline["test"])
    direct = run_simulation(events, FifoPolicy(), CAPACITY)
    assert report["policy"] == "fifo"
    assert report["capacity"] == CAPACITY
    assert report["accesses"] == direct.accesses == len(events)
    assert report["insertions"] == direct.insertions
    assert report["hits"] == direct.hits
    assert report["evictions"] == direct.evictions
    assert report["insertion_rate"] == pytest.approx(direct.insertion_rate)

    assert report["eviction_requests"] == len(direct.candidate_counts) > 0
    assert report["candidates"] == sum(direct.candidate_counts)
    assert sum(report["latency_ns"]["buckets"]) == report["eviction_requests"]
    assert report["latency_ns"]["samples_path"] is None

    learned = json.loads(Path(pipeline["report_learned"]).read_text())
    model = LearnedPolicy(load_json(pipeline["model"]))
    direct = run_simulation(events, model, CAPACITY)
    assert learned["policy"] == "learned"
    assert learned["accesses"] == len(events)
    assert learned["eviction_requests"] == len(direct.candidate_counts)
    # a learned request of n pages considers the oversample * n oldest
    assert learned["candidates"] == sum(direct.candidate_counts) > learned["eviction_requests"]
    assert learned["latency_ns"]["samples_path"] == pipeline["latency"]


def test_latency_csv_has_one_row_per_eviction_batch(pipeline):
    lines = Path(pipeline["latency"]).read_text().splitlines()
    assert lines[0] == "eviction_latency_ns"
    learned = json.loads(Path(pipeline["report_learned"]).read_text())
    samples = [int(x) for x in lines[1:]]
    assert len(samples) == learned["eviction_requests"] > 0
    assert all(x >= 0 for x in samples)
    # the report's histogram counts the same requests, by the bit length of their ns
    buckets = learned["latency_ns"]["buckets"]
    assert buckets == [sum(1 for x in samples if x.bit_length() == b) for b in range(len(buckets))]


def test_paired_eval_artifacts(pipeline):
    obj = json.loads(Path(pipeline["eval"]).read_text())
    assert obj["workload"]["kind"] == "synthetic_sizebias"
    assert obj["workload"]["n_ops"] == 30
    assert obj["capacity"] == 16
    assert obj["n_trials"] == 3
    assert len(obj["trials"]) == 3
    for trial in obj["trials"]:
        assert trial["order"] in ("model_first", "normal_first")
        assert 0.0 <= trial["normal_rate"] <= 1.0
    assert "p" in obj["test"] and "degenerate" in obj["test"]

    summary = Path(pipeline["eval"].replace(".json", ".summary.csv")).read_text().splitlines()
    assert summary[0] == "workload,pct_vs_baseline,raw_change,significant"
    assert len(summary) == 2
    assert summary[1].startswith("synthetic_sizebias,")


def test_gen_trace_is_deterministic_per_seed(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a.bin", "b.bin", "c.bin"))
    assert main(["gen-trace", "--workload", "webserver", "--ops", "200",
                 "--seed", "5", "--out", a]) == 0
    assert main(["gen-trace", "--workload", "webserver", "--ops", "200",
                 "--seed", "5", "--out", b]) == 0
    assert main(["gen-trace", "--workload", "webserver", "--ops", "200",
                 "--seed", "6", "--out", c]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a).read_bytes() != Path(c).read_bytes()


def test_seed_env_fallback_matches_explicit_flag(tmp_path, monkeypatch):
    flagged = str(tmp_path / "flagged.bin")
    from_env = str(tmp_path / "env.bin")
    defaulted = str(tmp_path / "defaulted.bin")
    zero = str(tmp_path / "zero.bin")

    monkeypatch.delenv("LEARNEDCACHE_SEED", raising=False)
    assert main(["gen-trace", "--workload", "varmail", "--ops", "150",
                 "--seed", "9", "--out", flagged]) == 0
    assert main(["gen-trace", "--workload", "varmail", "--ops", "150",
                 "--out", defaulted]) == 0
    assert main(["gen-trace", "--workload", "varmail", "--ops", "150",
                 "--seed", "0", "--out", zero]) == 0
    monkeypatch.setenv("LEARNEDCACHE_SEED", "9")
    assert main(["gen-trace", "--workload", "varmail", "--ops", "150",
                 "--out", from_env]) == 0

    assert Path(from_env).read_bytes() == Path(flagged).read_bytes()
    assert Path(defaulted).read_bytes() == Path(zero).read_bytes()
    assert Path(defaulted).read_bytes() != Path(flagged).read_bytes()


def test_malformed_seed_env_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("LEARNEDCACHE_SEED", "not-a-number")
    rc = main(["gen-trace", "--workload", "varmail", "--ops", "10",
               "--out", str(tmp_path / "x.bin")])
    assert rc == 2


def test_usage_errors_exit_2(tmp_path):
    out = str(tmp_path / "x.bin")
    assert main([]) == 2
    assert main(["gen-trace", "--workload", "nonsense", "--out", out]) == 2
    assert main(["gen-trace", "--workload", "webserver"]) == 2  # --out missing
    assert main(["gen-trace", "--workload", "webserver", "--ops", "-1", "--out", out]) == 2
    assert main(["simulate", "--trace", out, "--policy", "lru", "--capacity", "4"]) == 2


def test_learned_policy_without_model_exits_2(pipeline, tmp_path, capsys):
    for trace_path in (pipeline["test"], str(tmp_path / "missing.bin")):
        rc = main(["simulate", "--trace", trace_path, "--policy", "learned",
                   "--capacity", "8"])
        assert rc == 2
        assert "--policy learned requires --model" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["fifo", "learned"])
@pytest.mark.parametrize("oversample", ["0", "-3"])
def test_oversample_below_one_exits_2_before_reading_the_trace(pipeline, tmp_path, capsys, policy, oversample):
    for trace_path in (pipeline["test"], str(tmp_path / "missing.bin")):
        rc = main(["simulate", "--trace", trace_path, "--policy", policy, "--model", pipeline["model"],
                   "--capacity", "8", "--oversample", oversample])
        assert rc == 2
        assert "--oversample must be >= 1" in capsys.readouterr().err


def test_zero_capacity_exits_2(pipeline, tmp_path):
    for trace_path in (pipeline["test"], str(tmp_path / "missing.bin")):
        rc = main(["simulate", "--trace", trace_path, "--policy", "fifo",
                   "--capacity", "0"])
        assert rc == 2
    rc = main(["paired-eval", "--workload", "synthetic_sizebias", "--model", pipeline["model"],
               "--capacity", "0", "--trials", "2", "--ops", "10",
               "--out", pipeline["eval"] + ".tmp"])
    assert rc == 2


@pytest.mark.parametrize("capacity", [str(2**62), str(10**15)])
def test_unallocatable_capacity_exits_2(pipeline, tmp_path, capsys, capacity):
    for argv in (
        ["simulate", "--trace", pipeline["test"], "--policy", "fifo"],
        ["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
         "--out", str(tmp_path / "m.json")],
        ["paired-eval", "--workload", "synthetic_sizebias", "--model", pipeline["model"],
         "--trials", "2", "--ops", "10", "--out", str(tmp_path / "e.json")],
    ):
        rc = main(argv + ["--capacity", capacity])
        err = capsys.readouterr().err
        assert rc == 2, argv[0]
        assert "too large" in err
        assert list(tmp_path.iterdir()) == []


# 2**60 file sizes take 2**63 bytes, past any list: the allocation fails at
# once, before one size is drawn
def test_unallocatable_file_count_exits_2(pipeline, tmp_path, capsys):
    for argv in (
        ["gen-trace", "--workload", "webserver", "--ops", "3", "--out", str(tmp_path / "t.bin")],
        ["paired-eval", "--workload", "webserver", "--model", pipeline["model"],
         "--capacity", "8", "--trials", "2", "--ops", "3", "--out", str(tmp_path / "e.json")],
    ):
        rc = main(argv + ["--files", str(2**60)])
        err = capsys.readouterr().err
        assert rc == 2, argv[0]
        assert "too large" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def test_zero_trials_exits_2(pipeline, tmp_path):
    rc = main(["paired-eval", "--workload", "synthetic_sizebias", "--model", pipeline["model"],
               "--capacity", "8", "--trials", "0", "--ops", "10",
               "--out", str(tmp_path / "e.json")])
    assert rc == 2


@pytest.mark.parametrize("ops", ["0", "-1"])
def test_paired_eval_without_ops_exits_2_and_writes_nothing(pipeline, tmp_path, capsys, ops):
    out = tmp_path / "e.json"
    rc = main(["paired-eval", "--workload", "synthetic_sizebias", "--model", pipeline["model"],
               "--capacity", "8", "--trials", "2", "--ops", ops, "--out", str(out)])
    assert rc == 2
    assert "--ops must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_zero_jobs_exits_2(pipeline, tmp_path):
    rc = main(["paired-eval", "--workload", "synthetic_sizebias", "--model", pipeline["model"],
               "--capacity", "8", "--trials", "2", "--ops", "10", "--jobs", "0",
               "--out", str(tmp_path / "e.json")])
    assert rc == 2


@pytest.mark.parametrize("knobs", [
    ["--pairs", "0"],
    ["--pairs", "500", "--lr", "inf"],
    ["--pairs", "500", "--lr", "1e308"],  # finite, but training diverges
    ["--pairs", "500", "--lr", "1e16"],  # trains, but a weight times the scale passes 2**63
    ["--pairs", "500", "--lr", "1e305"],  # trains, but a weight times the scale is inf
    ["--pairs", str(10**19)],  # past numpy's array size limit: fails before allocating
], ids=["pairs-0", "lr-inf", "lr-diverges", "lr-overflows-pack", "lr-overflows-float",
        "pairs-unallocatable"])
def test_bad_training_knobs_exit_2(pipeline, tmp_path, knobs, capsys):
    out = tmp_path / "m.json"
    # record warnings here: under pytest they never reach stderr, outside it
    # they would print there ahead of the error message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
                   "--out", str(out), "--capacity", str(CAPACITY), "--epochs", "2"] + knobs)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


def test_unexpected_exception_exits_4_without_traceback(pipeline, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "run_simulation", boom)
    rc = main(["simulate", "--trace", pipeline["test"], "--policy", "fifo", "--capacity", "8"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "internal error: simulated fault" in err
    assert "Traceback" not in err


def test_missing_input_file_exits_3(tmp_path):
    rc = main(["simulate", "--trace", str(tmp_path / "absent.bin"),
               "--policy", "fifo", "--capacity", "4"])
    assert rc == 3


def test_corrupt_trace_exits_3(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    rc = main(["simulate", "--trace", str(bad), "--policy", "fifo", "--capacity", "4"])
    assert rc == 3


def test_bad_record_late_in_the_trace_exits_3_and_writes_nothing(pipeline, tmp_path, capsys, monkeypatch):
    # simulate streams the trace, so it has simulated every record before
    # the bad one when it meets it; it must still fail as read_trace does
    data = bytearray(Path(pipeline["test"]).read_bytes())
    at = len(data) - 33
    data[at] = 9  # the last record's kind
    path = tmp_path / "late.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError) as err:
        read_trace(str(path))
    assert err.value.offset == at
    monkeypatch.setattr(trace, "_CHUNK_RECORDS", 64)  # the bad record lies many chunks in
    for policy in ("fifo", "learned"):
        report, latency = tmp_path / "r.json", tmp_path / "l.csv"
        rc = main(["simulate", "--trace", str(path), "--policy", policy, "--model", pipeline["model"],
                   "--capacity", str(CAPACITY), "--report", str(report), "--latency-csv", str(latency)])
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: {err.value}\n")
        assert not report.exists() and not latency.exists()


def test_simulate_memory_does_not_grow_with_trace_length(tmp_path):
    # simulate streams its trace, so its peak RSS follows the distinct pages
    # (synthetic_sizebias: at most 312), not the trace's length. Both traces
    # span more than one 32768-record chunk. The one per-request record left,
    # candidate_counts at 8 B per request, takes under 1 MB of the 4 MB margin
    # (about 86k more requests); holding the trace took 18 MB more. The child
    # reads its own VmHWM: ru_maxrss would also count this process, whose
    # memory the child shares until it execs.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from Linux's /proc/self/status")
    child = ("import sys; from learnedcache.cli import main; main(sys.argv[1:]); "
             "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')))")
    src = str(Path(learnedcache.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    peaks_kib = []
    for ops in (2200, 8800):
        path = str(tmp_path / f"{ops}.bin")
        assert main(["gen-trace", "--workload", "synthetic_sizebias", "--ops", str(ops),
                     "--seed", "1", "--out", path]) == 0
        out = subprocess.run(
            [sys.executable, "-c", child, "simulate", "--trace", path, "--policy", "fifo",
             "--capacity", "96"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        peaks_kib.append(int(out.split()[-2]))  # "VmHWM:  34388 kB"
    assert len(read_trace(path)) > 4 * 32768
    assert peaks_kib[1] - peaks_kib[0] < 4096, peaks_kib


def test_access_at_the_last_u64_offset_exits_3(tmp_path, capsys):
    # a well-formed record, but its file size offset + 1 would not fit a u64
    path = tmp_path / "edge.bin"
    write_trace([TraceEvent(EventKind.ACCESS, 5, PageKey(1, 2, 0))], str(path))
    # the writer refuses this offset, so patch it into the record's last 8 bytes
    path.write_bytes(path.read_bytes()[:-8] + b"\xff" * 8)
    rc = main(["simulate", "--trace", str(path), "--policy", "fifo", "--capacity", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "access offset" in err
    assert "Traceback" not in err


def test_corrupt_model_exits_3(pipeline, tmp_path, capsys, monkeypatch):
    # both commands load the model before any trace: simulate reads none
    reads = []
    monkeypatch.setattr(cli, "read_trace", lambda path: reads.append(path) or read_trace(path))
    monkeypatch.setattr(cli, "iter_trace", lambda path: reads.append(path) or iter_trace(path))
    path = tmp_path / "m.json"
    # a valid pack but for its score bound, 2**63: one past int64's maximum
    past_bound = json.loads(Path(pipeline["model"]).read_text())
    past_bound["weight_scale"] = 1
    for fe in past_bound["features"]:
        fe["weights_float"] = [0.0] * fe["n_bins"]
        fe["weights_int"] = [0] * fe["n_bins"]
    past_bound["features"][0]["weights_float"][0] = 2.0**63
    past_bound["features"][0]["weights_int"][0] = 2**63
    for content in (
        b"{]",
        json.dumps({"feature_names": 3}).encode(),
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100_000,  # nested past the JSON decoder's recursion limit
        json.dumps(past_bound).encode(),
    ):
        path.write_bytes(content)
        for argv in (
            ["simulate", "--trace", pipeline["test"], "--policy", "learned", "--model", str(path)],
            ["paired-eval", "--workload", "synthetic_sizebias", "--model", str(path),
             "--trials", "2", "--ops", "10", "--out", str(tmp_path / "e.json")],
        ):
            rc = main(argv + ["--capacity", "8"])
            assert rc == 3, (argv[0], content[:8])
            assert "Traceback" not in capsys.readouterr().err
            assert not (tmp_path / "e.json").exists()
    assert reads == []


def test_pack_whose_scaled_weight_overflows_exits_3(pipeline, tmp_path):
    # 1e308 is finite, but 1e308 * weight_scale is not
    obj = json.loads(Path(pipeline["model"]).read_text())
    obj["features"][0]["weights_float"][0] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(obj))
    rc = main(["simulate", "--trace", pipeline["test"], "--policy", "learned",
               "--model", str(path), "--capacity", "8"])
    assert rc == 3


def test_pack_with_reordered_feature_names_exits_2(pipeline, tmp_path):
    # a well-formed pack whose features are not the simulator's, in order
    obj = json.loads(Path(pipeline["model"]).read_text())
    obj["feature_names"].reverse()
    for fe, name in zip(obj["features"], obj["feature_names"]):
        fe["name"] = name
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(obj))
    assert load_json(str(path)).feature_names == tuple(obj["feature_names"])
    rc = main(["simulate", "--trace", pipeline["test"], "--policy", "learned",
               "--model", str(path), "--capacity", "8"])
    assert rc == 2


def test_train_with_oversized_capacity_exits_2(pipeline, tmp_path):
    # nothing is ever evicted, so there are no labeled rows to learn from
    rc = main(["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
               "--out", str(tmp_path / "m.json"), "--capacity", "100000"])
    assert rc == 2


def test_train_on_traces_without_reuse_exits_2(tmp_path, capsys):
    # every page is touched once, so every evicted page is never reused and
    # all labels tie: no pair can rank one eviction above another
    path = tmp_path / "once.bin"
    write_trace([TraceEvent(EventKind.ACCESS, 1000 * i, PageKey(1, 100 + i // 4, i % 4))
                 for i in range(40)], str(path))
    out = tmp_path / "m.json"
    rc = main(["train", "--traces", str(path), "--test", str(path), "--out", str(out),
               "--capacity", "4", "--pairs", "100"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "never reused" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_single_epoch_run_writes_single_history_row(pipeline, tmp_path):
    out = str(tmp_path / "tiny.json")
    hist = str(tmp_path / "h.csv")
    rc = main(["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
               "--out", out, "--capacity", str(CAPACITY), "--pairs", "500",
               "--epochs", "1", "--history", hist, "--seed", "1"])
    assert rc == 0
    lines = Path(hist).read_text().splitlines()
    assert len(lines) == 2
    metrics = json.loads(Path(out.replace(".json", ".metrics.json")).read_text())
    assert metrics["epochs_run"] == 1
    assert metrics["best_epoch"] == 1


def test_train_metrics_are_the_best_epochs_validation_row(tmp_path):
    # a rate this high stops early (best epoch 6 of 7), and the returned
    # weights are the best epoch's, so its history row holds their AUC and F1
    traces = [str(tmp_path / f"{seed}.bin") for seed in (100, 999)]
    for seed, out in zip((100, 999), traces):
        assert main(["gen-trace", "--workload", "synthetic_sizebias", "--ops", "200",
                     "--files", "4", "--seed", str(seed), "--out", out]) == 0
    out = str(tmp_path / "m.json")
    assert main(["train", "--traces", traces[0], "--test", traces[1], "--out", out,
                 "--capacity", "16", "--pairs", "500", "--epochs", "8", "--patience", "1",
                 "--lr", "10", "--seed", "1"]) == 0
    metrics = json.loads(Path(out.replace(".json", ".metrics.json")).read_text())
    assert metrics["best_epoch"] < metrics["epochs_run"]
    rows = list(csv.DictReader(Path(out.replace(".json", ".history.csv")).read_text().splitlines()))
    best = rows[metrics["best_epoch"] - 1]
    assert rows[-1]["val_auc"] != best["val_auc"]
    assert (metrics["auc"], metrics["f1"]) == (float(best["val_auc"]), float(best["val_f1"]))


def test_single_class_validation_pairs_give_a_null_auc(pipeline, tmp_path, capsys):
    # one pair is one class: AUC is undefined, and NaN is not JSON
    out = str(tmp_path / "one.json")
    rc = main(["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
               "--out", out, "--capacity", str(CAPACITY), "--pairs", "1",
               "--epochs", "2", "--seed", "1"])
    assert rc == 0
    metrics = json.loads(Path(out.replace(".json", ".metrics.json")).read_text())
    assert metrics["auc"] is None and metrics["n_val_pairs"] == 1
    assert "val auc n/a" in capsys.readouterr().out


def test_train_rerun_is_byte_identical(pipeline, tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        rc = main(["train", "--traces", pipeline["train1"], "--test", pipeline["test"],
                   "--out", out, "--capacity", str(CAPACITY), "--pairs", "800",
                   "--epochs", "2", "--seed", "3"])
        assert rc == 0
        outs.append(out)
    assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
    assert (
        Path(outs[0].replace(".json", ".metrics.json")).read_bytes()
        == Path(outs[1].replace(".json", ".metrics.json")).read_bytes()
    )


# sha256 of each output of acceptance test 11's pipeline (Python 3.11, numpy
# 2.4); "report" is the simulate report without its wall-clock latency_ns,
# dumped with sorted keys. Test 11 compares two runs of one build; these pin
# every trained weight, history row, counter and trial across changes.
GOLDEN_OUTPUT_SHA256 = {
    "model.json": "5549bead36451bdf84c269dcbc0e478f546230a540f00a4dae33ff39f9b2ae5a",
    "model.history.csv": "063a1004041e9630f4f5b86a1db29ed0c6deca5d4bae9b512c3626ace53bacca",
    "model.metrics.json": "e155b6a668eb10672cc6e54b358bd086f6216dad99044d9834de81207a2ee0ae",
    "eval.json": "2fbc92c028f2e68aa2d636e93a8ae20e5ae86bfaae046efc0129cbb156999cd8",
    "eval.summary.csv": "16f6090a02383d809c3ceae0ce6530efc88b4b81374c5756ed8026392a22fdb4",
    "report": "e4fe5564b3a746acc1f3bd1ff5e12a10eeee171cc3173e1ddd5d0e594f9b5246",
}


def test_pipeline_outputs_match_their_golden_digest(tmp_path):
    wl = "synthetic_sizebias"
    train, test, model = (str(tmp_path / n) for n in ("train.bin", "test.bin", "model.json"))
    report, evals = str(tmp_path / "report.json"), str(tmp_path / "eval.json")
    for seed, out in (("100", train), ("999", test)):
        assert main(["gen-trace", "--workload", wl, "--ops", "60", "--files", "4",
                     "--seed", seed, "--out", out]) == 0
    assert main(["train", "--traces", train, "--test", test, "--out", model, "--capacity", "24",
                 "--pairs", "800", "--epochs", "2", "--seed", "3"]) == 0
    assert main(["simulate", "--trace", test, "--policy", "learned", "--model", model,
                 "--capacity", "24", "--report", report, "--seed", "0"]) == 0
    assert main(["paired-eval", "--workload", wl, "--model", model, "--capacity", "16",
                 "--trials", "3", "--ops", "30", "--files", "3", "--seed", "42",
                 "--out", evals]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_OUTPUT_SHA256 if name != "report"
    }
    obj = json.loads(Path(report).read_text())
    obj.pop("latency_ns")
    digests["report"] = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digests == GOLDEN_OUTPUT_SHA256


def test_stdout_progress_lines(pipeline, tmp_path, capsys):
    out = str(tmp_path / "t.bin")
    main(["gen-trace", "--workload", "synthetic_sizebias", "--ops", "20", "--files", "2",
          "--seed", "4", "--out", out])
    main(["simulate", "--trace", out, "--policy", "fifo", "--capacity", "4"])
    printed = capsys.readouterr().out
    assert "gen-trace: synthetic_sizebias seed=4" in printed
    assert "simulate: policy=fifo capacity=4" in printed
    assert "insertion_rate=" in printed


def test_verbose_holds_for_its_own_call_only(pipeline, tmp_path, capsys):
    # -v sets the learnedcache logger for the call that gets it, on the stderr
    # of that call, whatever handlers the root logger already has
    def train_stderr(*flags):
        assert main([*flags, "train", "--traces", pipeline["train1"], "--test", pipeline["test"],
                     "--out", str(tmp_path / "m.json"), "--capacity", str(CAPACITY),
                     "--pairs", "200", "--epochs", "1", "--seed", "1"]) == 0
        return capsys.readouterr().err

    assert train_stderr("-v").startswith("learnedcache: dataset: ")
    assert train_stderr() == ""
    assert "learnedcache: dataset: " in train_stderr("--verbose")


def test_the_package_binds_no_public_name_but_its_submodules():
    # each public name has one home, its module; the package re-exports nothing
    public = {name: obj for name, obj in vars(learnedcache).items() if not name.startswith("_")}
    assert public
    assert {name: getattr(obj, "__name__", None) for name, obj in public.items()} == {
        name: f"learnedcache.{name}" for name in public
    }
