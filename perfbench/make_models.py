"""Train the committed models of the simulate workloads and pin their results.

    python3 perfbench/make_models.py

For each workload with a committed model, generates training traces of the
workload's kind and op count on seeds 1..5 (disjoint from the trial seeds,
which come from derive_seed), trains at the workload's capacity with
``learnedcache train`` and writes ``models/<workload>.json``. For every
workload it records the fixed evaluation-set outcome in ``expected.json``: of
the committed model, or for the train workload of the model that train makes
from the fixed traces (run.fixed_train_pack). run.py fails a run whose
evaluation set does not reproduce that outcome exactly.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

from run import (HERE, OUT, WORKLOADS, Run, cli, default_spec, evaluation_set, fixed_train_pack, generate_workload,
                 load_json, write_trace)

TRAIN_SEEDS = (1, 2, 3, 4, 5)  # the last one is the held-out validation trace
TRAIN_ARGS = ("--pairs", "100000", "--seed", "1")


def record(expected: dict, wl, pack) -> None:
    q = evaluation_set(wl, pack, Run(wl, 0, 0, None))
    expected[wl.name] = {k: q[k] for k in ("insertion_pct_vs_fifo", "val_auc", "counters")}
    print(f"{wl.name}: {json.dumps(expected[wl.name])}")


def main() -> int:
    expected = {}
    OUT.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        if wl.model is None:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                pack = fixed_train_pack(wl, Path(tmp))
            record(expected, wl, pack)
            continue
        model = HERE / wl.model
        model.parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            paths = []
            for seed in TRAIN_SEEDS:
                path = f"{tmp}/trace{seed}.bin"
                write_trace(generate_workload(default_spec(wl.kind, seed=seed, n_ops=wl.ops)), path)
                paths.append(path)
            argv = ["train", "--traces", *paths[:-1], "--test", paths[-1],
                    "--capacity", str(wl.capacity), "--out", str(model),
                    "--history", f"{tmp}/history.csv", "--metrics", f"{tmp}/metrics.json", *TRAIN_ARGS]
            if cli.main(argv) != 0:
                return 1
        record(expected, wl, load_json(str(model)))
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
