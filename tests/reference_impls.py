"""Deliberately naive reference implementations used as test oracles.

Everything here favors the most literal possible formulation (full timestamp
histories, python lists, quadratic scans) so that agreement with the package
is evidence of correctness rather than shared structure. Only plain data
types are imported from the package.
"""

from __future__ import annotations

import csv
from bisect import bisect_right

from learnedcache.trace import EventKind, PageKey, TraceEvent

MISSING = 2**64 - 1
COUNT_STEP = 1024
BATCH_MAX = 32


def ref_scaled_count(timestamps: list[int]) -> int:
    """The page_ema and inode_ema features: COUNT_STEP per access in the history."""
    return COUNT_STEP * len(timestamps)


def ref_features(history: list, key, t_now: int) -> tuple[int, ...]:
    """Compute the nine features of `key` at t_now from scratch.

    history is the full access stream so far as (key, t) pairs in time order,
    all with t <= t_now.
    """
    page_ts = [t for k, t in history if k == key]
    inode_accs = [(k.offset, t) for k, t in history if (k.dev, k.inode) == (key.dev, key.inode)]
    return ref_features_of(key, page_ts, inode_accs, t_now)


def ref_features_of(
    key, page_ts: list[int], inode_accs: list[tuple[int, int]], t_now: int
) -> tuple[int, ...]:
    """The nine features of `key` at t_now from its own access times and
    its file's (offset, t) accesses, each in time order and all <= t_now."""
    inode_ts = [t for _, t in inode_accs]

    def delta(ts: list[int], back: int) -> int:
        # gap between the (back)th and (back+1)th most recent timestamps
        if len(ts) < back + 1:
            return MISSING
        return ts[-back] - ts[-back - 1]

    f0 = delta(page_ts, 1)
    f1 = delta(page_ts, 2)
    f2 = delta(inode_ts, 1)
    f3 = delta(inode_ts, 2)
    if inode_accs:
        f4 = abs(key.offset - inode_accs[-1][0])
        f5 = max(off for off, _ in inode_accs) + 1
    else:
        f4 = 0
        f5 = 0
    f6 = ref_scaled_count(page_ts)
    f7 = ref_scaled_count(inode_ts)
    f8 = t_now - page_ts[-1] if page_ts else MISSING
    return (f0, f1, f2, f3, f4, f5, f6, f7, f8)


def ref_dataset(accesses: list, evictions: list) -> list[tuple]:
    """Quadratic label matcher: (features_at_last_access_with_f8_replaced,
    eviction_t, reuse_time, key) per eviction, skipping never-accessed pages.
    """
    rows = []
    for ev in evictions:
        prior = [(i, a) for i, a in enumerate(accesses) if a.key == ev.key and a.t_ns <= ev.t_ns]
        if not prior:
            continue
        idx, last = prior[-1]
        prefix = [(a.key, a.t_ns) for a in accesses[: idx + 1]]
        feats = list(ref_features(prefix, ev.key, last.t_ns))
        feats[8] = ev.t_ns - last.t_ns
        later = [a.t_ns for a in accesses if a.key == ev.key and a.t_ns > ev.t_ns]
        reuse = later[0] - ev.t_ns if later else MISSING
        rows.append((tuple(feats), ev.t_ns, reuse, ev.key))
    return rows


def ref_auc(scores, labels) -> float:
    """Rank-based ROC AUC with half credit for score ties, both classes present.

    Ranks come from a stable argsort: tied scores take their group's average
    1-based rank, and each NaN (equal to nothing) is a group of its own,
    ranked after every number in index order.
    """
    import numpy as np

    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    boundaries = np.nonzero(sorted_scores[1:] != sorted_scores[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(scores)]))
    avg_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(avg_rank, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def ref_discretize(value: int, edges) -> int:
    """Bin index = number of edges at or below the value."""
    return sum(1 for e in edges if value >= e)


def ref_encode(features, bins) -> tuple[int, ...]:
    """Flattened one-hot indices of one row: feature j activates the bin
    ref_discretize picks, offset by the bin counts of the features before j."""
    assert len(features) == len(bins)
    out = []
    offset = 0
    for v, b in zip(features, bins):
        out.append(offset + ref_discretize(v, b.edges))
        offset += len(b.edges) + 1
    return tuple(out)


def int_score(pack, raw_features) -> int:
    """Integer-only candidate score: sum of selected weights_int per feature."""
    total = 0
    for i, fe in enumerate(pack.features):
        v = raw_features[i]
        b = 0
        for edge in fe.bin_edges:
            if v < edge:
                break
            b += 1
        total += fe.weights_int[b]
    return total


def ref_pack_score(pack_dict: dict, raw: list[int], weights: str = "weights_int"):
    """Score straight off the serialized form, via bisect, over one weights list."""
    total = 0
    for fe in pack_dict["features"]:
        b = bisect_right(fe["bin_edges"], raw[fe["index"]])
        total += fe[weights][b]
    return total


def ref_csv_rows(path: str) -> list[TraceEvent]:
    """The events of a CSV trace export, parsed with csv.reader and int."""
    kinds = {"Access": EventKind.ACCESS, "Insert": EventKind.INSERT, "Evict": EventKind.EVICT}
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["kind", "t_ns", "dev", "inode", "offset"]
    return [TraceEvent(kinds[k], int(t), PageKey(int(d), int(i), int(o))) for k, t, d, i, o in rows]


def ref_fifo_sim(accesses: list, capacity: int):
    """List-based first-in first-out cache with batched overflow eviction.

    accesses: (key, t) pairs. Returns (hit_flags, eviction_batches,
    final_resident, insertions, evictions).
    """
    resident: list = []
    hits: list[bool] = []
    batches: list[list] = []
    insertions = 0
    evictions = 0
    for key, _t in accesses:
        if key in resident:
            hits.append(True)
            continue
        hits.append(False)
        resident.append(key)
        insertions += 1
        overflow = len(resident) - capacity
        if overflow > 0:
            n = min(BATCH_MAX, overflow)
            batches.append(resident[:n])
            del resident[:n]
            evictions += n
    return hits, batches, resident, insertions, evictions


def ref_learned_sim(accesses: list, capacity: int, pack, oversample: int = 5):
    """List-based tail-rerank cache.

    On overflow of n pages, the candidates are the oldest min(oversample * n,
    resident) pages; the n lowest-scoring are evicted (older position wins
    ties), survivors keep their relative order. Victim lists come out in
    ascending score order. A candidate's features come from per-page and
    per-file access histories kept here, and int_score scores them.
    """
    page_ts: dict = {}
    file_accs: dict = {}

    def score(key, t_now):
        feats = ref_features_of(key, page_ts[key], file_accs[(key.dev, key.inode)], t_now)
        return int_score(pack, feats)

    resident: list = []
    hits: list[bool] = []
    batches: list[list] = []
    for key, t in accesses:
        page_ts.setdefault(key, []).append(t)
        file_accs.setdefault((key.dev, key.inode), []).append((key.offset, t))
        if key in resident:
            hits.append(True)
            continue
        hits.append(False)
        resident.append(key)
        overflow = len(resident) - capacity
        if overflow > 0:
            n = min(BATCH_MAX, overflow)
            window = min(oversample * n, len(resident))
            cands = resident[:window]
            scored = sorted((score(k, t), i) for i, k in enumerate(cands))
            chosen = [i for _, i in scored[:n]]
            batches.append([cands[i] for i in chosen])
            gone = set(chosen)
            resident = [c for i, c in enumerate(cands) if i not in gone] + resident[window:]
    return hits, batches, resident
