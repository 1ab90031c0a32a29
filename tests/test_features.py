"""Access tracking, feature extraction, and dataset labeling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learnedcache.features import (
    EMA_SCALE,
    FEATURE_NAMES,
    MISSING,
    N_FEATURES,
    AccessTracker,
    build_dataset,
)
from learnedcache.modelpack import PreparedScorer, int_score
from learnedcache.trace import EventKind, PageKey, TraceEvent

from packbuild import make_accesses, random_pack
from reference_impls import ref_dataset, ref_features

HALF = 1_000_000_000
K = PageKey(1, 10, 3)


def test_feature_vector_has_nine_named_fields():
    assert N_FEATURES == 9
    assert FEATURE_NAMES == (
        "page_delta1",
        "page_delta2",
        "inode_delta1",
        "inode_delta2",
        "offset_distance",
        "file_size",
        "page_ema",
        "inode_ema",
        "access_to_eviction",
    )


def test_unseen_key_gets_missing_and_zero_defaults():
    tr = AccessTracker()
    f = tr.extract_features(K, 0)
    assert (f.page_delta1, f.page_delta2, f.access_to_eviction) == (MISSING, MISSING, MISSING)
    assert (f.inode_delta1, f.inode_delta2) == (MISSING, MISSING)
    assert (f.offset_distance, f.file_size, f.page_ema, f.inode_ema) == (0, 0, 0, 0)


def test_unseen_page_on_a_seen_inode_keeps_inode_context():
    tr = AccessTracker()
    tr.on_access(PageKey(1, 10, 7), 100)
    f = tr.extract_features(K, 100)  # same inode, different offset
    assert f.page_delta1 == MISSING
    assert f.page_delta2 == MISSING
    assert f.access_to_eviction == MISSING
    assert f.page_ema == 0
    assert f.inode_delta1 == MISSING  # one inode access so far
    assert f.offset_distance == 4  # |3 - 7|
    assert f.file_size == 8
    assert f.inode_ema == EMA_SCALE


def test_first_access_initializes_both_tables():
    tr = AccessTracker()
    tr.on_access(K, 50)
    f = tr.extract_features(K, 50)
    assert f.page_delta1 == MISSING
    assert f.page_delta2 == MISSING
    assert f.access_to_eviction == 0
    assert f.page_ema == EMA_SCALE
    assert f.inode_ema == EMA_SCALE
    assert f.file_size == K.offset + 1
    assert f.offset_distance == 0


def test_delta_chain_follows_last_three_timestamps():
    tr = AccessTracker()
    for t in (0, 5, 12):
        tr.on_access(K, t)
    f = tr.extract_features(K, 12)
    assert f.page_delta1 == 7  # 12 - 5
    assert f.page_delta2 == 5  # 5 - 0
    assert f.access_to_eviction == 0
    tr.on_access(K, 20)
    f = tr.extract_features(K, 23)
    assert f.page_delta1 == 8
    assert f.page_delta2 == 7
    assert f.access_to_eviction == 3


def test_ema_accumulates_and_halves_per_half_life():
    tr = AccessTracker()
    tr.on_access(K, 0)
    tr.on_access(K, HALF)
    # 1024 halved once plus a fresh 1024
    assert tr.extract_features(K, HALF).page_ema == 1536
    # two more half-lives quarter it
    assert tr.extract_features(K, 3 * HALF).page_ema == 384
    # fractions of a half-life do nothing (integer half-life count)
    assert tr.extract_features(K, HALF + HALF - 1).page_ema == 1536


def test_ema_decays_to_zero_beyond_the_shift_range():
    tr = AccessTracker()
    tr.on_access(K, 0)
    assert tr.extract_features(K, 10 * HALF).page_ema == 1
    assert tr.extract_features(K, 11 * HALF).page_ema == 0
    # enormous gaps must not overflow the shift amount
    assert tr.extract_features(K, 200 * HALF).page_ema == 0


def test_inode_state_is_shared_across_pages():
    tr = AccessTracker()
    a, b = PageKey(1, 10, 0), PageKey(1, 10, 5)
    tr.on_access(a, 10)
    tr.on_access(b, 30)
    fa = tr.extract_features(a, 30)
    assert fa.inode_delta1 == 20
    assert fa.inode_ema == EMA_SCALE * 2  # two recent accesses, no decay yet
    assert fa.offset_distance == 5  # a's offset 0 vs last inode offset 5
    assert fa.file_size == 6


def test_file_size_tracks_the_largest_offset_seen():
    tr = AccessTracker()
    tr.on_access(PageKey(1, 10, 9), 1)
    tr.on_access(PageKey(1, 10, 2), 2)
    assert tr.extract_features(K, 2).file_size == 10


def test_time_regression_is_rejected():
    tr = AccessTracker()
    tr.on_access(K, 100)
    with pytest.raises(ValueError):
        tr.on_access(K, 99)
    with pytest.raises(ValueError):
        tr.extract_features(K, 99)
    tr.on_access(K, 100)  # equal timestamps are fine


def test_tracker_grows_past_initial_table_sizes():
    tr = AccessTracker()
    keys = [PageKey(1, 1000 + i, j) for i in range(70) for j in range(5)]
    for t, k in enumerate(keys):
        tr.on_access(k, t * 10)
    t_now = (len(keys) - 1) * 10
    for k in keys[::37]:
        assert tr.extract_features(k, t_now).file_size == 5


@pytest.mark.parametrize("seed", range(5))
def test_extraction_matches_history_based_reference(seed):
    rng = random.Random(seed)
    # odd seeds space accesses widely enough that decay kicks in between them
    step = 2_000_000 if seed % 2 == 0 else 900_000_000
    accs = make_accesses(rng, 300, n_inodes=4, pages_per_inode=6, t_step_max=step)
    tr = AccessTracker()
    history = []
    for i, (key, t) in enumerate(accs):
        tr.on_access(key, t)
        history.append((key, t))
        if i % 23 != 0:
            continue
        probes = [key, PageKey(1, 10, 99), PageKey(1, 98, 0)]
        probes += [rng.choice(accs)[0] for _ in range(3)]
        for extra in (0, rng.randrange(3 * HALF)):
            for p in probes:
                got = tuple(tr.extract_features(p, t + extra))
                assert got == ref_features(history, p, t + extra), (i, p, extra)


# 70 files of 5 pages: more pages (350) and files (70) than the tracker's
# initial tables hold (256 and 64), so both tables grow mid-stream
_GROW_KEYS = [PageKey(1, 500 + i // 5, i % 5) for i in range(350)]


@settings(deadline=None, max_examples=40)
@given(
    order=st.permutations(_GROW_KEYS),
    revisits=st.lists(st.tuples(st.integers(0, 349), st.integers(0, 349)), max_size=120),
    gaps=st.lists(st.integers(0, 3 * HALF), min_size=1, max_size=16),
    probes=st.sets(st.integers(0, 469), max_size=6),
    pack_seed=st.integers(0, 2**32),
)
def test_features_survive_table_growth(order, revisits, gaps, probes, pack_seed):
    # revisit (i, j): right after the first access of order[i], access again
    # a key first seen no later, order[j % (i + 1)]; the stream ends with a
    # revisit of the very first key, after both tables have grown
    after: dict[int, list[PageKey]] = {}
    for i, j in revisits:
        after.setdefault(i, []).append(order[j % (i + 1)])
    stream = []
    for i, key in enumerate(order):
        stream.append(key)
        stream.extend(after.get(i, ()))
    stream.append(order[0])

    tr = AccessTracker()
    history = []
    t = 0
    for n, key in enumerate(stream):
        t += gaps[n % len(gaps)]
        tr.on_access(key, t)
        history.append((key, t))
        if n in probes or n == len(stream) - 1:
            for p in (key, order[0], order[len(order) // 2]):
                assert tuple(tr.extract_features(p, t + HALF)) == ref_features(history, p, t + HALF)
    assert len(tr.page_slot) == 350 and len(tr.inode_slot) == 70
    # the scorer gathers from the public tables, which must hold the same state
    slots = np.arange(0, 350, 7)
    pack = random_pack(random.Random(pack_seed))
    want = [int_score(pack, ref_features(history, tr.page_keys[s], t)) for s in slots]
    assert PreparedScorer(pack).score_window(tr, slots, t).tolist() == want


def _random_labeled_trace(seed):
    rng = random.Random(seed)
    accs = make_accesses(rng, 350, n_inodes=5, pages_per_inode=8)
    access_events = [TraceEvent(EventKind.ACCESS, t, k) for k, t in accs]
    universe = sorted({k for k, _ in accs}) + [PageKey(1, 999, 0)]  # one never accessed
    t_end = accs[-1][1]
    times = sorted(rng.randrange(t_end + 2 * HALF) for _ in range(60))
    evictions = [TraceEvent(EventKind.EVICT, t, rng.choice(universe)) for t in times]
    return access_events, evictions


@pytest.mark.parametrize("seed", range(4))
def test_dataset_labels_match_quadratic_reference(seed):
    access_events, evictions = _random_labeled_trace(seed)
    rows = build_dataset(access_events, evictions)
    got = [(tuple(r.features), r.eviction_t_ns, r.reuse_time_ns, r.key) for r in rows]
    assert got == ref_dataset(access_events, evictions)


def test_dataset_reuse_is_time_to_next_access():
    acc = [
        TraceEvent(EventKind.ACCESS, 10, K),
        TraceEvent(EventKind.ACCESS, 50, K),
    ]
    ev = [
        TraceEvent(EventKind.EVICT, 20, K),
        TraceEvent(EventKind.EVICT, 50, K),
    ]
    rows = build_dataset(acc, ev)
    assert [r.reuse_time_ns for r in rows] == [30, MISSING]
    # the second eviction coincides with an access; that access is not reuse,
    # but it is the feature snapshot, so the access gap is zero
    assert rows[1].features.access_to_eviction == 0
    assert rows[0].features.access_to_eviction == 10


def test_dataset_drops_evictions_of_never_accessed_pages():
    acc = [TraceEvent(EventKind.ACCESS, 10, K)]
    ev = [
        TraceEvent(EventKind.EVICT, 5, K),  # before its first access
        TraceEvent(EventKind.EVICT, 7, PageKey(1, 2, 2)),
    ]
    assert build_dataset(acc, ev) == []


def test_dataset_rejects_unsorted_inputs():
    a1 = TraceEvent(EventKind.ACCESS, 10, K)
    a2 = TraceEvent(EventKind.ACCESS, 5, K)
    with pytest.raises(ValueError):
        build_dataset([a1, a2], [])
    e1 = TraceEvent(EventKind.EVICT, 10, K)
    e2 = TraceEvent(EventKind.EVICT, 5, K)
    with pytest.raises(ValueError):
        build_dataset([a1], [e1, e2])
