"""Access tracking, the window feature derivation, and dataset labeling."""

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
from learnedcache.modelpack import PreparedScorer
from learnedcache.trace import EventKind, PageKey, TraceEvent

from packbuild import make_accesses, random_pack, window_features
from reference_impls import int_score, ref_dataset, ref_features

SECOND = 1_000_000_000
K = PageKey(1, 10, 3)


def features(tr, key, t_now):
    return window_features(tr, [key], t_now)[0]


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


def test_first_access_initializes_both_tables():
    tr = AccessTracker()
    tr.on_access(K, 50)
    f = features(tr, K, 50)
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
    f = features(tr, K, 12)
    assert f.page_delta1 == 7  # 12 - 5
    assert f.page_delta2 == 5  # 5 - 0
    assert f.access_to_eviction == 0
    tr.on_access(K, 20)
    f = features(tr, K, 23)
    assert f.page_delta1 == 8
    assert f.page_delta2 == 7
    assert f.access_to_eviction == 3


SMALL_SPANS = (0, 10**9 - 1, 10**9)  # on both sides of one second
LARGE_SPANS = (64 * 10**9, 2**62)  # far past 64 seconds and near the top of uint64


def check_emas_count_accesses(gap, extra):
    # K is accessed twice and another page of its file once, gap apart
    other = PageKey(K.dev, K.inode, K.offset + 1)
    tr = AccessTracker()
    for i, key in enumerate((K, other, K)):
        tr.on_access(key, i * gap)
    fk, fo = window_features(tr, [K, other], 2 * gap + extra)
    assert (fk.page_ema, fk.inode_ema) == (2 * EMA_SCALE, 3 * EMA_SCALE), (gap, extra)
    assert (fo.page_ema, fo.inode_ema) == (EMA_SCALE, 3 * EMA_SCALE), (gap, extra)


def test_emas_are_scaled_access_counts():
    for gap in SMALL_SPANS:
        for extra in SMALL_SPANS:
            check_emas_count_accesses(gap, extra)


def test_emas_do_not_decay_at_large_gaps():
    # every pairing of gap and probe time in which at least one is large
    for gap in SMALL_SPANS + LARGE_SPANS:
        for extra in LARGE_SPANS if gap in SMALL_SPANS else SMALL_SPANS + LARGE_SPANS:
            check_emas_count_accesses(gap, extra)


def test_inode_state_is_shared_across_pages():
    tr = AccessTracker()
    a, b = PageKey(1, 10, 0), PageKey(1, 10, 5)
    tr.on_access(a, 10)
    tr.on_access(b, 30)
    fa = features(tr, a, 30)
    assert fa.inode_delta1 == 20
    assert fa.inode_ema == EMA_SCALE * 2  # two accesses to the file
    assert fa.offset_distance == 5  # a's offset 0 vs last inode offset 5
    assert fa.file_size == 6


def test_file_size_tracks_the_largest_offset_seen():
    tr = AccessTracker()
    tr.on_access(PageKey(1, 10, 9), 1)
    tr.on_access(K, 2)
    assert features(tr, K, 2).file_size == 10


def test_time_regression_is_rejected():
    tr = AccessTracker()
    tr.on_access(K, 100)
    with pytest.raises(ValueError):
        tr.on_access(K, 99)
    tr.on_access(K, 100)  # equal timestamps are fine


def test_tracker_grows_past_initial_table_sizes():
    tr = AccessTracker()
    keys = [PageKey(1, 1000 + i, j) for i in range(70) for j in range(5)]
    for t, k in enumerate(keys):
        tr.on_access(k, t * 10)
    t_now = (len(keys) - 1) * 10
    assert [f.file_size for f in window_features(tr, keys[::37], t_now)] == [5] * 10


def test_table_growth_fits_a_column_past_its_width():
    # page_column numbers 1000 pages without growing the table, so the next
    # column the table must hold lies far past its 320 columns
    tr = AccessTracker()
    for i in range(1000):
        tr.page_column(PageKey(1, 1, i))
    assert tr.tab.shape == (6, 320) and tr.index.shape == (2, 320)
    assert tr._column((1, 2)) == 1000
    width = tr.tab.shape[1]
    assert width > 1000 and tr.index.shape == (2, width)
    assert tr.index[0].tolist() == list(range(width))
    assert len(tr._rows[0]) == len(tr._file_of) == width


@pytest.mark.parametrize("seed", range(5))
def test_extraction_matches_history_based_reference(seed):
    rng = random.Random(seed)
    # odd seeds space accesses up to 0.9 s apart, so emas of pages idle for
    # more than a second check that nothing decays
    step = 2_000_000 if seed % 2 == 0 else 900_000_000
    accs = make_accesses(rng, 300, n_inodes=4, pages_per_inode=6, t_step_max=step)
    tr = AccessTracker()
    history = []
    for i, (key, t) in enumerate(accs):
        tr.on_access(key, t)
        history.append((key, t))
        if i % 23 != 0:
            continue
        probes = [key] + [rng.choice(history)[0] for _ in range(3)]
        # probes up to 3 s, 64 s and 2**62 ns after the last access
        for extra in (0, rng.randrange(3 * SECOND), 64 * SECOND, 2**62):
            got = window_features(tr, probes, t + extra)
            assert got == [ref_features(history, p, t + extra) for p in probes], (i, extra)


# 70 files of 5 pages: more columns (350 pages plus 70 files) than the
# tracker's initial table holds (320), so the table grows mid-stream
_GROW_KEYS = [PageKey(1, 500 + i // 5, i % 5) for i in range(350)]


@settings(deadline=None, max_examples=40)
@given(
    order=st.permutations(_GROW_KEYS),
    revisits=st.lists(st.tuples(st.integers(0, 349), st.integers(0, 349)), max_size=120),
    gaps=st.lists(st.integers(0, 3 * SECOND), min_size=1, max_size=16),
    probes=st.sets(st.integers(0, 469), max_size=6),
    pack_seed=st.integers(0, 2**32),
)
def test_features_survive_table_growth(order, revisits, gaps, probes, pack_seed):
    # revisit (i, j): right after the first access of order[i], access again
    # a key first seen no later, order[j % (i + 1)]; the stream ends with a
    # revisit of the very first key, after the table has grown
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
            pages = [p for p in (key, order[0], order[len(order) // 2]) if p in tr.page_slot]
            assert window_features(tr, pages, t + SECOND) == [
                ref_features(history, p, t + SECOND) for p in pages
            ]
    assert len(tr.page_slot) == 350 and len(tr.inode_slot) == 70
    # the scorer gathers from the public table, which must hold the same state
    slots = np.array([tr.page_slot[k] for k in order[::7]])
    pack = random_pack(random.Random(pack_seed))
    want = [int_score(pack, ref_features(history, tr.page_keys[s], t)) for s in slots]
    assert PreparedScorer(pack).score_window(tr, slots, t).tolist() == want


# 90 files of 4 pages: every stream below sees all 360 pages and 90 files,
# more columns than the tracker's initial table holds (320)
_N_FILES, _FILE_PAGES = 90, 4


@settings(deadline=None, max_examples=50)
@given(
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 2**16), st.lists(st.integers(0, 2**16), max_size=3)),
        min_size=1,
        max_size=40,
    ),
    gaps=st.lists(st.integers(0, 3 * SECOND), min_size=1, max_size=8),
    probes=st.sets(st.integers(0, 359), max_size=4),
)
def test_page_first_lookup_keeps_inode_slots_and_features(steps, gaps, probes):
    # Steps repeat in turn until all 360 pages are seen. Each step first
    # touches one unseen page, on a new file or on a seen file with unseen
    # pages (its bool prefers a new file; either falls back to the other),
    # then revisits the seen pages its ints pick.
    seen: list[PageKey] = []
    next_page: list[int] = []  # per seen file, its next unseen page
    stream = []
    n = 0
    while len(seen) < _N_FILES * _FILE_PAGES:
        new_file, pick, revisits = steps[n % len(steps)]
        open_files = [f for f, p in enumerate(next_page) if p < _FILE_PAGES]
        if len(next_page) < _N_FILES and (new_file or not open_files):
            next_page.append(0)
            f = len(next_page) - 1
        else:
            f = open_files[pick % len(open_files)]
        key = PageKey(1, 500 + f, next_page[f])
        next_page[f] += 1
        seen.append(key)
        stream.append((key, n in probes))
        stream.extend((seen[r % len(seen)], False) for r in revisits)
        n += 1

    tr = AccessTracker()
    history = []
    t = 0
    for i, (key, probe) in enumerate(stream):
        t += gaps[i % len(gaps)]
        tr.on_access(key, t)
        history.append((key, t))
        if probe or i == len(stream) - 1:
            # one table: every page and every file has its own column, keyed
            # in page_keys, and a page's gather index column holds its own
            # column and its file's
            assert len(tr.page_keys) == len(tr.page_slot) + len(tr.inode_slot)
            assert all(tr.page_keys[s] == k for k, s in tr.page_slot.items())
            assert all(tr.page_keys[s] == f for f, s in tr.inode_slot.items())
            index = tr.index.take(list(tr.page_slot.values()), axis=1).tolist()
            assert index == [list(tr.page_slot.values()),
                             [tr.inode_slot[(k.dev, k.inode)] for k in tr.page_slot]]
            # the page just seen and the first page seen
            assert window_features(tr, [key, seen[0]], t + SECOND) == [
                ref_features(history, p, t + SECOND) for p in (key, seen[0])
            ]
    assert len(tr.page_slot) == _N_FILES * _FILE_PAGES and len(tr.inode_slot) == _N_FILES


def _random_labeled_trace(seed):
    rng = random.Random(seed)
    accs = make_accesses(rng, 350, n_inodes=5, pages_per_inode=8)
    access_events = [TraceEvent(EventKind.ACCESS, t, k) for k, t in accs]
    universe = sorted({k for k, _ in accs}) + [PageKey(1, 999, 0)]  # one never accessed
    t_end = accs[-1][1]
    times = sorted(rng.randrange(t_end + 2 * SECOND) for _ in range(60))
    evictions = [TraceEvent(EventKind.EVICT, t, rng.choice(universe)) for t in times]
    return access_events, evictions


@pytest.mark.parametrize("seed", range(4))
def test_dataset_labels_match_quadratic_reference(seed):
    access_events, evictions = _random_labeled_trace(seed)
    rows = build_dataset(access_events, evictions)
    got = [(tuple(r.features), r.eviction_t_ns, r.reuse_time_ns, r.key) for r in rows]
    assert got == ref_dataset(access_events, evictions)


# 30 files of 10 pages: with them a trace has more columns (300 pages plus 30
# files) than the tracker's initial table holds (320), so the table grows
_LABEL_FILL = [PageKey(1, 700 + i // 10, i % 10) for i in range(300)]


@st.composite
def _labeled_traces(draw):
    """Sorted accesses over a few files, and sorted evictions of accessed,
    never-accessed and not-yet-accessed pages, some at an access's own time."""
    pool = [PageKey(1, 10 + f, o) for f in range(draw(st.integers(1, 4)))
            for o in range(draw(st.integers(1, 4)))]
    keys = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(keys)))
        keys[at:at] = _LABEL_FILL
    gaps = draw(st.lists(st.sampled_from([0, 1, SECOND - 1, SECOND]) | st.integers(0, 3 * SECOND),
                         min_size=1, max_size=8))
    accesses = []
    t = 0
    for n, key in enumerate(keys):
        t += gaps[n % len(gaps)]
        accesses.append(TraceEvent(EventKind.ACCESS, t, key))
    # the pool (some of it never accessed), a never-seen file's page, an
    # unseen page of a seen file, and a fill page (accessed only with the fill)
    victims = pool + [PageKey(1, 999, 0), pool[0]._replace(offset=9), _LABEL_FILL[0]]
    evictions = sorted(
        (TraceEvent(EventKind.EVICT, max(0, accesses[i].t_ns + dt), victims[v])
         for i, dt, v in draw(st.lists(st.tuples(
             st.integers(0, len(accesses) - 1),
             st.sampled_from([0, 0, -1, 1, SECOND]),
             st.integers(0, len(victims) - 1)), max_size=25))),
        key=lambda ev: ev.t_ns,
    )
    return accesses, evictions


@settings(deadline=None, max_examples=120)
@given(trace=_labeled_traces())
def test_dataset_matches_quadratic_reference_on_any_trace(trace):
    access_events, evictions = trace
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
