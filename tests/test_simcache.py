"""Cache simulation: FIFO baseline, learned tail rerank, reporting."""

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learnedcache import simcache
from learnedcache.errors import ConfigurationError
from learnedcache.features import FEATURE_NAMES, AccessTracker
from learnedcache.simcache import (
    BATCH_MAX,
    LATENCY_BUCKETS,
    AccessResult,
    CacheState,
    FifoPolicy,
    LearnedPolicy,
    _evict,
    access,
    benchmark_eviction_latency,
    report_to_dict,
    run_simulation,
)
from learnedcache.trace import EventKind, PageKey, TraceEvent

from packbuild import U64_MAX, build_pack, make_accesses, random_pack, zero_pack
from reference_impls import int_score, ref_features, ref_fifo_sim, ref_learned_sim

A, B, C, D = (PageKey(1, 10, i) for i in range(4))


def drive(cache, pairs, policy):
    hits = []
    for key, t in pairs:
        hits.append(access(cache, key, t, policy) is AccessResult.HIT)
    return hits


def as_events(pairs):
    return [TraceEvent(EventKind.ACCESS, t, k) for k, t in pairs]


def counts(report):
    # a run's record also holds wall times, so runs compare by their counts
    return (report.accesses, report.insertions, report.evictions, report.hits)


def test_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        CacheState(0)


# 2**62 is past numpy's size limit (ValueError) and 10**15 pages past any
# machine's memory (MemoryError); neither touches memory
@pytest.mark.parametrize("capacity", [2**62, 10**15])
def test_unallocatable_capacity_is_a_configuration_error(capacity):
    with pytest.raises(ConfigurationError, match="too large"):
        CacheState(capacity)


def test_fifo_evicts_oldest_without_promotion():
    cache = CacheState(2)
    seq = [(A, 10), (B, 20), (C, 30), (B, 40), (D, 50)]
    hits = drive(cache, seq, FifoPolicy())
    # C's insert evicts A; B stays oldest despite its hit, so D's insert evicts B
    assert hits == [False, False, False, True, False]
    assert cache.resident_keys() == [C, D]
    assert counts(cache.report) == (5, 4, 2, 1)


def test_eviction_request_bounds():
    cache = CacheState(50)
    for i, t in enumerate(range(10)):
        access(cache, PageKey(1, 1, i), t, FifoPolicy())
    t = 10
    with pytest.raises(ConfigurationError):
        _evict(cache, 0, FifoPolicy(), t)
    with pytest.raises(ConfigurationError):
        _evict(cache, BATCH_MAX + 1, FifoPolicy(), t)
    # a request larger than the population empties the cache gracefully
    victims = _evict(cache, 32, FifoPolicy(), t)
    assert victims == [PageKey(1, 1, i) for i in range(10)]
    assert len(cache) == 0


def test_learned_eviction_request_bounds():
    cache = CacheState(50)
    pack = zero_pack()
    for i, t in enumerate(range(5)):
        access(cache, PageKey(1, 1, i), t, LearnedPolicy(pack))
    t = cache.tracker.last_t
    with pytest.raises(ConfigurationError):
        _evict(cache, 0, LearnedPolicy(pack), t)
    with pytest.raises(ConfigurationError):
        _evict(cache, BATCH_MAX + 1, LearnedPolicy(pack), t)
    with pytest.raises(ConfigurationError):
        LearnedPolicy(pack, oversample=0)
    assert _evict(cache, 32, LearnedPolicy(pack), t) == [PageKey(1, 1, i) for i in range(5)]


@pytest.mark.parametrize("policy", [FifoPolicy(), LearnedPolicy(zero_pack(), oversample=1),
                                    LearnedPolicy(zero_pack(), oversample=5)],
                         ids=["fifo", "learned-1", "learned-5"])
def test_request_above_the_resident_count_records_a_window_of_every_page(policy):
    cache = CacheState(50)
    for i in range(7):
        access(cache, PageKey(1, 1, i), i, policy)
    assert cache.report.candidate_counts == []
    with pytest.raises(ConfigurationError):
        _evict(cache, BATCH_MAX + 1, policy, 7)
    assert _evict(cache, 9, policy, 7) == [PageKey(1, 1, i) for i in range(7)]
    # a rejected request records nothing; the accepted one saw all 7 pages
    assert cache.report.candidate_counts == [7]
    assert sum(cache.report.latency_hist) == 1
    assert cache.report.evictions == 7


@pytest.mark.parametrize("fill,evict", [("fifo", "learned"), ("learned", "fifo")])
def test_a_cache_refuses_a_request_under_a_policy_that_tracks_otherwise(fill, evict):
    # a FIFO cache's page slots hold no features and, past 320 pages, lie
    # past the tracker's table, so a learned access or request would read
    # and write cells that are not theirs
    policies = {"fifo": FifoPolicy(), "learned": LearnedPolicy(random_pack(random.Random(5)))}
    # 330 pages lie past the tracker's initial 320 columns
    for pages in (4, 330):
        cache = CacheState(pages)
        for i in range(pages):
            access(cache, PageKey(1, 1, i), i, policies[fill])
        assert cache.tracks is policies[fill].tracks
        tracker = cache.tracker
        state = (tracker.tab.copy(), tracker.index.copy(), list(tracker.page_keys),
                 tracker.last_t)
        with pytest.raises(ConfigurationError, match="one policy for its lifetime"):
            _evict(cache, 1, policies[evict], pages)
        # a hit on a page the cache holds is refused under either policy: a
        # FIFO hit on a learned cache would go unseen by its tracker
        for i in (0, pages - 1):
            with pytest.raises(ConfigurationError, match="one policy for its lifetime"):
                access(cache, PageKey(1, 1, i), pages + 1, policies[evict])
        # the miss that overflows the cache
        with pytest.raises(ConfigurationError, match="one policy for its lifetime"):
            access(cache, PageKey(1, 1, pages), pages + 1, policies[evict])
        assert cache.report.candidate_counts == [] and cache.report.evictions == 0
        assert cache.report.hits == 0
        assert cache.report.insertions == len(cache) == pages
        # the refused calls left the tracker as it was
        assert tracker.tab.tobytes() == state[0].tobytes()
        assert tracker.index.tobytes() == state[1].tobytes()
        assert tracker.page_keys == state[2]
        assert tracker.last_t == state[3]
        # the policy the cache was filled under still serves it
        assert access(cache, PageKey(1, 1, 0), pages + 2, policies[fill]) is AccessResult.HIT
        assert len(_evict(cache, 1, policies[fill], pages + 2)) == 1
        assert cache.report.candidate_counts == [min(policies[fill].oversample, pages)]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    learned=st.booleans(),
    capacity=st.integers(1, 24),
    oversample=st.integers(1, 40),
)
def test_every_request_records_one_latency_and_its_window(seed, learned, capacity, oversample):
    # a miss overflows the cache by one page, so each request evicts one page
    # from capacity + 1 residents and scores min(oversample, capacity + 1)
    rng = random.Random(seed)
    policy = LearnedPolicy(random_pack(rng), oversample=oversample) if learned else FifoPolicy()
    pairs = make_accesses(rng, rng.randint(1, 200), n_inodes=rng.randint(1, 5),
                          pages_per_inode=rng.randint(1, 12))
    samples = []
    report = run_simulation(as_events(pairs), policy, capacity, latency_sink=samples)
    window = min(oversample, capacity + 1) if learned else 1
    assert report.candidate_counts == [window] * report.evictions
    # the histogram counts every request in a size fixed whatever the run's
    # length; the sink holds each request's exact wall time
    hist = report.latency_hist
    assert len(hist) == LATENCY_BUCKETS
    assert sum(hist) == len(samples) == report.evictions
    assert hist == [sum(1 for x in samples if x.bit_length() == b) for b in range(LATENCY_BUCKETS)]
    lat = report_to_dict(report, "policy", capacity)["latency_ns"]
    if samples:
        # each percentile names the top of the bucket holding that nearest-rank sample
        for q in (50, 90, 99):
            exact = sorted(samples)[math.ceil(q * len(samples) / 100) - 1]
            assert exact <= lat[f"p{q}"] < max(2 * exact, 1)
            assert lat[f"p{q}"].bit_length() == exact.bit_length()
        assert statistics.median_low(samples).bit_length() == lat["p50"].bit_length()
        assert lat["buckets"] == hist[:max(samples).bit_length() + 1]
    else:
        assert lat == {"p50": None, "p90": None, "p99": None, "buckets": [], "samples_path": None}


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        LearnedPolicy(zero_pack(), oversample=0)
    names = [f"f{i}" for i in range(10)]
    wide = build_pack([([], [0.0]) for _ in range(10)], names=names)
    with pytest.raises(ConfigurationError):
        LearnedPolicy(wide)
    # packs bind to the simulator's features by name, in order
    LearnedPolicy(zero_pack(3))
    for names in (FEATURE_NAMES[::-1], FEATURE_NAMES[1:4], ("page_delta1", "page_delta1")):
        mismatched = build_pack([([], [0.0]) for _ in names], names=list(names))
        with pytest.raises(ConfigurationError, match="features"):
            LearnedPolicy(mismatched)


def test_stale_page_is_evicted_before_recent_ones():
    # one active feature: the time since the page's last access. Recent
    # pages (gap < 25) score +10000, stale ones -10000.
    pack = build_pack(
        [([], [0.0])] * 8 + [([25], [1.0, -1.0])]
    )
    policy = LearnedPolicy(pack)
    cache = CacheState(3)
    seq = [(A, 10), (B, 20), (C, 30), (A, 40), (D, 50)]
    hits = drive(cache, seq, policy)
    assert hits == [False, False, False, True, False]
    # at t=50 the gaps are A:10 B:30 C:20 D:0, so B is the lone low scorer
    assert cache.resident_keys() == [A, C, D]

    fifo_cache = CacheState(3)
    drive(fifo_cache, seq, FifoPolicy())
    assert fifo_cache.resident_keys() == [B, C, D]  # baseline evicts by age


def test_conservation_of_pages():
    rng = random.Random(0)
    cache = CacheState(8)
    drive(cache, make_accesses(rng, 300, n_inodes=3, pages_per_inode=12), FifoPolicy())
    c = cache.report
    assert c.accesses == 300
    assert c.insertions == c.evictions + len(cache)
    assert c.hits == c.accesses - c.insertions
    assert len(cache) <= 8


def _long_stream(n_inodes, pages_per_inode):
    """3000 (inode, offset) draws: at capacity 5 to 40, enough insertions to
    compact the 256-slot order buffer many times."""
    pairs = make_accesses(random.Random(12), 3000, n_inodes, pages_per_inode)
    return [(k.inode - 10, k.offset) for k, _ in pairs]


@settings(deadline=None)
@given(
    pages=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 15)), max_size=300),
    capacity=st.integers(1, 40),
)
@example(pages=_long_stream(8, 40), capacity=5)
@example(pages=_long_stream(8, 10), capacity=40)
def test_fifo_matches_listwise_reference_on_any_stream(pages, capacity):
    pairs = [(PageKey(1, 10 + inode, off), t) for t, (inode, off) in enumerate(pages)]
    want_hits, want_batches, want_resident, want_ins, want_ev = ref_fifo_sim(pairs, capacity)

    cache = CacheState(capacity)
    sink = []
    cache.event_sink = sink
    assert drive(cache, pairs, FifoPolicy()) == want_hits
    assert cache.resident_keys() == want_resident
    assert [(ev.kind, ev.key) for ev in sink] == [
        (EventKind.EVICT, k) for batch in want_batches for k in batch
    ]
    assert counts(cache.report) == (len(pairs), want_ins, want_ev, len(pairs) - want_ins)
    assert cache.report.insertions == cache.report.evictions + len(cache)
    # FIFO reads no feature: its tracker only numbers pages, and sets no field
    tracker = cache.tracker
    assert tracker.inode_slot == {}
    assert tracker.page_keys == list(tracker.page_slot) == list(dict.fromkeys(k for k, _ in pairs))
    assert not tracker.tab.any()


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    learned=st.booleans(),
    capacity=st.integers(1, 64),
    oversample=st.integers(1, 8),
)
@example(seed=0, learned=True, capacity=8, oversample=5)
@example(seed=0, learned=False, capacity=8, oversample=1)
def test_the_replay_loop_serves_hits_as_access_does(seed, learned, capacity, oversample):
    # run_simulation counts hits in its own loop and sends only misses
    # through access: a replay of every event through access must agree
    rng = random.Random(seed)
    policy = LearnedPolicy(random_pack(rng), oversample=oversample) if learned else FifoPolicy()
    # a universe of 1 to 96 pages, so streams below and above capacity
    pairs = make_accesses(rng, rng.randint(1, 400), n_inodes=rng.randint(1, 8),
                          pages_per_inode=rng.randint(1, 12))
    made = []

    class Recorded(CacheState):
        def __init__(self, capacity):
            super().__init__(capacity)
            made.append(self)

    sink = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcache, "CacheState", Recorded)
        report = run_simulation(as_events(pairs), policy, capacity, event_sink=sink)
    (looped,) = made

    stepped = CacheState(capacity)
    stepped.event_sink = step_sink = []
    for key, t in pairs:
        access(stepped, key, t, policy)
    want = stepped.report
    assert counts(report) == counts(want)
    assert report.candidate_counts == want.candidate_counts
    assert sum(report.latency_hist) == sum(want.latency_hist) == len(want.candidate_counts)
    assert sink == step_sink
    assert looped.resident_keys() == stepped.resident_keys()
    # a learned hit updates its page's and file's features
    assert looped.tracker.page_keys == stepped.tracker.page_keys
    assert np.array_equal(looped.tracker.tab, stepped.tracker.tab)


def test_only_the_learned_policy_updates_the_tracker(monkeypatch):
    rng = random.Random(31)
    events = as_events(make_accesses(rng, 400, n_inodes=4, pages_per_inode=12))
    on_access = AccessTracker.on_access

    def refuse(self, key, t_ns):
        raise AssertionError("a FIFO cache updated the tracker")

    monkeypatch.setattr(AccessTracker, "on_access", refuse)
    fifo = run_simulation(events, FifoPolicy(), 8)
    assert fifo.hits > 0 and fifo.evictions > 0  # both paths ran

    calls = []

    def counting(self, key, t_ns):
        calls.append((key, t_ns))
        return on_access(self, key, t_ns)

    # patched on the class, as a tracer patches it: access must look the
    # method up at call time, not hold one bound at import
    monkeypatch.setattr(AccessTracker, "on_access", counting)
    run_simulation(events, LearnedPolicy(random_pack(rng)), 8)
    assert calls == [(ev.key, ev.t_ns) for ev in events]


@pytest.mark.parametrize("policy,width", [(FifoPolicy(), 320), (LearnedPolicy(zero_pack()), 640)],
                         ids=["fifo", "learned"])
def test_only_a_tracking_cache_grows_the_tracker_table(policy, width):
    # 400 distinct pages in 10 files, past the tracker's initial 320 columns:
    # FIFO only numbers them, while learned gives each page and file a column
    cache = CacheState(64)
    for t in range(400):
        access(cache, PageKey(1, 100 + t // 40, t % 40), t, policy)
    tracker = cache.tracker
    assert len(tracker.page_keys) == (410 if policy.tracks else 400)
    assert tracker.tab.shape == (6, width) and tracker.index.shape == (2, width)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32),
    weights=st.lists(st.sampled_from([0.0, 0.25, -1.5, 3.0]), min_size=1, max_size=9),
    capacity=st.integers(1, 32),
    oversample=st.integers(1, 8),
    ops=st.integers(1, 300),
)
@example(seed=0, weights=[0.0] * 9, capacity=1, oversample=8, ops=300)
# enough insertions to compact the order buffer many times
@example(seed=3, weights=[0.0] * 9, capacity=5, oversample=5, ops=3000)
def test_constant_pack_is_exactly_fifo(seed, weights, capacity, oversample, ops):
    # every feature has one bin, so all candidates tie and the stable sort
    # must keep FIFO's victims and FIFO's order of the survivors
    rng = random.Random(seed)
    pack = build_pack([([], [w]) for w in weights])
    pairs = make_accesses(rng, ops, n_inodes=rng.randint(1, 6),
                          pages_per_inode=rng.randint(1, 12), t_step_max=600_000_000)
    want_hits, want_batches, want_resident, want_ins, want_ev = ref_fifo_sim(pairs, capacity)
    sinks = []
    for policy in (FifoPolicy(), LearnedPolicy(pack, oversample=oversample)):
        cache = CacheState(capacity)
        cache.event_sink = sink = []
        assert drive(cache, pairs, policy) == want_hits
        assert cache.resident_keys() == want_resident
        assert counts(cache.report) == (len(pairs), want_ins, want_ev, len(pairs) - want_ins)
        assert [ev.key for ev in sink] == [k for batch in want_batches for k in batch]
        sinks.append([(ev.kind, ev.t_ns, ev.key) for ev in sink])
    assert sinks[0] == sinks[1]


@pytest.mark.parametrize("seed,oversample", [(s, o) for s in range(5) for o in (3, 40)])
def test_learned_policy_matches_listwise_reference(seed, oversample):
    # oversample 3 keeps candidate windows small (3 for a one-page request),
    # oversample 40 makes them wider than the cache. Even seeds draw from 120
    # pages for a 48-page cache, odd seeds from 40 pages for a 4-page cache;
    # steps of up to 2 s leave candidates idle for seconds, where their emas
    # must still count every access
    rng = random.Random(200 + seed)
    even = seed % 2 == 0
    pairs = make_accesses(rng, 400, n_inodes=4, pages_per_inode=30 if even else 10,
                          t_step_max=2_000_000_000)
    pack = random_pack(rng)
    capacity = 48 if even else 4
    want_hits, want_batches, want_resident = ref_learned_sim(
        pairs, capacity, pack, oversample=oversample
    )
    assert any(want_batches), "the reference never evicts, so no score is compared"

    cache = CacheState(capacity)
    sink = []
    cache.event_sink = sink
    hits = drive(cache, pairs, LearnedPolicy(pack, oversample=oversample))
    assert hits == want_hits
    assert cache.resident_keys() == want_resident
    evicted = [ev.key for ev in sink if ev.kind == EventKind.EVICT]
    assert evicted == [k for batch in want_batches for k in batch]


def _tie_pack(rng):
    """A pack whose every feature has 2-4 bins weighted from only 2-3
    distinct values, so many candidates tie."""
    pools = (
        lambda: rng.randint(0, 40),  # offsets, file sizes
        lambda: rng.randint(1, 12) * 1024,  # emas: scaled access counts
        lambda: rng.randint(0, 10**7),  # gaps of a few steps
        lambda: rng.randint(U64_MAX - 10**9, U64_MAX),  # MISSING's side
    )
    per_feature = []
    for _ in FEATURE_NAMES:
        values = rng.sample([-2.0, -0.5, 0.0, 1.0, 3.0], rng.randint(2, 3))
        pool, n_edges = rng.choice(pools), rng.randint(1, 3)
        edges: set[int] = set()
        while len(edges) < n_edges:
            edges.add(pool())
        per_feature.append((sorted(edges), [rng.choice(values) for _ in range(len(edges) + 1)]))
    return build_pack(per_feature)


@settings(deadline=None, max_examples=60)
@given(
    ties=st.booleans(),
    pack_seed=st.integers(0, 2**32),
    stream_seed=st.integers(0, 2**32),
    fill_oversample=st.integers(1, 8),
    n=st.integers(1, BATCH_MAX),
    oversample=st.integers(1, 200),
    capacity=st.integers(1, 64),
)
@example(ties=False, pack_seed=7, stream_seed=7, fill_oversample=5, n=2, oversample=4, capacity=64)
@example(ties=False, pack_seed=7, stream_seed=7, fill_oversample=5, n=8, oversample=4, capacity=64)
@example(ties=False, pack_seed=7, stream_seed=7, fill_oversample=5, n=1, oversample=200, capacity=64)
@example(ties=True, pack_seed=7, stream_seed=7, fill_oversample=5, n=32, oversample=32, capacity=64)
def test_one_request_evicts_the_lowest_scores_and_keeps_survivors_in_fifo_order(
    ties, pack_seed, stream_seed, fill_oversample, n, oversample, capacity
):
    # the cache fills under fill_oversample, as ref_learned_sim replays it,
    # and the request comes under oversample after the order buffer has
    # wrapped, so the window sits wherever compaction left the live span
    pack = (_tie_pack if ties else random_pack)(random.Random(pack_seed))
    fill = LearnedPolicy(pack, fill_oversample)
    cache = CacheState(capacity)
    rng = random.Random(stream_seed)
    pairs = []
    while cache.report.insertions <= len(cache.order):
        more = make_accesses(rng, 20, n_inodes=rng.randint(2, 6), pages_per_inode=40)
        t0 = pairs[-1][1] if pairs else 0
        more = [(k, t0 + t) for k, t in more]
        drive(cache, more, fill)
        pairs += more
    resident_before = cache.resident_keys()
    assert resident_before == ref_learned_sim(pairs, capacity, pack, fill_oversample)[2]
    t_now = cache.tracker.last_t + rng.randint(0, 10**7)

    window = min(oversample * n, len(resident_before))
    cands = resident_before[:window]
    scores = [int_score(pack, ref_features(pairs, k, t_now)) for k in cands]
    # the k lowest by (score, FIFO position), lowest first
    chosen = sorted(range(window), key=lambda i: (scores[i], i))[:min(n, window)]
    gone = set(chosen)
    victims = _evict(cache, n, LearnedPolicy(pack, oversample), t_now)
    assert victims == [cands[i] for i in chosen]
    assert cache.resident_keys() == (
        [c for i, c in enumerate(cands) if i not in gone] + resident_before[window:]
    )


def test_run_simulation_counts_and_rate():
    pairs = [(A, 1), (B, 2), (A, 3), (C, 4), (D, 5)]
    report = run_simulation(as_events(pairs), FifoPolicy(), 2)
    assert counts(report) == (5, 4, 2, 1)
    assert report.insertion_rate == 0.8
    assert sum(report.latency_hist) == 2
    assert report.candidate_counts == [1, 1]


def test_run_simulation_ignores_non_access_events_and_emits_its_own():
    events = [
        TraceEvent(EventKind.ACCESS, 1, A),
        TraceEvent(EventKind.INSERT, 1, D),  # replayed traces may carry these
        TraceEvent(EventKind.ACCESS, 2, B),
        TraceEvent(EventKind.EVICT, 2, A),
        TraceEvent(EventKind.ACCESS, 3, C),
    ]
    sink = []
    report = run_simulation(events, FifoPolicy(), 2, event_sink=sink)
    assert report.accesses == 3
    assert [(e.kind, e.key) for e in sink] == [(EventKind.EVICT, A)]


def test_run_simulation_rejects_unsorted_traces():
    events = [
        TraceEvent(EventKind.ACCESS, 10, A),
        TraceEvent(EventKind.ACCESS, 5, B),
    ]
    with pytest.raises(ValueError):
        run_simulation(events, FifoPolicy(), 4)


def test_empty_trace_reports_nan_rate():
    report = run_simulation([], FifoPolicy(), 4)
    assert report.accesses == 0
    assert math.isnan(report.insertion_rate)
    obj = report_to_dict(report, "fifo", 4)
    assert obj["insertion_rate"] is None
    assert obj["latency_ns"]["p50"] is None
    assert obj["latency_ns"]["buckets"] == []


def test_report_dict_shape():
    rng = random.Random(1)
    pairs = make_accesses(rng, 200, n_inodes=3, pages_per_inode=10)
    for name, policy in (("fifo", FifoPolicy()), ("learned", LearnedPolicy(random_pack(rng), 3))):
        report = run_simulation(as_events(pairs), policy, 4)
        obj = report_to_dict(report, name, 4, samples_path="lat.csv")
        assert list(obj) == [
            "policy",
            "capacity",
            "accesses",
            "insertions",
            "evictions",
            "hits",
            "insertion_rate",
            "eviction_requests",
            "candidates",
            "latency_ns",
        ]
        # the record holds only what the run produced; the caller names the run
        assert (obj["policy"], obj["capacity"]) == (name, 4)
        assert tuple(obj[k] for k in ("accesses", "insertions", "evictions", "hits")) == counts(report)
        assert obj["eviction_requests"] == len(report.candidate_counts) == report.evictions
        assert obj["candidates"] == sum(report.candidate_counts) == policy.oversample * report.evictions
        lat = obj["latency_ns"]
        assert list(lat) == ["p50", "p90", "p99", "buckets", "samples_path"]
        assert lat["samples_path"] == "lat.csv"
        assert lat["p50"] > 0
        assert lat["p50"] <= lat["p90"] <= lat["p99"] < 2 ** len(lat["buckets"])
        assert sum(lat["buckets"]) == obj["eviction_requests"]
        assert lat["buckets"][-1] > 0


def test_identical_runs_produce_identical_counters():
    rng = random.Random(4)
    pairs = make_accesses(rng, 300, n_inodes=4, pages_per_inode=10)
    pack = random_pack(rng)
    r1 = run_simulation(as_events(pairs), LearnedPolicy(pack), 8)
    r2 = run_simulation(as_events(pairs), LearnedPolicy(pack), 8)
    assert counts(r1) == counts(r2)


def test_ring_buffer_survives_many_wraparounds():
    # capacity small relative to traffic so the order buffer compacts often
    rng = random.Random(12)
    pairs = make_accesses(rng, 3000, n_inodes=8, pages_per_inode=40)
    want_hits, _, want_resident, _, _ = ref_fifo_sim(pairs, 5)
    cache = CacheState(5)
    hits = drive(cache, pairs, FifoPolicy())
    assert hits == want_hits
    assert cache.resident_keys() == want_resident


@pytest.mark.parametrize("capacity", [5, 96, 200])
def test_order_buffer_never_grows(capacity):
    # every miss evicts back to capacity, so the live span always fits in the
    # buffer's first half and an append at its end only compacts
    rng = random.Random(capacity)
    pairs = make_accesses(rng, 3000, n_inodes=8, pages_per_inode=60)
    pack = random_pack(rng)
    for policy in (FifoPolicy(), LearnedPolicy(pack)):
        cache = CacheState(capacity)
        size = len(cache.order)
        drive(cache, pairs, policy)
        assert len(cache.order) == size
        assert cache.resident_keys() == list(cache.residency)

    # batch-sized requests with refills, as the latency benchmark issues them
    cache = CacheState(capacity)
    size = len(cache.order)
    policy = LearnedPolicy(pack)
    t = 0
    for i in range(40 * max(capacity, BATCH_MAX)):
        t += 1_000
        access(cache, PageKey(2, i // 16, i % 16), t, policy)
        if len(cache) == capacity:
            _evict(cache, BATCH_MAX, policy, t)
    assert len(cache.order) == size
    assert cache.resident_keys() == list(cache.residency)


def test_latency_benchmark_reports_both_distributions():
    rng = random.Random(3)
    pack = random_pack(rng)
    bench = benchmark_eviction_latency(pack, capacity=64, batch=8, oversample=2, rounds=5)
    assert bench["window"] == 16
    assert bench["rounds"] == 5
    for side in ("fifo", "learned"):
        dist = bench[side]
        assert len(dist["samples"]) == 5
        assert dist["p50"] > 0
        assert dist["mean"] > 0
        assert dist["p50"] <= dist["p99"]


@pytest.mark.parametrize("rounds", [1, 2, 9])
def test_latency_benchmark_returns_one_sample_per_round(rounds):
    bench = benchmark_eviction_latency(zero_pack(), capacity=40, batch=4, oversample=3, rounds=rounds)
    assert bench["window"] == 12
    assert len(bench["fifo"]["samples"]) == len(bench["learned"]["samples"]) == rounds
    with pytest.raises(ConfigurationError):
        benchmark_eviction_latency(zero_pack(), capacity=40, batch=4, rounds=0)


def test_latency_benchmark_rejects_capacity_below_batch():
    with pytest.raises(ConfigurationError):
        benchmark_eviction_latency(zero_pack(), capacity=4, batch=8)
