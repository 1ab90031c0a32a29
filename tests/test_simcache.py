"""Cache simulation: FIFO baseline, learned tail rerank, reporting."""

import math
import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learnedcache.errors import ConfigurationError
from learnedcache.features import FEATURE_NAMES, AccessTracker
from learnedcache.modelpack import int_score
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

from packbuild import build_pack, make_accesses, random_pack, zero_pack
from reference_impls import ref_features, ref_fifo_sim, ref_learned_sim

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
    # a FIFO cache's page columns hold no features and name column 0 as
    # their file, so a learned request would score another page's cells
    policies = {"fifo": FifoPolicy(), "learned": LearnedPolicy(random_pack(random.Random(5)))}
    cache = CacheState(4)
    for i in range(4):
        access(cache, PageKey(1, 1, i), i, policies[fill])
    assert cache.tracks is policies[fill].tracks
    with pytest.raises(ConfigurationError, match="one policy for its lifetime"):
        _evict(cache, 1, policies[evict], 4)
    # the miss that overflows the cache issues the same request
    with pytest.raises(ConfigurationError, match="one policy for its lifetime"):
        access(cache, PageKey(1, 1, 4), 5, policies[evict])
    assert cache.report.candidate_counts == [] and cache.report.evictions == 0
    # the policy the cache was filled under still evicts
    assert len(_evict(cache, 1, policies[fill], 5)) == 1
    assert cache.report.candidate_counts == [policies[fill].oversample]


@settings(deadline=None, max_examples=60)
@given(
    rng=st.randoms(use_true_random=False),
    learned=st.booleans(),
    capacity=st.integers(1, 24),
    oversample=st.integers(1, 40),
)
def test_every_request_records_one_latency_and_its_window(rng, learned, capacity, oversample):
    # a miss overflows the cache by one page, so each request evicts one page
    # from capacity + 1 residents and scores min(oversample, capacity + 1)
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


@pytest.mark.parametrize("seed", range(10))
def test_fifo_matches_listwise_reference(seed):
    rng = random.Random(seed)
    pairs = make_accesses(rng, 500, n_inodes=4, pages_per_inode=10)
    capacity = rng.choice([2, 5, 16])
    want_hits, want_batches, want_resident, want_ins, want_ev = ref_fifo_sim(pairs, capacity)

    cache = CacheState(capacity)
    sink = []
    cache.event_sink = sink
    hits = drive(cache, pairs, FifoPolicy())
    assert hits == want_hits
    assert cache.resident_keys() == want_resident
    assert cache.report.insertions == want_ins
    assert cache.report.evictions == want_ev
    evicted = [ev.key for ev in sink if ev.kind == EventKind.EVICT]
    assert evicted == [k for batch in want_batches for k in batch]


@settings(deadline=None)
@given(
    pages=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 15)), max_size=300),
    capacity=st.integers(1, 40),
)
def test_fifo_matches_listwise_reference_on_any_stream(pages, capacity):
    pairs = [(PageKey(1, 10 + inode, off), t) for t, (inode, off) in enumerate(pages)]
    want_hits, want_batches, want_resident, _, _ = ref_fifo_sim(pairs, capacity)

    cache = CacheState(capacity)
    sink = []
    cache.event_sink = sink
    assert drive(cache, pairs, FifoPolicy()) == want_hits
    assert cache.resident_keys() == want_resident
    assert [(ev.kind, ev.key) for ev in sink] == [
        (EventKind.EVICT, k) for batch in want_batches for k in batch
    ]
    # FIFO reads no feature: its tracker only numbers pages, and sets no field
    tracker = cache.tracker
    assert tracker.inode_slot == {}
    assert tracker.page_keys == list(tracker.page_slot) == list(dict.fromkeys(k for k, _ in pairs))
    assert not tracker.tab.any()


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


@pytest.mark.parametrize("seed", range(10))
def test_all_zero_model_reproduces_fifo_exactly(seed):
    rng = random.Random(100 + seed)
    pairs = make_accesses(rng, 500, n_inodes=4, pages_per_inode=10)
    capacity = rng.choice([2, 5, 16])

    fifo_cache = CacheState(capacity)
    fifo_sink = []
    fifo_cache.event_sink = fifo_sink
    fifo_hits = drive(fifo_cache, pairs, FifoPolicy())

    zero_cache = CacheState(capacity)
    zero_sink = []
    zero_cache.event_sink = zero_sink
    zero_hits = drive(zero_cache, pairs, LearnedPolicy(zero_pack()))

    assert zero_hits == fifo_hits
    assert zero_cache.resident_keys() == fifo_cache.resident_keys()
    assert [(e.kind, e.t_ns, e.key) for e in zero_sink] == [
        (e.kind, e.t_ns, e.key) for e in fifo_sink
    ]


@settings(deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    weights=st.lists(st.sampled_from([0.0, 0.25, -1.5, 3.0]), min_size=1, max_size=9),
    capacity=st.integers(1, 32),
    oversample=st.integers(1, 8),
)
@example(rng=random.Random(0), weights=[0.0] * 9, capacity=1, oversample=8)
def test_constant_pack_is_exactly_fifo(rng, weights, capacity, oversample):
    # every feature has one bin, so all candidates tie and the stable sort
    # must keep FIFO's victims and FIFO's order of the survivors
    pack = build_pack([([], [w]) for w in weights])
    pairs = make_accesses(rng, rng.randint(1, 300), n_inodes=rng.randint(1, 6),
                          pages_per_inode=rng.randint(1, 12), t_step_max=600_000_000)
    fifo_cache, learned_cache = CacheState(capacity), CacheState(capacity)
    assert drive(learned_cache, pairs, LearnedPolicy(pack, oversample=oversample)) == drive(
        fifo_cache, pairs, FifoPolicy()
    )
    assert learned_cache.resident_keys() == fifo_cache.resident_keys()
    assert counts(learned_cache.report) == counts(fifo_cache.report)


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


@pytest.mark.parametrize("n,oversample", [(2, 4), (8, 4), (1, 200), (32, 32)])
def test_batch_eviction_takes_the_lowest_scores_in_order(n, oversample):
    rng = random.Random(7)
    pack = random_pack(rng)
    cache = CacheState(500)
    policy = LearnedPolicy(pack, oversample)
    pairs = make_accesses(rng, 300, n_inodes=5, pages_per_inode=30)
    drive(cache, pairs, policy)  # 150 pages at most: nothing is evicted
    resident_before = cache.resident_keys()
    t_now = cache.tracker.last_t

    window = min(oversample * n, len(resident_before))
    cands = resident_before[:window]
    scores = [int_score(pack, ref_features(pairs, k, t_now)) for k in cands]
    order = sorted(range(window), key=lambda i: (scores[i], i))
    victim_idx = order[: min(n, window)]
    expect_victims = [cands[i] for i in victim_idx]
    gone = set(victim_idx)
    expect_resident = [c for i, c in enumerate(cands) if i not in gone] + resident_before[window:]

    victims = _evict(cache, n, policy, t_now)
    assert victims == expect_victims
    assert cache.resident_keys() == expect_resident


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
