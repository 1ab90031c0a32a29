"""Trace-driven cache simulation: FIFO baseline and learned tail reranking.

The cache keeps residency as a membership index plus a FIFO order buffer
(oldest at the tail, newest at the head). An overflowing insert issues an
eviction request of n = 1 page. FIFO pops the oldest n pages; the learned
policy rescopes the request to the oldest oversample * n resident pages,
scores the whole window at once with PreparedScorer.score_window, and
evicts the lowest-scoring n (predicted to be reused last), ties broken
toward older pages, survivors keeping their relative order. A request of
one page, as every simulated one is, takes the window's argmin, whose
first minimum is the oldest, and shifts the older survivors up one slot;
a request of n >= 2 ranks the window with one stable argsort and writes
it back, victims first. Simulation and the latency benchmark issue every
eviction request through one dispatch, _evict, which picks the victims,
pops them and records the request's candidate window in the cache's
SimReport. Only a timed cache (CacheState.timed) also reads the clock
around each request and counts its wall time in a fixed-size log-bucketed
histogram of that report: simulate's report and the latency benchmark ask
for times, while paired-eval, train's label run and every other
run_simulation call leave the clock unread. A caller that wants the raw
wall times passes a latency_sink list, which turns timing on; the
benchmark sets one on each timed cache, so it times exactly the path
simulations take. Only a policy that reads features (learned) has the
cache update the feature tracker on every access; FIFO, like a kernel
running no feature hooks, pays for none.

A cache holds the one policy it serves: access binds it at the first
access and refuses any other, and _evict reads it. run_simulation binds
its fresh cache to the policy, then serves a hit in its own loop: it
counts the hit and, for a tracking policy, calls the tracker's on_access,
with no call into access. Only misses go through access, which inserts
the page, writes its slot into the order buffer and evicts on overflow.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, cycle
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .features import AccessTracker
from .modelpack import ModelPack, PreparedScorer
from .trace import EventKind, PageKey, TraceEvent, _new_tuple

BATCH_MAX = 32
DEFAULT_OVERSAMPLE = 5
# a request of t ns counts in bucket t.bit_length() of SimReport.latency_hist:
# bucket 0 holds 0 ns and bucket b the range [2**(b-1), 2**b - 1], so 65
# buckets hold any u64 wall time
LATENCY_BUCKETS = 65


@dataclass(frozen=True)
class FifoPolicy:
    # FIFO considers exactly the pages it evicts
    oversample: ClassVar[int] = 1
    # and reads no feature, so its cache updates none (see access)
    tracks: ClassVar[bool] = False


@dataclass
class LearnedPolicy:
    tracks: ClassVar[bool] = True
    pack: ModelPack
    oversample: int = DEFAULT_OVERSAMPLE

    def __post_init__(self) -> None:
        if self.oversample < 1:
            raise ConfigurationError("oversample must be >= 1")
        # refuses a pack whose features are not the simulator's
        self._scorer = PreparedScorer(self.pack)


Policy = FifoPolicy | LearnedPolicy


class AccessResult(Enum):
    HIT = "hit"
    MISS_INSERTED = "miss_inserted"


# bound once: reading an Enum member costs about ten times a module global
_HIT, _MISS_INSERTED = AccessResult.HIT, AccessResult.MISS_INSERTED
_ACCESS, _EVICT = EventKind.ACCESS, EventKind.EVICT


@dataclass
class SimReport:
    """One run's record, which the cache counts into as it runs.

    Every access is either a hit or an insertion. Each eviction request
    appends its candidate window size to candidate_counts. A timed run also
    counts each request's wall time in latency_hist, LATENCY_BUCKETS log2
    buckets whose size does not grow with the run; an untimed run leaves
    them all zero. The wall times differ between runs, so compare two runs
    by their counts.
    """

    insertions: int = 0
    evictions: int = 0
    hits: int = 0
    latency_hist: list[int] = field(repr=False, default_factory=lambda: [0] * LATENCY_BUCKETS)
    candidate_counts: list[int] = field(repr=False, default_factory=list)

    @property
    def accesses(self) -> int:
        return self.hits + self.insertions

    @property
    def insertion_rate(self) -> float:  # nan when the trace had no accesses
        return self.insertions / self.accesses if self.accesses else float("nan")


class CacheState:
    """Residency index + FIFO order buffer + feature tracker + run record.

    The order buffer holds tracker page slots; the live span is
    order[tail:head], oldest first. Evictions only ever remove entries at or
    near the tail, so the live span never contains dead entries. The buffer
    holds at least twice the capacity and never grows: every miss evicts
    back to capacity, so when an append reaches the end of the buffer the
    live span fits in its first half and is compacted there. access
    appends through order_view, a memoryview of order.

    A cache serves one policy for its lifetime: policy holds it, from the
    first access (None before it), and _evict reads it. access refuses
    every call, a hit as well as a miss, under a policy not equal to it.
    Only a tracking (learned) policy updates the tracker's features; a FIFO
    cache's tracker holds page slots with no features and no file columns,
    and is there only to number the pages the order buffer holds. The cache
    counts every access and eviction request into report, the SimReport
    that run_simulation returns. When timed is set, _evict also counts each
    request's wall time into report.latency_hist and appends it to
    latency_sink when one is set; a cache is untimed unless its caller sets
    timed, and an untimed cache reads no clock.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.capacity = capacity
        self.residency: dict[PageKey, None] = {}
        try:
            self.order = np.empty(max(256, 2 * capacity), dtype=np.int64)
        except (MemoryError, ValueError):  # ValueError: above numpy's size limit
            raise ConfigurationError(
                f"capacity {capacity} is too large: its order buffer cannot be allocated"
            ) from None
        # a memoryview item store skips numpy's scalar conversion
        self.order_view = memoryview(self.order)
        self.tail = 0
        self.head = 0
        self.tracker = AccessTracker()
        self.policy: Policy | None = None
        self.report = SimReport()
        self.event_sink: list[TraceEvent] | None = None
        self.latency_sink: list[int] | None = None
        self.timed = False

    def __len__(self) -> int:
        return len(self.residency)

    def resident_keys(self) -> list[PageKey]:
        """Resident pages in FIFO order, oldest first."""
        keys = self.tracker.page_keys
        return [keys[s] for s in self.order[self.tail:self.head].tolist()]


def _serve(cache: CacheState, policy: Policy) -> None:
    """Bind a cache that serves no policy yet to policy; refuse one not equal
    to the cache's, so an equal copy serves it but no other scorer does."""
    if cache.policy is None:
        cache.policy = policy
    elif policy != cache.policy:
        raise ConfigurationError(
            "the cache was filled under another policy; a cache serves one policy for its lifetime"
        )


def _evict(cache: CacheState, n: int, t_now_ns: int) -> list[PageKey]:
    """One eviction request of n pages, under the policy the cache holds.

    Picks the victims among the oldest min(oversample * n, resident) pages,
    pops them, and records that window in the cache's report. When the
    cache is timed (cache.timed, read once per request), it also times the
    request from after the policy read to after the residency deletes and
    records that wall time in the report and the latency_sink. When the
    request comes to one page, the learned victim is the window's argmin,
    moved to the tail by a one-slot shift of the pages older than it, and
    both policies read it with one item read of order_view; a request of
    two or more pages ranks the window with a stable argsort, sorts the
    survivors back into FIFO order and writes the window back. Its callers
    bound n to [1, BATCH_MAX] and have bound the cache's policy through
    access, so it checks neither.
    """
    policy = cache.policy
    timed = cache.timed
    if timed:
        t0 = time.perf_counter_ns()
    tail = cache.tail
    live = cache.head - tail
    # comparisons, not min(): one builtin min call costs about 0.2 µs (CPython 3.11)
    k = n if n < live else live
    window = policy.oversample * n
    if window > live:
        window = live
    order = cache.order
    keys = cache.tracker.page_keys
    if k == 1:  # every simulated request: no ranking, one victim
        view = cache.order_view
        if policy.tracks:
            scores = policy._scorer.score_window(cache.tracker, order[tail:tail + window], t_now_ns)
            # the first minimum is the oldest lowest score
            j = int(scores.argmin())
            if j:  # the j older survivors move up one slot, keeping FIFO order
                victim = view[tail + j]
                # an overlapping memoryview slice store copies as memmove does
                view[tail + 1:tail + j + 1] = view[tail:tail + j]
                view[tail] = victim
        victims = [keys[view[tail]]]
    else:
        if policy.tracks:  # the learned policy: score the window
            wslots = order[tail:tail + window]
            scores = policy._scorer.score_window(cache.tracker, wslots, t_now_ns)
            # lowest score first, FIFO position (oldest) breaking ties; the
            # survivors keep FIFO order: sort the kept positions
            ranked = scores.argsort(kind="stable")
            ranked[k:].sort()
            # victims first, then the survivors, written back over the window
            order[tail:tail + window] = wslots[ranked]
        victims = [keys[s] for s in order[tail:tail + k].tolist()]
    cache.tail = tail + k
    residency = cache.residency
    for key in victims:
        del residency[key]
    if timed:  # the span ends here, after the residency deletes
        wall_ns = time.perf_counter_ns() - t0
        cache.report.latency_hist[wall_ns.bit_length()] += 1
        if cache.latency_sink is not None:
            cache.latency_sink.append(wall_ns)
    report = cache.report
    report.candidate_counts.append(window)
    report.evictions += k
    if cache.event_sink is not None:
        append = cache.event_sink.append
        for key in victims:
            append(_new_tuple(TraceEvent, (_EVICT, t_now_ns, key)))
    return victims


def access(cache: CacheState, key: PageKey, t_ns: int, policy: Policy) -> AccessResult:
    """Count a hit, or insert on miss and evict one page on overflow.

    The cache's first access binds it to policy for its whole lifetime; a
    later access under a policy not equal to that one, hit or miss, is
    refused (ConfigurationError) before it touches the report or the
    tracker. A policy that tracks (learned) updates the page's and its
    file's features on every access. FIFO reads no feature: a FIFO hit
    touches no tracker state, and a FIFO miss only numbers the page's slot
    (page_column), which the order buffer holds.
    """
    if policy is not cache.policy:  # the first access, a copy or a refused policy
        _serve(cache, policy)
    tracks = policy.tracks
    if key in cache.residency:
        if tracks:
            cache.tracker.on_access(key, t_ns)
        cache.report.hits += 1
        return _HIT

    if tracks:
        slot = cache.tracker.on_access(key, t_ns)
    else:
        slot = cache.tracker.page_column(key)
    cache.residency[key] = None
    head = cache.head
    view = cache.order_view
    if head == len(view):  # the buffer's end: compact the live span to its start
        order, tail = cache.order, cache.tail
        head -= tail
        order[:head] = order[tail:tail + head]
        cache.tail = 0
    view[head] = slot
    cache.head = head + 1
    cache.report.insertions += 1
    # every miss evicts back to capacity, so an insert overflows by one page
    if len(cache.residency) > cache.capacity:
        _evict(cache, 1, t_ns)
    return _MISS_INSERTED


def run_simulation(
    events: Iterable[TraceEvent],
    policy: Policy,
    capacity: int,
    event_sink: list[TraceEvent] | None = None,
    latency_sink: list[int] | None = None,
    timed: bool = False,
) -> SimReport:
    """Replay the Access events of a sorted trace through the cache.

    events may be any iterable, such as trace.iter_trace's stream, and is
    read once. Insert/Evict events in the input are ignored. When event_sink
    is given, the simulator appends one Evict event to it per evicted page,
    in eviction order. A run is untimed and reads no clock, leaving the
    report's latency_hist all zero, unless timed is set or latency_sink is
    given; a timed run counts each eviction request's wall time in ns in
    latency_hist and appends it to latency_sink when given. The fresh cache
    holds policy from the start, so its hits need no policy check. Both
    policies are deterministic.
    """
    cache = CacheState(capacity)
    cache.event_sink = event_sink
    cache.latency_sink = latency_sink
    cache.timed = timed or latency_sink is not None
    _serve(cache, policy)
    # bound here, not at import, so a method patched on the class is the one called
    residency = cache.residency
    on_access = cache.tracker.on_access if policy.tracks else None
    hits = 0
    prev_t = 0
    for kind, t_ns, key in events:
        if t_ns < prev_t:
            raise ValueError("trace events must be sorted by t_ns")
        prev_t = t_ns
        if kind != _ACCESS:
            continue
        if key in residency:  # a hit, counted here as access counts it
            if on_access is not None:
                on_access(key, t_ns)
            hits += 1
        else:
            access(cache, key, t_ns, policy)
    cache.report.hits += hits
    return cache.report


def _latency_summary(samples: Sequence[int]) -> dict:
    """p50, p90, p99 and mean of one or more exact latency samples in ns."""
    arr = np.asarray(samples, dtype=np.float64)
    p50, p90, p99 = np.percentile(arr, [50, 90, 99]).tolist()
    return {"p50": p50, "p90": p90, "p99": p99, "mean": float(arr.mean())}


def _hist_summary(hist: list[int]) -> dict:
    """p50, p90 and p99 of a latency histogram, and its buckets up to the
    last non-empty one. Each percentile is the top of the bucket holding
    that nearest-rank sample: never below it and less than twice it. None
    when there are no samples."""
    cum = list(accumulate(hist))
    n = cum[-1]
    if not n:
        return {"p50": None, "p90": None, "p99": None, "buckets": []}
    # the bucket of the sample of rank ceil(q * n / 100)
    tops = {f"p{q}": (1 << bisect_left(cum, -(-q * n // 100))) - 1 for q in (50, 90, 99)}
    return {**tops, "buckets": hist[:bisect_left(cum, n) + 1]}


def report_to_dict(
    report: SimReport, policy: str, capacity: int, samples_path: str | None = None
) -> dict:
    """The simulate report: the run's counts under the policy and capacity it ran."""
    rate = report.insertion_rate
    return {
        "policy": policy,
        "capacity": capacity,
        "accesses": report.accesses,
        "insertions": report.insertions,
        "evictions": report.evictions,
        "hits": report.hits,
        "insertion_rate": None if rate != rate else rate,
        "eviction_requests": len(report.candidate_counts),
        "candidates": sum(report.candidate_counts),
        "latency_ns": {**_hist_summary(report.latency_hist), "samples_path": samples_path},
    }


def benchmark_eviction_latency(
    pack: ModelPack,
    capacity: int = 4096,
    batch: int = BATCH_MAX,
    oversample: int = DEFAULT_OVERSAMPLE,
    rounds: int = 500,
) -> dict:
    """Time full eviction requests for FIFO and the learned policy.

    Both caches are driven through identical rounds: a refill to capacity,
    then one eviction request of `batch` pages. Returns both latency
    distributions in ns, from the exact samples _evict appended to each
    timed cache's latency_sink, and the learned policy's candidate window.
    """
    if not 1 <= batch <= BATCH_MAX:
        raise ConfigurationError(f"batch must be in [1, {BATCH_MAX}]")
    if capacity < batch:
        raise ConfigurationError("capacity must be >= batch")
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    caches: dict[str, CacheState] = {}
    for name, policy in (("fifo", FifoPolicy()), ("learned", LearnedPolicy(pack, oversample))):
        cache = caches[name] = CacheState(capacity)
        cache.latency_sink = []
        cache.timed = True
        keys = cycle(range(2 * capacity))
        t = 1_000_000
        for _ in range(rounds):
            while len(cache) < capacity:
                i = next(keys)
                t += 1_000
                access(cache, PageKey(1, 100 + i // 64, i % 64), t, policy)
            t += 1_000
            _evict(cache, batch, t)

    def summary(cache: CacheState) -> dict:
        samples = cache.latency_sink
        return {**_latency_summary(samples), "samples": samples}

    return {
        "batch": batch,
        "oversample": oversample,
        "window": caches["learned"].report.candidate_counts[0],
        "capacity": capacity,
        "rounds": rounds,
        "fifo": summary(caches["fifo"]),
        "learned": summary(caches["learned"]),
    }
