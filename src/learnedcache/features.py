"""Per-page and per-inode access statistics and the eviction feature vector.

All nine features are unsigned 64-bit integers. Timestamp slots that were
never populated read as MISSING (2**64 - 1), and any delta involving such a
slot is MISSING as well. Recency scores are fixed-point EMAs: each access
adds EMA_SCALE, and the score halves for every whole half-life elapsed since
the last update (lazy decay via a right shift).

Tracker state lives in flat uint64 tables with one column per page (or per
inode) and one row per field (six each), so an eviction window of candidates
can be scored by gathering whole field rows with array operations. Both
tables number their fields alike (offset, delta1, delta2, ema, last, then the
page's inode slot or the file's size), so a window's page and inode gathers
sit side by side and each time-dependent feature comes from one contiguous
row. The per-access update and extract_features read and write single cells
through cached memoryviews of the field rows: one cell through a 1-D
memoryview costs a small fraction of a numpy scalar index or a column
tolist().
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

import numpy as np

from .trace import EventKind, PageKey, TraceEvent

MISSING = 2**64 - 1
EMA_SCALE = 1024
HALF_LIFE_NS = 1_000_000_000

FEATURE_NAMES = (
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

N_FEATURES = len(FEATURE_NAMES)

# page table field rows (AccessTracker unpacks its row views in this order)
P_OFF, P_D1, P_D2, P_EMA, P_LAST, P_INODE = range(6)
# inode table field rows (likewise), numbered like the page fields they pair with
I_LAST_OFF, I_D1, I_D2, I_EMA, I_LAST, I_SIZE = range(6)


class FeatureVector(NamedTuple):
    page_delta1: int
    page_delta2: int
    inode_delta1: int
    inode_delta2: int
    offset_distance: int
    file_size: int
    page_ema: int
    inode_ema: int
    access_to_eviction: int


def _rows(tab: np.ndarray) -> tuple[memoryview, ...]:
    """One memoryview per field row of tab, in field order."""
    return tuple(memoryview(row) for row in tab)


def _grown(tab: np.ndarray) -> np.ndarray:
    """tab copied into a table with twice the columns."""
    new = np.zeros((tab.shape[0], 2 * tab.shape[1]), dtype=np.uint64)
    new[:, : tab.shape[1]] = tab
    return new


class AccessTracker:
    """Observes a time-ordered access stream and answers feature queries.

    Per-page columns hold (offset, delta1, delta2, ema, last, inode_slot);
    per-inode columns hold (last_offset, delta1, delta2, ema, last,
    file_size) in the same rows. An ema score was last updated at the
    column's last access, so `last` is also the start of its lazy decay. The
    deltas are maintained incrementally: on each access the previous delta1
    becomes delta2 and the new delta1 is the gap to the previous access
    (MISSING when there is no previous access), which is exactly the
    last/second_last/third_last timestamp formulation.

    page_tab and inode_tab are the field-major tables that eviction scoring
    gathers from. _prows and _irows hold a memoryview of each of their field
    rows; on_access and extract_features read and write single cells through
    them. Growing a table replaces its row views too.
    """

    def __init__(self) -> None:
        self.page_slot: dict[PageKey, int] = {}
        self.inode_slot: dict[tuple[int, int], int] = {}
        self.page_keys: list[PageKey] = []
        self.page_tab = np.zeros((6, 256), dtype=np.uint64)
        self.inode_tab = np.zeros((6, 64), dtype=np.uint64)
        self._prows = _rows(self.page_tab)
        self._irows = _rows(self.inode_tab)
        self.last_t = 0

    def on_access(self, key: PageKey, t_ns: int) -> int:
        """Update page and inode state; returns the page's column slot."""
        if t_ns < self.last_t:
            raise ValueError(f"access at t={t_ns} precedes tracker time {self.last_t}")
        self.last_t = t_ns
        off = key.offset

        ikey = (key.dev, key.inode)
        islot = self.inode_slot.get(ikey)
        if islot is None:
            islot = len(self.inode_slot)
            self.inode_slot[ikey] = islot
            if islot == self.inode_tab.shape[1]:
                self.inode_tab = _grown(self.inode_tab)
                self._irows = _rows(self.inode_tab)
            last_off, d1, d2, ema, last, size = self._irows
            d1[islot] = d2[islot] = MISSING
            ema[islot] = EMA_SCALE
            last[islot] = t_ns
            last_off[islot] = off
            size[islot] = off + 1
        else:
            last_off, d1, d2, ema, last, size = self._irows
            gap = t_ns - last[islot]
            d2[islot] = d1[islot]
            d1[islot] = gap
            ema[islot] = (ema[islot] >> (gap // HALF_LIFE_NS)) + EMA_SCALE
            last[islot] = t_ns
            last_off[islot] = off
            if off >= size[islot]:
                size[islot] = off + 1

        slot = self.page_slot.get(key)
        if slot is None:
            slot = len(self.page_slot)
            self.page_slot[key] = slot
            self.page_keys.append(key)
            if slot == self.page_tab.shape[1]:
                self.page_tab = _grown(self.page_tab)
                self._prows = _rows(self.page_tab)
            poff, d1, d2, ema, last, inode = self._prows
            poff[slot] = off
            d1[slot] = d2[slot] = MISSING
            ema[slot] = EMA_SCALE
            last[slot] = t_ns
            inode[slot] = islot
        else:
            _, d1, d2, ema, last, _ = self._prows
            gap = t_ns - last[slot]
            d2[slot] = d1[slot]
            d1[slot] = gap
            ema[slot] = (ema[slot] >> (gap // HALF_LIFE_NS)) + EMA_SCALE
            last[slot] = t_ns
        return slot

    def extract_features(self, key: PageKey, t_now: int) -> FeatureVector:
        """Feature vector for key as of t_now (>= the tracker's latest event).

        Never-seen keys get MISSING deltas and access gap, zero EMAs, zero
        offset distance and file size.
        """
        if t_now < self.last_t:
            raise ValueError(f"t_now={t_now} precedes tracker time {self.last_t}")

        slot = self.page_slot.get(key)
        if slot is None:
            f0 = f1 = f8 = MISSING
            f6 = 0
        else:
            _, d1, d2, ema, last, _ = self._prows
            f0, f1 = d1[slot], d2[slot]
            f8 = t_now - last[slot]
            f6 = ema[slot] >> (f8 // HALF_LIFE_NS)

        islot = self.inode_slot.get((key.dev, key.inode))
        if islot is None:
            f2 = f3 = MISSING
            f4 = f5 = f7 = 0
        else:
            last_off, d1, d2, ema, last, size = self._irows
            f2, f3 = d1[islot], d2[islot]
            f4 = abs(key.offset - last_off[islot])
            f5 = size[islot]
            f7 = ema[islot] >> ((t_now - last[islot]) // HALF_LIFE_NS)

        return FeatureVector(f0, f1, f2, f3, f4, f5, f6, f7, f8)


class DatasetRow(NamedTuple):
    features: FeatureVector
    eviction_t_ns: int
    reuse_time_ns: int
    key: PageKey


def build_dataset(
    access_events: Iterable[TraceEvent], eviction_events: Iterable[TraceEvent]
) -> list[DatasetRow]:
    """Label each eviction with the time until the page's next access.

    For an eviction of page p at time e, the features are those extracted at
    p's latest access a <= e with access_to_eviction replaced by e - a, and
    reuse_time_ns is (first access of p after e) - e, or MISSING if p is never
    touched again. Evictions of never-accessed pages are dropped.
    """
    accesses = [ev for ev in access_events if ev.kind == EventKind.ACCESS]
    evictions = [ev for ev in eviction_events if ev.kind == EventKind.EVICT]
    for seq, label in ((accesses, "access"), (evictions, "eviction")):
        for prev, cur in zip(seq, seq[1:]):
            if cur.t_ns < prev.t_ns:
                raise ValueError(f"{label} events must be sorted by t_ns")

    times_by_key: dict[PageKey, list[int]] = {}
    for ev in accesses:
        times_by_key.setdefault(ev.key, []).append(ev.t_ns)

    tracker = AccessTracker()
    latest: dict[PageKey, tuple[FeatureVector, int]] = {}
    rows: list[DatasetRow] = []
    ai = 0
    n_acc = len(accesses)
    for ev in evictions:
        # replay accesses up to and including the eviction timestamp
        while ai < n_acc and accesses[ai].t_ns <= ev.t_ns:
            acc = accesses[ai]
            tracker.on_access(acc.key, acc.t_ns)
            latest[acc.key] = (tracker.extract_features(acc.key, acc.t_ns), acc.t_ns)
            ai += 1
        snap = latest.get(ev.key)
        if snap is None:
            continue
        feat, a = snap
        e = ev.t_ns
        times = times_by_key[ev.key]
        idx = bisect_right(times, e)
        reuse = times[idx] - e if idx < len(times) else MISSING
        rows.append(DatasetRow(feat._replace(access_to_eviction=e - a), e, reuse, ev.key))
    return rows
