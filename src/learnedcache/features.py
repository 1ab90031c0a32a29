"""Per-page and per-inode access statistics and the eviction feature vector.

All nine features are unsigned 64-bit integers. Timestamp slots that were
never populated read as MISSING (2**64 - 1), and any delta involving such a
slot is MISSING as well. page_ema and inode_ema are scaled access counts:
each access to the page or to its file adds EMA_SCALE, and nothing decays.
They keep their names because packs carry them.

Tracker state lives in one flat uint64 table with one column per page and
one per file (inode), and one row per field (six). Page and file columns
number their fields alike (offset, delta1, delta2, ema, then a page's
unused row or the file's size, then last), so the five fields they share
sit in the same rows. Beside the table, an int64 (2, n) gather index holds
each column's own number in row 0 and, at a page column, its file's column
in row 1: the one copy of the page-to-file map. This module owns that layout
and the one derivation of a seen page's features: AccessTracker.window
gathers a window's pages and their files side by side in one take through
the index and derives access_to_eviction and offset_distance in place, and
FEATURE_ROW says which row of that block holds each feature. Every feature
but offset_distance sits in block rows [2, 11), so the eviction scorer reads
one contiguous slice. The per-access update reads and writes single cells
through cached memoryviews of the field rows: one cell through a 1-D
memoryview costs a small fraction of a numpy scalar index or a column
tolist().
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

import numpy as np

from .trace import EventKind, PageKey, TraceEvent, _new_tuple

MISSING = 2**64 - 1
EMA_SCALE = 1024
_ACCESS, _EVICT = EventKind.ACCESS, EventKind.EVICT  # cheaper to read than members


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


FEATURE_NAMES = FeatureVector._fields

N_FEATURES = len(FEATURE_NAMES)

# tracker table field rows at a page column, whose row 4 is unused: a page's
# file column is in AccessTracker.index (AccessTracker unpacks its row views
# in this order)
P_OFF, P_D1, P_D2, P_EMA, P_LAST = 0, 1, 2, 3, 5
# the same rows at a file column, numbered like the page fields they pair with
I_LAST_OFF, I_D1, I_D2, I_EMA, I_SIZE, I_LAST = range(6)
# on_access updates a known page through the row views it unpacked for the file
assert (P_D1, P_D2, P_EMA, P_LAST) == (I_D1, I_D2, I_EMA, I_LAST)

# AccessTracker.window's (12, w) block holds field f of the pages in row
# 2 * f and of their files in row 2 * f + 1; the row that holds each
# feature, by FEATURE_NAMES index, once the window has derived it
FEATURE_ROW = (2 * P_D1, 2 * P_D2, 2 * I_D1 + 1, 2 * I_D2 + 1, 2 * P_OFF, 2 * I_SIZE + 1,
               2 * P_EMA, 2 * I_EMA + 1, 2 * P_LAST)


def _row_views(tab: np.ndarray) -> tuple[memoryview, ...]:
    """One memoryview per field row of tab, in field order."""
    return tuple(memoryview(row) for row in tab)


class AccessTracker:
    """Observes a time-ordered access stream and answers feature queries.

    Page columns hold (offset, delta1, delta2, ema, -, last); file columns
    hold (last_offset, delta1, delta2, ema, file_size, last) in the same
    rows. An ema is the column's access count times EMA_SCALE. The
    deltas are maintained incrementally: on each access the previous delta1
    becomes delta2 and the new delta1 is the gap to the previous access
    (MISSING when there is no previous access), which is exactly the
    last/second_last/third_last timestamp formulation.

    tab is the field-major (6, n) table that window gathers from, and index
    the int64 (2, n) gather index: row 0 is arange(n), row 1 a page
    column's file column, set when on_access creates the page. page_slot
    and inode_slot map a page and a (dev, inode) file to their columns, and
    page_keys[c] is the key of column c; a new file's column is allocated
    before its first page's. _rows holds a memoryview of each field row and
    _file_of one of index row 1; on_access reads and writes single cells
    through them, and build_dataset reads them. _column is the one place the
    table and the index grow, to fit any column number, and growing them
    replaces the views too. page_column only numbers pages: it appends to
    page_keys and page_slot, and grows and updates nothing else.
    """

    def __init__(self) -> None:
        self.page_slot: dict[PageKey, int] = {}
        self.inode_slot: dict[tuple[int, int], int] = {}
        self.page_keys: list[PageKey | tuple[int, int]] = []
        self.tab = np.zeros((6, 320), dtype=np.uint64)
        self.index = np.zeros((2, 320), dtype=np.int64)
        self.index[0] = np.arange(320)
        self._rows = _row_views(self.tab)
        self._file_of = memoryview(self.index[1])
        self.last_t = 0

    def _column(self, key: PageKey | tuple[int, int]) -> int:
        """Allocate the next table column for key; returns its slot."""
        c = len(self.page_keys)
        self.page_keys.append(key)
        width = self.tab.shape[1]
        if c >= width:
            extra = max(width, c + 1 - width)  # at least double, and past c
            self.tab = np.concatenate((self.tab, np.zeros((6, extra), np.uint64)), axis=1)
            self.index = np.concatenate((self.index, np.zeros((2, extra), np.int64)), axis=1)
            self.index[0] = np.arange(width + extra)
            self._rows = _row_views(self.tab)
            self._file_of = memoryview(self.index[1])
        return c

    def page_column(self, key: PageKey) -> int:
        """The page's column slot, numbered on first sight; sets no field.

        For a caller that only numbers pages and never mixes this with
        on_access: the slot has no table column, so it holds no features to
        score, and numbering pages never grows the table or the index.
        """
        slot = self.page_slot.get(key)
        if slot is None:
            slot = self.page_slot[key] = len(self.page_keys)
            self.page_keys.append(key)
        return slot

    def on_access(self, key: PageKey, t_ns: int) -> int:
        """Update page and file state; returns the page's column slot."""
        if t_ns < self.last_t:
            raise ValueError(f"access at t={t_ns} precedes tracker time {self.last_t}")
        self.last_t = t_ns
        off = key.offset

        # a known page's file column is in the index; a new page resolves its file first
        slot = self.page_slot.get(key)
        if slot is not None:
            islot = self._file_of[slot]
        else:
            ikey = (key.dev, key.inode)
            islot = self.inode_slot.get(ikey)
        if islot is None:
            islot = self.inode_slot[ikey] = self._column(ikey)
            last_off, d1, d2, ema, size, last = self._rows
            d1[islot] = d2[islot] = MISSING
            ema[islot] = EMA_SCALE
            last[islot] = t_ns
            last_off[islot] = off
            size[islot] = off + 1
        else:
            last_off, d1, d2, ema, size, last = self._rows
            d2[islot] = d1[islot]
            d1[islot] = t_ns - last[islot]
            ema[islot] += EMA_SCALE
            last[islot] = t_ns
            last_off[islot] = off
            if off >= size[islot]:
                size[islot] = off + 1

        if slot is None:
            slot = self.page_slot[key] = self._column(key)
            poff, d1, d2, ema, _, last = self._rows
            poff[slot] = off
            d1[slot] = d2[slot] = MISSING
            ema[slot] = EMA_SCALE
            last[slot] = t_ns
            self._file_of[slot] = islot
        else:
            # no column was added, so the row views unpacked above still hold
            d2[slot] = d1[slot]
            d1[slot] = t_ns - last[slot]
            ema[slot] += EMA_SCALE
            last[slot] = t_ns
        return slot

    def window(self, slots: np.ndarray, t_now: int, offset: bool) -> np.ndarray:
        """The (12, w) feature block of the pages at column slots as of t_now.

        Row FEATURE_ROW[j] holds feature j of every page; the rest are
        scratch. offset_distance is derived only if offset is true. The
        slots must be page columns that on_access updated, and t_now must
        not precede the pages' last accesses.
        """
        # index columns (slot, file column) of each page, then one (6, 2, w)
        # copy of the pages' and their files' table columns
        g = self.tab.take(self.index.take(slots, axis=1), axis=1).reshape(12, len(slots))
        # the pages' last access times become the time since each
        d = g[2 * P_LAST]
        np.subtract(t_now, d, out=d)
        if offset:
            # |page offset - file's last offset| in the pages' offset row
            r, s = g[2 * P_OFF], g[2 * I_LAST_OFF + 1]
            np.subtract(np.maximum(r, s), np.minimum(r, s), out=r)
        return g


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

    Only accesses are replayed, up to and including each eviction's time,
    since evictions never touch the tracker. So at e, p's page cells (its
    deltas and its ema) still hold what a left them. Its file's cells move
    with the file's other pages, so they are snapshotted per page column
    right after each access. Offset distance is 0 right after an access.
    """
    accesses = [ev for ev in access_events if ev.kind == _ACCESS]
    evictions = [ev for ev in eviction_events if ev.kind == _EVICT]
    for seq, label in ((accesses, "access"), (evictions, "eviction")):
        for prev, cur in zip(seq, seq[1:]):
            if cur.t_ns < prev.t_ns:
                raise ValueError(f"{label} events must be sorted by t_ns")

    times_by_key: dict[PageKey, list[int]] = {}
    for ev in accesses:
        times_by_key.setdefault(ev.key, []).append(ev.t_ns)

    tracker = AccessTracker()
    on_access = tracker.on_access
    # page column -> its file's (delta1, delta2, size, ema) right after its last access
    file_at: dict[int, tuple[int, int, int, int]] = {}
    rows: list[DatasetRow] = []
    ai = 0
    n_acc = len(accesses)
    for ev in evictions:
        e = ev.t_ns
        while ai < n_acc and accesses[ai].t_ns <= e:
            acc = accesses[ai]
            slot = on_access(acc.key, acc.t_ns)
            tab = tracker._rows  # replaced when the table grows
            islot = tracker._file_of[slot]
            file_at[slot] = (tab[I_D1][islot], tab[I_D2][islot], tab[I_SIZE][islot], tab[I_EMA][islot])
            ai += 1
        times = times_by_key.get(ev.key, ())
        idx = bisect_right(times, e)
        if idx == 0:  # no access at or before e
            continue
        reuse = times[idx] - e if idx < len(times) else MISSING
        slot = tracker.page_slot[ev.key]
        tab = tracker._rows
        fd1, fd2, fsize, fema = file_at[slot]
        feat = _new_tuple(FeatureVector, (
            tab[P_D1][slot], tab[P_D2][slot], fd1, fd2, 0, fsize, tab[P_EMA][slot], fema, e - times[idx - 1]
        ))
        rows.append(_new_tuple(DatasetRow, (feat, e, reuse, ev.key)))
    return rows
