"""Page access events, synthetic workload generators, and trace serialization.

A trace is a time-sorted list of TraceEvent. Generators emit Access events
only; the cache simulator emits Evict events for training labels. The
binary format is little-endian: a 14-byte header (magic ``LCTR``, version u16,
record count u64) followed by 33-byte records (kind u8, t_ns u64, dev u64,
inode u64, offset u64). iter_trace streams a file's events one chunk of
records at a time; read_trace collects them into a list. export_csv writes
the same records as a CSV view for other tools; nothing in the package
reads CSV back.
"""

from __future__ import annotations

import csv
import math
import os
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ConfigurationError, InternalError, TraceFormatError

MAGIC = b"LCTR"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHQ")
_RECORD = struct.Struct("<BQQQQ")
# records iter_trace decodes per read: about 1 MB
_CHUNK_RECORDS = 1 << 15
_U64_MAX = 2**64 - 1
# An access makes offset + 1 part of its file's size, which the tracker keeps
# in a u64, so no trace may hold an Access at the last u64 offset.
_MAX_ACCESS_OFFSET = _U64_MAX - 1


class EventKind(IntEnum):
    ACCESS = 0
    INSERT = 1
    EVICT = 2


_KIND_NAMES = {EventKind.ACCESS: "Access", EventKind.INSERT: "Insert", EventKind.EVICT: "Evict"}
_KINDS = tuple(EventKind)  # indexed by value; cheaper in per-event loops than EventKind(k)
_ACCESS = EventKind.ACCESS


class PageKey(NamedTuple):
    dev: int
    inode: int
    offset: int


class TraceEvent(NamedTuple):
    kind: EventKind
    t_ns: int
    key: PageKey


# _new_tuple(PageKey, (dev, inode, offset)) builds the same tuple as
# PageKey(dev, inode, offset) without the NamedTuple's Python-level __new__:
# per-event loops build their events and keys with it
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class SizeDist:
    """File size distribution, in pages (>= 1).

    kinds: uniform(a, b), lognormal(median=a, sigma=b), linear(base=a,
    step=b) where file i gets a + b*i pages.
    """

    kind: str
    a: float = 1
    b: float = 0

    def sample(self, index: int, rng: random.Random) -> int:
        if self.kind == "uniform":
            return rng.randint(max(1, int(self.a)), max(1, int(self.b)))
        if self.kind == "lognormal":
            return max(1, round(self.a * math.exp(rng.gauss(0.0, self.b))))
        return max(1, int(self.a + self.b * index))  # linear


@dataclass(frozen=True)
class PopularityDist:
    """File popularity: zipf(s) over file rank, or uniform."""

    kind: str
    s: float = 1.0


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    seed: int
    n_ops: int
    n_files: int

    @property
    def file_sizes(self) -> SizeDist:
        return _CATALOG[self.kind][1]

    @property
    def popularity(self) -> PopularityDist:
        return _CATALOG[self.kind][2]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "n_ops": self.n_ops,
            "n_files": self.n_files,
            "file_sizes": {"kind": self.file_sizes.kind, "a": self.file_sizes.a, "b": self.file_sizes.b},
            "popularity": {"kind": self.popularity.kind, "s": self.popularity.s},
        }


_DEV = 1


def default_spec(kind: str, seed: int = 0, n_ops: int = 50_000, n_files: int | None = None) -> WorkloadSpec:
    if kind not in _CATALOG:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; valid kinds: {', '.join(WORKLOAD_KINDS)}"
        )
    return WorkloadSpec(kind, seed, n_ops, n_files if n_files is not None else _CATALOG[kind][0])


def _validate_spec(spec: WorkloadSpec) -> None:
    if spec.kind not in _CATALOG:
        raise ConfigurationError(
            f"unknown workload kind {spec.kind!r}; valid kinds: {', '.join(WORKLOAD_KINDS)}"
        )
    if spec.n_ops < 0:
        raise ConfigurationError("n_ops must be >= 0")
    if spec.n_files < 1 and spec.n_ops > 0:
        raise ConfigurationError("n_files must be >= 1 for a non-empty workload")


class _Emitter:
    """Accumulates Access events on a monotone virtual clock.

    Every touch of a page shares one PageKey, and events are built with
    _new_tuple; draw takes randint's draws without its randrange layers.
    """

    def __init__(self, rng: random.Random, t0: int = 1_000_000):
        self.getrandbits = rng.getrandbits
        self.t = t0
        self.events: list[TraceEvent] = []
        self.keys: dict[tuple[int, int], PageKey] = {}

    def draw(self, lo: int, hi: int) -> int:
        """rng.randint(lo, hi) for 0 <= lo <= hi, from the same getrandbits
        calls: CPython's _randbelow rejection loop on hi - lo + 1."""
        n = hi - lo + 1
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return lo + r

    def touch(self, inode: int, offset: int, dt_lo: int = 3_000, dt_hi: int = 9_000) -> None:
        self.t += self.draw(dt_lo, dt_hi)
        key = self.keys.get((inode, offset))
        if key is None:
            key = self.keys[inode, offset] = _new_tuple(PageKey, (_DEV, inode, offset))
        self.events.append(_new_tuple(TraceEvent, (_ACCESS, self.t, key)))

    def gap(self, lo: int = 20_000, hi: int = 60_000) -> None:
        self.t += self.draw(lo, hi)


class _Picker:
    """Samples a file index from the workload's popularity distribution."""

    def __init__(self, pop: PopularityDist, n: int):
        self.n = n
        self.cum: list[float] | None = None
        if pop.kind == "zipf" and n > 0:
            total = 0.0
            cum = []
            for i in range(n):
                total += (i + 1) ** -pop.s
                cum.append(total)
            self.cum = cum

    def pick(self, rng: random.Random) -> int:
        if self.cum is None:
            return rng.randrange(self.n)
        return bisect_right(self.cum, rng.random() * self.cum[-1])


def _file_sizes(spec: WorkloadSpec, rng: random.Random) -> list[int]:
    """One size per file, from a list allocated up front: a file count that
    no list can hold fails at once instead of growing until memory runs out."""
    try:
        sizes = [0] * spec.n_files
    except (MemoryError, OverflowError):
        raise ConfigurationError(
            f"n_files {spec.n_files} is too large: its file sizes cannot be allocated"
        ) from None
    sample = spec.file_sizes.sample
    for i in range(spec.n_files):
        sizes[i] = sample(i, rng)
    return sizes


def _gen_webserver(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    pick = _Picker(spec.popularity, spec.n_files)
    em = _Emitter(rng)
    log_inode = spec.n_files + 1_000_000
    log_page = 0
    for _ in range(spec.n_ops):
        em.gap()
        if rng.random() < 0.95:
            f = pick.pick(rng)
            for page in range(min(sizes[f], 256)):
                em.touch(100 + f, page)
        else:
            em.touch(log_inode, log_page)
            log_page += 1
    return em.events


def _gen_webproxy(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    pick = _Picker(spec.popularity, spec.n_files)
    em = _Emitter(rng)
    next_cold = spec.n_files + 1_000_000
    for _ in range(spec.n_ops):
        em.gap()
        if rng.random() < 0.85:
            f = pick.pick(rng)
            inode, n_pages = 100 + f, sizes[f]
        else:
            # cache-miss fetch of a fresh object, touched once and never again
            inode = next_cold
            next_cold += 1
            n_pages = spec.file_sizes.sample(0, rng)
        for page in range(min(n_pages, 256)):
            em.touch(inode, page)
    return em.events


def _gen_varmail(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    pick = _Picker(spec.popularity, spec.n_files)
    em = _Emitter(rng)
    next_new = spec.n_files + 1_000_000
    for _ in range(spec.n_ops):
        em.gap(10_000, 30_000)
        r = rng.random()
        if r < 0.40:
            f = pick.pick(rng)
            for page in range(min(sizes[f], 64)):
                em.touch(100 + f, page)
        elif r < 0.80:
            f = pick.pick(rng)
            if sizes[f] < 64:
                em.touch(100 + f, sizes[f])
                sizes[f] += 1
            else:
                em.touch(100 + f, rng.randrange(sizes[f]))
        else:
            n_pages = spec.file_sizes.sample(0, rng)
            for page in range(min(n_pages, 64)):
                em.touch(next_new, page)
            next_new += 1
    return em.events


def _gen_copyfiles(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    em = _Emitter(rng)
    order: list[int] = []
    for _ in range(spec.n_ops):
        em.gap()
        if not order:
            order = list(range(spec.n_files))
            rng.shuffle(order)
        f = order.pop()
        for page in range(min(sizes[f], 256)):
            em.touch(100 + f, page, 2_000, 5_000)
            em.touch(10_000_100 + f, page, 2_000, 5_000)
    return em.events


def _gen_openfiles(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    pick = _Picker(spec.popularity, spec.n_files)
    em = _Emitter(rng)
    for _ in range(spec.n_ops):
        em.gap(5_000, 15_000)
        f = pick.pick(rng)
        page = 0 if rng.random() < 0.8 else rng.randrange(sizes[f])
        em.touch(100 + f, page)
    return em.events


def _gen_mongo(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    sizes = _file_sizes(spec, rng)
    pick = _Picker(spec.popularity, spec.n_files)
    em = _Emitter(rng)
    extent = 8
    journal_inode = spec.n_files + 1_000_000
    journal_page = 0
    # per-file extent popularity, hotter at low extent indices
    for _ in range(spec.n_ops):
        em.gap(10_000, 40_000)
        if rng.random() < 0.8:
            f = pick.pick(rng)
            n_extents = max(1, sizes[f] // extent)
            e = min(n_extents - 1, int(rng.paretovariate(1.2)) - 1)
            base = e * extent
            for page in range(base, min(base + extent, sizes[f])):
                em.touch(100 + f, page, 1_500, 4_000)
        else:
            em.touch(journal_inode, journal_page)
            journal_page += 1
    return em.events


def _gen_sizebias(spec: WorkloadSpec, rng: random.Random) -> list[TraceEvent]:
    """Slotted round-robin where bigger files are swept strictly less often.

    File i has size a + b*i pages and is swept in full every (i + 1) rounds at
    a fixed slot inside a fixed-length round, so every page of file i repeats
    with an exact gap of (i + 1) * round_ns: reuse time grows strictly with
    file size. Per-file random phases vary the interleaving across seeds.
    """
    sizes = _file_sizes(spec, rng)
    page_dt = 4_000
    slot_gap = 16_000
    slots = []
    t = 0
    for size in sizes:
        slots.append(t)
        t += size * page_dt + slot_gap
    round_ns = t
    periods = [i + 1 for i in range(spec.n_files)]
    phases = [rng.randrange(p) for p in periods]

    # one shared PageKey per page
    keys = [[_new_tuple(PageKey, (_DEV, 100 + i, page)) for page in range(size)]
            for i, size in enumerate(sizes)]

    events: list[TraceEvent] = []
    ops = 0
    r = 0
    while ops < spec.n_ops:
        base = 1_000_000 + r * round_ns
        for i in range(spec.n_files):
            if ops >= spec.n_ops:
                break
            if (r + phases[i]) % periods[i] != 0:
                continue
            t = base + slots[i]
            for key in keys[i]:
                events.append(_new_tuple(TraceEvent, (_ACCESS, t, key)))
                t += page_dt
            ops += 1
        r += 1
    return events


# Per kind: (default n_files, SizeDist, PopularityDist, generator). The kinds
# mimic the qualitative shape of the classic filebench personalities plus two
# synthetic ones; they are approximations, not replays of the original
# workloads.
_CATALOG: dict[str, tuple[int, SizeDist, PopularityDist, Callable[..., list[TraceEvent]]]] = {
    "webserver": (1000, SizeDist("lognormal", 8, 0.7), PopularityDist("zipf", 1.1), _gen_webserver),
    "webproxy": (2000, SizeDist("lognormal", 6, 1.0), PopularityDist("zipf", 0.75), _gen_webproxy),
    "varmail": (500, SizeDist("lognormal", 2, 0.5), PopularityDist("zipf", 1.0), _gen_varmail),
    "copyfiles": (300, SizeDist("lognormal", 16, 0.6), PopularityDist("uniform"), _gen_copyfiles),
    "openfiles": (5000, SizeDist("uniform", 1, 4), PopularityDist("zipf", 0.6), _gen_openfiles),
    "mongo": (8, SizeDist("uniform", 256, 1024), PopularityDist("zipf", 1.0), _gen_mongo),
    "synthetic_sizebias": (12, SizeDist("linear", 4, 4), PopularityDist("uniform"), _gen_sizebias),
}

WORKLOAD_KINDS = tuple(_CATALOG)


def generate_workload(spec: WorkloadSpec) -> list[TraceEvent]:
    """Generate a deterministic, time-sorted Access-only trace."""
    _validate_spec(spec)
    if spec.n_ops == 0:
        return []
    rng = random.Random(spec.seed)
    events = _CATALOG[spec.kind][3](spec, rng)
    for prev, cur in zip(events, events[1:]):
        if cur.t_ns < prev.t_ns:
            raise InternalError("generator emitted unsorted timestamps")  # pragma: no cover
    return events


# -- serialization -----------------------------------------------------------


def _record_error(kind: int, t_ns: int, dev: int, inode: int, offset: int, prev_t: int) -> str | None:
    """Why a record breaks the trace rule, or None: a known kind, every field
    a u64, times nondecreasing, and no Access at the last u64 offset. Every
    trace writer and reader applies this rule."""
    if kind not in _KIND_NAMES:
        return f"invalid event kind {kind}"
    if (t_ns | dev | inode | offset) >> 64:  # some field is negative or above 2**64 - 1
        return "field outside the u64 range"
    if t_ns < prev_t:
        return "timestamps not sorted"
    if offset == _U64_MAX and kind == EventKind.ACCESS:
        return f"access offset above {_MAX_ACCESS_OFFSET}"
    return None


def write_trace(events: Iterable[TraceEvent], path: str) -> None:
    """Write events in the binary trace format. Raises ValueError, before it
    opens the file, on the first event that breaks the trace rule."""
    records = bytearray()  # every record packed into one buffer as it is checked
    prev_t = 0
    for kind, t_ns, (dev, inode, offset) in events:
        err = _record_error(kind, t_ns, dev, inode, offset, prev_t)
        if err is not None:
            raise ValueError(f"event {len(records) // _RECORD.size}: {err}")
        prev_t = t_ns
        records += _RECORD.pack(kind, t_ns, dev, inode, offset)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(records) // _RECORD.size))
        f.write(records)


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Yield a binary trace's events, decoding one chunk of records at a time.

    The header is checked against the file size before the first event, and
    every record by the trace rule as it is decoded; a bad record raises
    TraceFormatError at its byte offset once the events before it have been
    yielded. Memory holds one chunk and one shared PageKey per page, not the
    trace.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size:
            raise TraceFormatError("truncated header", offset=size)
        magic, version, count = _HEADER.unpack(f.read(_HEADER.size))
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}", offset=0)
        if version != FORMAT_VERSION:
            raise TraceFormatError(f"unsupported version {version}", offset=4)
        expected = _HEADER.size + count * _RECORD.size
        if size < expected:
            raise TraceFormatError(
                f"truncated record data: expected {expected} bytes, got {size}", offset=size
            )
        if size > expected:
            raise TraceFormatError("trailing bytes after last record", offset=expected)

        # one shared PageKey per page; a PageKey hashes and compares as its plain tuple
        keys: dict[tuple[int, int, int], PageKey] = {}
        prev_t = 0
        for first in range(0, count, _CHUNK_RECORDS):
            want = min(_CHUNK_RECORDS, count - first) * _RECORD.size
            chunk = f.read(want)
            if len(chunk) != want:  # the file shrank while it was read
                raise TraceFormatError("truncated record data", offset=f.tell())
            for i, (kind, t_ns, dev, inode, offset) in enumerate(_RECORD.iter_unpack(chunk), first):
                err = _record_error(kind, t_ns, dev, inode, offset, prev_t)
                if err is not None:
                    raise TraceFormatError(err, offset=_HEADER.size + i * _RECORD.size)
                prev_t = t_ns
                page = (dev, inode, offset)
                key = keys.get(page)
                if key is None:
                    key = keys[page] = _new_tuple(PageKey, page)
                yield _new_tuple(TraceEvent, (_KINDS[kind], t_ns, key))


def read_trace(path: str) -> list[TraceEvent]:
    """Read a whole binary trace into a list, validating structure and every record."""
    return list(iter_trace(path))


_CSV_HEADER = ["kind", "t_ns", "dev", "inode", "offset"]


def export_csv(events: Iterable[TraceEvent], path: str) -> None:
    """Write events as CSV under a header row. Raises ValueError, before it
    opens the file, on the first event that breaks the trace rule."""
    rows = []
    prev_t = 0
    for kind, t_ns, (dev, inode, offset) in events:
        err = _record_error(kind, t_ns, dev, inode, offset, prev_t)
        if err is not None:
            raise ValueError(f"event {len(rows)}: {err}")
        prev_t = t_ns
        rows.append((_KIND_NAMES[kind], t_ns, dev, inode, offset))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_CSV_HEADER)
        w.writerows(rows)
