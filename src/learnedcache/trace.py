"""Page access events, synthetic workload generators, and trace serialization.

A trace is a time-sorted list of TraceEvent. Generators emit Access events
only; the cache simulator emits Evict events for training labels. The
binary format is little-endian: a 14-byte header (magic ``LCTR``, version u16,
record count u64) followed by 33-byte records (kind u8, t_ns u64, dev u64,
inode u64, offset u64). iter_trace streams a file's events one chunk of
records at a time; read_trace collects them into a list. export_csv writes
a trace file's records as a CSV view for other tools; nothing in the
package reads CSV back.
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
from itertools import accumulate
from operator import itemgetter
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
# the trace clock's origin, where every generator's clock starts
_T0_NS = 1_000_000


def _catalog_entry(kind: str) -> tuple:
    if kind not in _CATALOG:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; valid kinds: {', '.join(WORKLOAD_KINDS)}"
        )
    return _CATALOG[kind]


def default_spec(kind: str, seed: int = 0, n_ops: int = 50_000, n_files: int | None = None) -> WorkloadSpec:
    default_files = _catalog_entry(kind)[0]
    return WorkloadSpec(kind, seed, n_ops, default_files if n_files is None else n_files)


def _validate_spec(spec: WorkloadSpec) -> None:
    _catalog_entry(spec.kind)
    if spec.n_ops < 0:
        raise ConfigurationError("n_ops must be >= 0")
    if spec.n_files < 1 and spec.n_ops > 0:
        raise ConfigurationError("n_files must be >= 1 for a non-empty workload")


class _Emitter:
    """Accumulates Access events on a monotone virtual clock.

    generate_workload builds one per trace and passes it to the kind's
    generator as gen(spec, rng, sizes, em); the trace is em.events.

    run emits a run of consecutive pages of one file, one event per page,
    each after a clock step of draw's getrandbits calls taken inline; a
    single page is a run of one. Every touch of a page shares one
    PageKey, from its file's key list, which grows up to the highest page
    touched so far; events are built with _new_tuple. draw takes randint's
    draws without its randrange layers.
    """

    def __init__(self, rng: random.Random):
        self.getrandbits = rng.getrandbits
        self.t = _T0_NS
        self.events: list[TraceEvent] = []
        # inode -> its pages' keys, by offset
        self.keys: dict[int, list[PageKey]] = {}

    def draw(self, lo: int, hi: int) -> int:
        """rng.randint(lo, hi) for 0 <= lo <= hi, from the same getrandbits
        calls: CPython's _randbelow rejection loop on hi - lo + 1."""
        n = hi - lo + 1
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return lo + r

    def run(self, inode: int, first: int, stop: int, dt_lo: int = 3_000, dt_hi: int = 9_000) -> None:
        """Touch pages [first, stop) of the file in order, each one
        draw(dt_lo, dt_hi) ns after the previous event."""
        keys = self.keys.get(inode)
        if keys is None or len(keys) < stop:
            keys = self._grow(inode, keys, stop)
        # draw's rejection loop, inline
        n = dt_hi - dt_lo + 1
        k = n.bit_length()
        getrandbits = self.getrandbits
        append = self.events.append
        t = self.t
        for key in keys[first:stop]:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            t += dt_lo + r
            append(_new_tuple(TraceEvent, (_ACCESS, t, key)))
        self.t = t

    def _grow(self, inode: int, keys: list[PageKey] | None, stop: int) -> list[PageKey]:
        """The file's key list keys (None for a file not seen yet), extended
        to hold pages [0, stop)."""
        if keys is None:
            keys = self.keys[inode] = []
        for page in range(len(keys), stop):
            keys.append(_new_tuple(PageKey, (_DEV, inode, page)))
        return keys

    def gap(self, lo: int = 20_000, hi: int = 60_000) -> None:
        self.t += self.draw(lo, hi)


class _Picker:
    """Samples one of n >= 1 file indices with zipf(s) popularity over file rank."""

    def __init__(self, pop: PopularityDist, n: int):
        self.cum = list(accumulate((i + 1) ** -pop.s for i in range(n)))

    def pick(self, rng: random.Random) -> int:
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


# The op loops below bind the methods they call per op to locals, which
# are cheaper to read than attributes.


def _gen_webserver(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    pick = _Picker(spec.popularity, spec.n_files).pick
    run, gap, rand = em.run, em.gap, rng.random
    log_inode = spec.n_files + 1_000_000
    log_page = 0
    for _ in range(spec.n_ops):
        gap()
        if rand() < 0.95:
            f = pick(rng)
            run(100 + f, 0, min(sizes[f], 256))
        else:
            run(log_inode, log_page, log_page + 1)
            log_page += 1


def _gen_webproxy(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    pick = _Picker(spec.popularity, spec.n_files).pick
    sample = spec.file_sizes.sample
    run, gap, rand = em.run, em.gap, rng.random
    next_cold = spec.n_files + 1_000_000
    for _ in range(spec.n_ops):
        gap()
        if rand() < 0.85:
            f = pick(rng)
            inode, n_pages = 100 + f, sizes[f]
        else:
            # cache-miss fetch of a fresh object, touched once and never again
            inode = next_cold
            next_cold += 1
            n_pages = sample(0, rng)
        run(inode, 0, min(n_pages, 256))


def _gen_varmail(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    pick = _Picker(spec.popularity, spec.n_files).pick
    sample = spec.file_sizes.sample
    run, gap, rand = em.run, em.gap, rng.random
    next_new = spec.n_files + 1_000_000
    for _ in range(spec.n_ops):
        gap(10_000, 30_000)
        r = rand()
        if r < 0.40:
            f = pick(rng)
            run(100 + f, 0, min(sizes[f], 64))
        elif r < 0.80:
            f = pick(rng)
            if sizes[f] < 64:
                run(100 + f, sizes[f], sizes[f] + 1)
                sizes[f] += 1
            else:
                page = rng.randrange(sizes[f])
                run(100 + f, page, page + 1)
        else:
            run(next_new, 0, min(sample(0, rng), 64))
            next_new += 1


def _gen_copyfiles(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    run = em.run
    order: list[int] = []
    for _ in range(spec.n_ops):
        em.gap()
        if not order:
            order = list(range(spec.n_files))
            rng.shuffle(order)
        f = order.pop()
        for page in range(min(sizes[f], 256)):
            run(100 + f, page, page + 1, 2_000, 5_000)
            run(10_000_100 + f, page, page + 1, 2_000, 5_000)


def _gen_openfiles(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    pick = _Picker(spec.popularity, spec.n_files).pick
    run, gap, rand = em.run, em.gap, rng.random
    for _ in range(spec.n_ops):
        gap(5_000, 15_000)
        f = pick(rng)
        page = 0 if rand() < 0.8 else rng.randrange(sizes[f])
        run(100 + f, page, page + 1)


def _gen_mongo(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    pick = _Picker(spec.popularity, spec.n_files).pick
    run, gap = em.run, em.gap
    rand, paretovariate = rng.random, rng.paretovariate
    extent = 8
    journal_inode = spec.n_files + 1_000_000
    journal_page = 0
    # per-file extent popularity, hotter at low extent indices
    for _ in range(spec.n_ops):
        gap(10_000, 40_000)
        if rand() < 0.8:
            f = pick(rng)
            size = sizes[f]
            n_extents = max(1, size // extent)
            e = min(n_extents - 1, int(paretovariate(1.2)) - 1)
            base = e * extent
            run(100 + f, base, min(base + extent, size), 1_500, 4_000)
        else:
            run(journal_inode, journal_page, journal_page + 1)
            journal_page += 1


def _gen_sizebias(spec: WorkloadSpec, rng: random.Random, sizes: list[int], em: _Emitter) -> None:
    """Slotted round-robin where bigger files are swept strictly less often.

    File i has size a + b*i pages and is swept in full every (i + 1) rounds at
    a fixed slot inside a fixed-length round, so every page of file i repeats
    with an exact gap of (i + 1) * round_ns: reuse time grows strictly with
    file size. Per-file random phases vary the interleaving across seeds.
    It appends to em.events on this fixed clock, not em's, with em's page keys.
    """
    page_dt = 4_000
    slot_gap = 16_000
    slots = []
    t = 0
    for size in sizes:
        slots.append(t)
        t += size * page_dt + slot_gap
    round_ns = t
    phases = [rng.randrange(i + 1) for i in range(spec.n_files)]

    keys = em.keys
    events = em.events
    ops = 0
    r = 0
    while ops < spec.n_ops:
        base = _T0_NS + r * round_ns
        for i in range(spec.n_files):
            if ops >= spec.n_ops:
                break
            if (r + phases[i]) % (i + 1) != 0:
                continue
            file_keys = keys.get(100 + i)
            if file_keys is None:  # its first sweep: em's one PageKey per page
                file_keys = em._grow(100 + i, None, sizes[i])
            t = base + slots[i]
            for key in file_keys:
                events.append(_new_tuple(TraceEvent, (_ACCESS, t, key)))
                t += page_dt
            ops += 1
        r += 1


# Per kind: (default n_files, SizeDist, PopularityDist, generator), where
# generator(spec, rng, sizes, em) appends the trace's events to em.events,
# sizes being the file sizes generate_workload drew first from rng. The kinds
# mimic the qualitative shape of the classic filebench personalities plus two
# synthetic ones; they are approximations, not replays of the original
# workloads.
_CATALOG: dict[str, tuple[int, SizeDist, PopularityDist, Callable[..., None]]] = {
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
    # every kind draws its file sizes first, from the fresh rng
    sizes = _file_sizes(spec, rng)
    em = _Emitter(rng)
    _CATALOG[spec.kind][3](spec, rng, sizes, em)
    events = em.events
    # sorted() checks an already sorted list in one pass of C-level compares
    times = list(map(itemgetter(1), events))  # each event's t_ns
    if sorted(times) != times:
        raise InternalError("generator emitted unsorted timestamps")
    return events


# -- serialization -----------------------------------------------------------


def _record_error(kind: int, t_ns: int, dev: int, inode: int, offset: int, prev_t: int) -> str | None:
    """Why a record breaks the trace rule, or None: a known kind, every field
    a u64, times nondecreasing, and no Access at the last u64 offset.
    write_trace and iter_trace apply this rule."""
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


def export_csv(trace_path: str, path: str) -> None:
    """Write the records of the binary trace at trace_path as CSV under a
    header row, each kind by its name. iter_trace reads and checks the whole
    trace before the CSV is opened, so a bad trace raises TraceFormatError
    and writes no CSV."""
    rows = [(_KIND_NAMES[kind], t_ns, *key) for kind, t_ns, key in iter_trace(trace_path)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_CSV_HEADER)
        w.writerows(rows)
