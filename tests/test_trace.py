"""Workload generation and trace serialization."""

import hashlib
import os
import random
import re
import tracemalloc
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learnedcache import trace
from learnedcache.errors import ConfigurationError, InternalError, TraceFormatError
from learnedcache.trace import (
    FORMAT_VERSION,
    WORKLOAD_KINDS,
    EventKind,
    PageKey,
    TraceEvent,
    WorkloadSpec,
    _Emitter,
    default_spec,
    export_csv,
    generate_workload,
    iter_trace,
    read_trace,
    write_trace,
)

from reference_impls import ref_csv_rows

U64_MAX = 2**64 - 1


def small_trace(kind="webserver", seed=7, ops=120):
    return generate_workload(default_spec(kind, seed=seed, n_ops=ops))


def test_catalog_lists_the_seven_workloads():
    assert set(WORKLOAD_KINDS) == {
        "webserver",
        "webproxy",
        "varmail",
        "copyfiles",
        "openfiles",
        "mongo",
        "synthetic_sizebias",
    }


def test_unknown_workload_kind_is_rejected():
    message = re.escape(f"unknown workload kind 'nosuchthing'; valid kinds: {', '.join(WORKLOAD_KINDS)}")
    for make in (lambda: default_spec("nosuchthing"),
                 lambda: default_spec("nosuchthing", n_files=3),
                 lambda: generate_workload(WorkloadSpec("nosuchthing", 0, 5, 3))):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            make()


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_generated_traces_are_sorted_access_only_and_deterministic(kind):
    events = small_trace(kind)
    assert events, kind
    assert all(ev.kind == EventKind.ACCESS for ev in events)
    assert all(a.t_ns <= b.t_ns for a, b in zip(events, events[1:]))
    assert events == small_trace(kind)


# sha256 of write_trace(generate_workload(default_spec(kind, seed=7, n_ops=300))):
# every generator's output is pinned byte for byte, so a change to how a
# trace is built (draws, keys, event construction) cannot change the trace
GOLDEN_TRACE_SHA256 = {
    "webserver": "234a127070caaa1855a5dec8f5d2632fc5298e45478607a300ca252e3635a649",
    "webproxy": "014e7e40881f9d843b51bd762680aa79da7b8791171e8903413b3859e4b949e1",
    "varmail": "a3833be453b68e68a6cba8e172dbfe274510ad30250261ccab3c069a3595c490",
    "copyfiles": "7a47f0fc0ddf93221672f692723fb9eb2ef705f06f29c8e743f6ada52fbc1ebd",
    "openfiles": "37114d8ef320cd45a9286208db745e61f7b79a6ffd56d8e67f6ad8ee33587e30",
    "mongo": "a0a5e561fb29b92f58bd623b1d0169780b6d3ae2d982b987d3ecba762b88ee92",
    "synthetic_sizebias": "24e21a58df160c0a9281c88bfd6b4b848d37ea0248c43e804a2322713da8852e",
}


# the same digest of generate_workload(default_spec(kind, seed=11, n_ops=2000,
# n_files=37)): a shape that reaches what 300 ops over the default files
# miss, such as varmail files grown past 64 pages and dozens of copyfiles
# passes
GOLDEN_TRACE_SHA256_SEED11 = {
    "webserver": "3132a62b39596cb32d46ec8b4e8f6e173f33835fad7833592e4f66053956e2cc",
    "webproxy": "9e6f9a500d5bebb2279ae057c87bf12d1d808aa0ad0774bc1c81aace176cbff8",
    "varmail": "f9457811c5620d91569d78a0a85702881c852900bcfa9473943f2c001d8354b9",
    "copyfiles": "83ff7519baf6276d5d4bbae94ed23674cdd90611fda535310d7931a66c739575",
    "openfiles": "053ce1d3e720fd166dc7648db23e3c73cc4b60900b2a2b5b6ce1a10561b2ec29",
    "mongo": "79629674ebc638781fa3ce2a95d6b969a2f8fd71f0b9f8d38b62bee616b25cb4",
    "synthetic_sizebias": "678312867725491a7f918534973a95df174b38dacba35b639290163252d0cf6f",
}


def trace_sha256(tmp_path, events) -> str:
    path = tmp_path / "t.bin"
    write_trace(events, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_generated_traces_match_their_golden_digest(tmp_path, kind):
    assert trace_sha256(tmp_path, small_trace(kind, seed=7, ops=300)) == GOLDEN_TRACE_SHA256[kind]


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_generated_traces_match_their_golden_digest_at_a_second_shape(tmp_path, kind):
    events = generate_workload(default_spec(kind, seed=11, n_ops=2000, n_files=37))
    assert trace_sha256(tmp_path, events) == GOLDEN_TRACE_SHA256_SEED11[kind]


# widths on both sides of each step in the rejection loop's bit count:
# width 2**k - 1 draws k bits and seldom redraws, 2**k and 2**k + 1 draw
# k + 1 bits and redraw about half the time (width 1 is 2**0)
EDGE_WIDTHS = sorted({2**k + d for k in range(66) for d in (-1, 0, 1)} - {0})


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    lo=st.integers(0, 2**70),
    width=st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 2**70)),
    draws=st.integers(1, 40),
)
@example(seed=0, lo=5, width=1, draws=3)
@example(seed=1, lo=3_000, width=6_001, draws=40)
def test_emitter_draws_equal_randint(seed, lo, width, draws):
    hi = lo + width - 1
    rng, ref = random.Random(seed), random.Random(seed)
    em = _Emitter(rng)
    assert [em.draw(lo, hi) for _ in range(draws)] == [ref.randint(lo, hi) for _ in range(draws)]
    # the same getrandbits calls were made, so the generators stay in step
    assert rng.getstate() == ref.getstate()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    lo=st.integers(0, 2**70),
    width=st.one_of(st.sampled_from(EDGE_WIDTHS), st.integers(1, 2**70)),
    first=st.integers(0, 40),
    pages=st.integers(0, 40),
    known=st.integers(0, 90),
)
@example(seed=1, lo=1_500, width=2_501, first=8, pages=8, known=0)
def test_emitter_run_steps_as_draws_do(seed, lo, width, first, pages, known):
    hi = lo + width - 1
    rng, ref = random.Random(seed), random.Random(seed)
    em = _Emitter(rng)
    # pages [0, known) of the file already have keys, which the events reuse
    em.keys[7] = [PageKey(1, 7, p) for p in range(known)]
    held = em.keys[7][:]
    em.run(7, first, first + pages, lo, hi)
    ref_em = _Emitter(ref)
    steps = [ref_em.draw(lo, hi) for _ in range(pages)]
    assert [ev.t_ns for ev in em.events] == list(accumulate(steps, initial=1_000_000))[1:]
    assert [ev.key for ev in em.events] == [PageKey(1, 7, p) for p in range(first, first + pages)]
    assert all(ev.key is held[ev.key.offset] for ev in em.events if ev.key.offset < known)
    assert em.t == 1_000_000 + sum(steps)
    # the same getrandbits calls were made, so the generators stay in step
    assert rng.getstate() == ref.getstate()


def test_traces_share_one_page_key_per_page(tmp_path):
    mongo = small_trace("mongo", seed=3, ops=400)
    path = tmp_path / "t.bin"
    write_trace(mongo, str(path))
    # varmail reads whole files in runs and touches single pages of the same files
    for events in (mongo, small_trace("varmail", seed=3, ops=400),
                   small_trace("synthetic_sizebias", seed=3, ops=200), read_trace(str(path))):
        pages = {ev.key for ev in events}
        assert len(pages) < len(events)  # pages repeat, so sharing is observable
        assert len({id(ev.key) for ev in events}) == len(pages)
        assert all(type(ev) is TraceEvent and type(ev.key) is PageKey for ev in events)


@pytest.mark.parametrize("times,ok", [([5, 5, 6], True), ([5, 7, 6], False), ([9, 1], False)])
def test_generate_workload_refuses_a_generator_that_emits_unsorted_times(monkeypatch, times, ok):
    events = [TraceEvent(EventKind.ACCESS, t, PageKey(1, 100, 0)) for t in times]
    emitters = []

    def gen(spec, rng, sizes, em):
        emitters.append(em)
        em.events.extend(events)

    entry = trace._CATALOG["mongo"]
    monkeypatch.setitem(trace._CATALOG, "mongo", (*entry[:3], gen))
    spec = default_spec("mongo", n_ops=1)
    if ok:
        out = generate_workload(spec)
        assert out is emitters[0].events and out == events
    else:
        with pytest.raises(InternalError, match="unsorted timestamps"):
            generate_workload(spec)


def test_different_seeds_give_different_traces():
    a = small_trace("webproxy", seed=1)
    b = small_trace("webproxy", seed=2)
    assert a != b


def test_zero_ops_yields_empty_trace():
    assert generate_workload(default_spec("varmail", n_ops=0)) == []


def test_negative_ops_rejected():
    with pytest.raises(ConfigurationError):
        generate_workload(default_spec("varmail", n_ops=-1))


def test_file_count_override_changes_universe():
    wide = generate_workload(default_spec("openfiles", seed=3, n_ops=300, n_files=2000))
    narrow = generate_workload(default_spec("openfiles", seed=3, n_ops=300, n_files=2))
    assert len({ev.key.inode for ev in narrow}) <= 2
    assert len({ev.key.inode for ev in wide}) > 2


def test_sizebias_pages_repeat_on_fixed_per_file_periods():
    events = generate_workload(default_spec("synthetic_sizebias", seed=11, n_ops=400))
    last_seen: dict[PageKey, int] = {}
    gaps_by_inode: dict[int, set[int]] = {}
    for ev in events:
        prev = last_seen.get(ev.key)
        if prev is not None:
            gaps_by_inode.setdefault(ev.key.inode, set()).add(ev.t_ns - prev)
        last_seen[ev.key] = ev.t_ns
    # each file's pages come back with a single exact gap
    assert gaps_by_inode
    for inode, gaps in gaps_by_inode.items():
        assert len(gaps) == 1, (inode, gaps)
    # and that gap grows strictly with the file index (bigger file, rarer sweep)
    inodes = sorted(gaps_by_inode)
    gap_list = [next(iter(gaps_by_inode[i])) for i in inodes]
    assert gap_list == sorted(gap_list)
    assert len(set(gap_list)) == len(gap_list)


def test_sizebias_builds_only_the_page_keys_of_the_files_it_sweeps():
    # one op sweeps file 0's 4 pages; building every file's keys up front
    # would hold about 320k keys for 400 files
    tracemalloc.start()
    try:
        events = generate_workload(default_spec("synthetic_sizebias", n_ops=1, n_files=400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 4
    assert peak < 1 << 20


def test_sizebias_file_sizes_grow_linearly():
    events = generate_workload(default_spec("synthetic_sizebias", seed=0, n_ops=200))
    max_off: dict[int, int] = {}
    for ev in events:
        max_off[ev.key.inode] = max(max_off.get(ev.key.inode, 0), ev.key.offset)
    for inode, top in max_off.items():
        i = inode - 100
        assert top == 4 + 4 * i - 1


@pytest.mark.parametrize("write,read,name", [(write_trace, read_trace, "t.bin")], ids=["binary"])
def test_readers_return_event_kind_members(tmp_path, write, read, name):
    # EventKind is an IntEnum, so an int kind would still compare equal to
    # its member; the round trips cannot tell the two apart
    events = [TraceEvent(kind, t, PageKey(1, 2, t)) for t, kind in enumerate(EventKind)]
    write(events, str(tmp_path / name))
    got = read(str(tmp_path / name))
    assert got == events
    assert [type(ev.kind) for ev in got] == [EventKind] * 3


@pytest.mark.parametrize("write,name", [(write_trace, "t.bin")], ids=["binary"])
@pytest.mark.parametrize("events,match", [
    ([TraceEvent(3, 0, PageKey(0, 0, 0))], "invalid event kind 3"),
    ([TraceEvent(EventKind.EVICT, 0, PageKey(-1, 0, 0))], "u64 range"),
    ([TraceEvent(EventKind.EVICT, 2**64, PageKey(0, 0, 0))], "u64 range"),
    ([TraceEvent(EventKind.EVICT, 5, PageKey(0, 0, 0)),
      TraceEvent(EventKind.EVICT, 4, PageKey(0, 0, 0))], "not sorted"),
    ([TraceEvent(EventKind.ACCESS, 0, PageKey(0, 0, U64_MAX))], "access offset"),
], ids=["kind-3", "negative", "above-u64", "unsorted", "last-offset"])
def test_writers_refuse_records_before_opening_the_file(tmp_path, write, name, events, match):
    path = tmp_path / name
    with pytest.raises(ValueError, match=match):
        write(events, str(path))
    assert not path.exists()


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


_FIELD = st.one_of(st.integers(0, 40), st.sampled_from([-1, U64_MAX - 1, U64_MAX, U64_MAX + 1]))
_EVENT = st.builds(lambda kind, t, dev, inode, offset: TraceEvent(kind, t, PageKey(dev, inode, offset)),
                   st.integers(0, 3), _FIELD, _FIELD, _FIELD, _FIELD)


@settings(deadline=None, max_examples=200)
@given(events=st.lists(_EVENT, max_size=6), sort=st.booleans())
@example(events=[TraceEvent(EventKind.ACCESS, 0, PageKey(0, 0, 0)),
                 TraceEvent(EventKind.EVICT, U64_MAX, PageKey(U64_MAX, U64_MAX, U64_MAX))], sort=False)
def test_each_writer_refuses_what_its_reader_refuses(io_dir, events, sort):
    # write_trace either raises ValueError and writes nothing, or read_trace
    # returns exactly the events written; export_csv renders that file, and
    # its CSV, which has no reader in the package, parses back to them too
    if sort:
        events.sort(key=lambda ev: ev.t_ns)
    path = io_dir / "t.bin"
    path.unlink(missing_ok=True)
    try:
        write_trace(events, str(path))
    except ValueError:
        assert not path.exists()
        return
    assert read_trace(str(path)) == events
    export_csv(str(path), str(io_dir / "t.csv"))
    assert ref_csv_rows(str(io_dir / "t.csv")) == events


def test_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.bin"
    write_trace([], str(path))
    assert read_trace(str(path)) == []
    assert path.stat().st_size == 14  # header only


# how a header is broken, given a valid trace's bytes: the broken bytes, the
# message the reader gives and the byte offset it names
_HEADER_BREAKS = {
    "magic": lambda raw: (b"XXXX" + raw[4:], "bad magic b'XXXX'", 0),
    "version": lambda raw: (raw[:4] + bytes([FORMAT_VERSION + 1]) + raw[5:],
                            f"unsupported version {FORMAT_VERSION + 1}", 4),
    "short-header": lambda raw: (raw[:10], "truncated header", 10),
    "truncated": lambda raw: (raw[:-7], f"truncated record data: expected {len(raw)} bytes, "
                              f"got {len(raw) - 7}", len(raw) - 7),
    "trailing": lambda raw: (raw + b"\x00", "trailing bytes after last record", len(raw)),
}


@pytest.mark.parametrize("how", list(_HEADER_BREAKS))
def test_a_bad_header_fails_at_its_byte_offset(tmp_path, how):
    path = tmp_path / "t.bin"
    write_trace(small_trace(ops=10), str(path))
    raw, message, at = _HEADER_BREAKS[how](path.read_bytes())
    path.write_bytes(raw)
    with pytest.raises(TraceFormatError) as err:
        read_trace(str(path))
    assert (str(err.value), err.value.offset) == (f"{message} (byte offset {at})", at)


@pytest.fixture(scope="module")
def valid_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corrupt") / "ok.bin"
    events = small_trace("mongo", seed=3, ops=12)
    events.append(TraceEvent(EventKind.EVICT, U64_MAX, PageKey(U64_MAX, U64_MAX, U64_MAX)))
    write_trace(events, str(path))
    return path


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_corrupted_trace_is_rejected_or_read_exactly(valid_trace_path, data):
    # overwrite up to 8 random bytes of a valid trace, then maybe truncate it;
    # the reader may only raise TraceFormatError or return events that write
    # back to the very same bytes
    corrupt = bytearray(valid_trace_path.read_bytes())
    for _ in range(data.draw(st.integers(0, 8), label="n_overwrites")):
        pos = data.draw(st.integers(0, len(corrupt) - 1), label="pos")
        corrupt[pos] = data.draw(st.integers(0, 255), label="byte")
    if data.draw(st.booleans(), label="truncate"):
        del corrupt[data.draw(st.integers(0, len(corrupt)), label="keep"):]
    bad = valid_trace_path.with_name("bad.bin")
    bad.write_bytes(bytes(corrupt))
    try:
        events = read_trace(str(bad))
    except TraceFormatError:
        return
    again = valid_trace_path.with_name("again.bin")
    write_trace(events, str(again))
    assert again.read_bytes() == bytes(corrupt)


_KEY = st.builds(PageKey, st.sampled_from([0, 1, U64_MAX]), st.integers(0, 3),
                 st.sampled_from([0, 1, 2, U64_MAX - 1]))


def _traces(min_size=0):
    """Valid traces with repeated pages: sorted times of at least 1, so any
    record after the first can be made to go back in time, and offsets short
    of the last u64, which only Insert/Evict may hold."""
    rows = st.lists(st.tuples(st.sampled_from(list(EventKind)), st.integers(1, U64_MAX), _KEY),
                    min_size=min_size, max_size=40)
    return rows.map(lambda rows: [TraceEvent(kind, t, key) for (kind, _, key), t
                                  in zip(rows, sorted(t for _, t, _ in rows))])


@settings(deadline=None, max_examples=150)
@given(events=_traces(), chunk=st.integers(1, 8))
@example(events=small_trace("mongo", seed=5), chunk=8)
@example(events=small_trace("copyfiles", seed=9, ops=40), chunk=8)
def test_streaming_reader_yields_the_trace_across_chunk_boundaries(io_dir, events, chunk):
    path = io_dir / "stream.bin"
    write_trace(events, str(path))
    with mock.patch.object(trace, "_CHUNK_RECORDS", chunk):
        streamed = list(iter_trace(str(path)))
        assert streamed == read_trace(str(path)) == events
    # one shared key per page, also across chunks
    assert len({id(ev.key) for ev in streamed}) == len({ev.key for ev in streamed})


# how a record is broken, and the message the trace rule gives for it
_BREAKS = {
    "kind": (lambda rec, prev_t: bytes([7]) + rec[1:], "invalid event kind 7"),
    "unsorted": (lambda rec, prev_t: rec[:1] + (prev_t - 1).to_bytes(8, "little") + rec[9:],
                 "timestamps not sorted"),
    "last-offset": (lambda rec, prev_t: bytes([0]) + rec[1:25] + b"\xff" * 8,
                    f"access offset above {U64_MAX - 1}"),
}


@settings(deadline=None, max_examples=150)
@given(events=_traces(min_size=2), data=st.data(), chunk=st.integers(1, 8),
       how=st.sampled_from(sorted(_BREAKS)))
def test_a_bad_record_fails_at_its_byte_offset_in_any_chunk(io_dir, events, data, chunk, how):
    i = data.draw(st.integers(1 if how == "unsorted" else 0, len(events) - 1), label="i")
    path = io_dir / "broken.bin"
    write_trace(events, str(path))
    raw = bytearray(path.read_bytes())
    at = 14 + 33 * i
    brk, message = _BREAKS[how]
    raw[at:at + 33] = brk(raw[at:at + 33], events[i - 1].t_ns if i else 0)
    path.write_bytes(bytes(raw))
    with mock.patch.object(trace, "_CHUNK_RECORDS", chunk):
        with pytest.raises(TraceFormatError) as err:
            read_trace(str(path))
        assert (str(err.value), err.value.offset) == (f"{message} (byte offset {at})", at)
        # the stream yields every record before the bad one, then fails the same way
        stream = iter_trace(str(path))
        assert [next(stream) for _ in range(i)] == events[:i]
        with pytest.raises(TraceFormatError) as again:
            next(stream)
        assert str(again.value) == str(err.value)


@pytest.mark.parametrize("how", sorted(_BREAKS))
def test_csv_export_of_a_bad_trace_fails_at_the_record_and_writes_nothing(tmp_path, monkeypatch, how):
    # the last record is bad; at two records a chunk, the reader has read the
    # records before it in earlier chunks
    events = small_trace(ops=10)
    path, csv_path = tmp_path / "t.bin", tmp_path / "t.csv"
    write_trace(events, str(path))
    raw = bytearray(path.read_bytes())
    at = 14 + 33 * (len(events) - 1)
    brk, message = _BREAKS[how]
    raw[at:] = brk(raw[at:], events[-2].t_ns)
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(trace, "_CHUNK_RECORDS", 2)
    with pytest.raises(TraceFormatError) as err:
        export_csv(str(path), str(csv_path))
    assert (str(err.value), err.value.offset) == (f"{message} (byte offset {at})", at)
    assert not csv_path.exists()


def test_a_trace_that_shrinks_while_it_streams_is_rejected(tmp_path, monkeypatch):
    path = tmp_path / "t.bin"
    events = small_trace(ops=400)
    write_trace(events, str(path))
    monkeypatch.setattr(trace, "_CHUNK_RECORDS", 2)
    stream = iter_trace(str(path))
    assert next(stream) == events[0]  # the header checked, the first chunk read
    # cut the file well past what the reader has buffered
    size = 14 + 33 * (len(events) // 2) + 5
    assert size > 3 * 8192
    os.truncate(path, size)
    with pytest.raises(TraceFormatError, match="truncated record data") as err:
        list(stream)
    assert err.value.offset == size
