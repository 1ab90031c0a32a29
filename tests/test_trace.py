"""Workload generation and trace serialization."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learnedcache.errors import ConfigurationError, TraceFormatError
from learnedcache.trace import (
    FORMAT_VERSION,
    MAGIC,
    WORKLOAD_KINDS,
    EventKind,
    PageKey,
    TraceEvent,
    default_spec,
    export_csv,
    generate_workload,
    read_csv_trace,
    read_trace,
    write_trace,
)

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
    with pytest.raises(ConfigurationError):
        default_spec("nosuchthing")


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_generated_traces_are_sorted_access_only_and_deterministic(kind):
    events = small_trace(kind)
    assert events, kind
    assert all(ev.kind == EventKind.ACCESS for ev in events)
    assert all(a.t_ns <= b.t_ns for a, b in zip(events, events[1:]))
    assert events == small_trace(kind)


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


def test_sizebias_file_sizes_grow_linearly():
    events = generate_workload(default_spec("synthetic_sizebias", seed=0, n_ops=200))
    max_off: dict[int, int] = {}
    for ev in events:
        max_off[ev.key.inode] = max(max_off.get(ev.key.inode, 0), ev.key.offset)
    for inode, top in max_off.items():
        i = inode - 100
        assert top == 4 + 4 * i - 1


def test_binary_round_trip_preserves_events(tmp_path):
    events = small_trace("mongo", seed=5)
    path = tmp_path / "t.bin"
    write_trace(events, str(path))
    assert read_trace(str(path)) == events


def test_binary_round_trip_is_byte_stable(tmp_path):
    events = small_trace("copyfiles", seed=9, ops=40)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_trace(events, str(p1))
    write_trace(read_trace(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_binary_format_handles_u64_extremes(tmp_path):
    events = [
        TraceEvent(EventKind.ACCESS, 0, PageKey(0, 0, 0)),
        TraceEvent(EventKind.EVICT, U64_MAX, PageKey(U64_MAX, U64_MAX, U64_MAX)),
    ]
    path = tmp_path / "x.bin"
    write_trace(events, str(path))
    assert read_trace(str(path)) == events


def test_read_rejects_an_access_at_the_last_u64_offset(tmp_path):
    path = tmp_path / "x.bin"
    write_trace([TraceEvent(EventKind.ACCESS, 0, PageKey(0, 0, U64_MAX - 1)),
                 TraceEvent(EventKind.ACCESS, 1, PageKey(0, 0, U64_MAX - 1))], str(path))
    # the writer refuses the last u64 offset, so patch it into the second
    # record's offset, the file's last 8 bytes
    path.write_bytes(path.read_bytes()[:-8] + b"\xff" * 8)
    with pytest.raises(TraceFormatError, match="access offset") as err:
        read_trace(str(path))
    assert err.value.offset == 14 + 33  # the second record


def test_write_rejects_an_access_at_the_last_u64_offset(tmp_path):
    path = tmp_path / "x.bin"
    events = [TraceEvent(EventKind.ACCESS, 0, PageKey(0, 0, U64_MAX - 1)),
              TraceEvent(EventKind.ACCESS, 1, PageKey(0, 0, U64_MAX))]
    with pytest.raises(ValueError, match="access offset"):
        write_trace(events, str(path))
    assert not path.exists()


WRITERS = [(write_trace, read_trace, "t.bin"), (export_csv, read_csv_trace, "t.csv")]


@pytest.mark.parametrize("write,read,name", WRITERS, ids=["binary", "csv"])
def test_readers_return_event_kind_members(tmp_path, write, read, name):
    # EventKind is an IntEnum, so an int kind would still compare equal to
    # its member; the round trips cannot tell the two apart
    events = [TraceEvent(kind, t, PageKey(1, 2, t)) for t, kind in enumerate(EventKind)]
    write(events, str(tmp_path / name))
    got = read(str(tmp_path / name))
    assert got == events
    assert [type(ev.kind) for ev in got] == [EventKind] * 3


@pytest.mark.parametrize("write,name", [(w, name) for w, _, name in WRITERS], ids=["binary", "csv"])
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
@example(events=[TraceEvent(EventKind.EVICT, U64_MAX, PageKey(U64_MAX, U64_MAX, U64_MAX))], sort=False)
def test_each_writer_refuses_what_its_reader_refuses(io_dir, events, sort):
    # a writer either raises ValueError and writes nothing, or its reader
    # returns exactly the events written
    if sort:
        events.sort(key=lambda ev: ev.t_ns)
    for write, read, name in WRITERS:
        path = io_dir / name
        path.unlink(missing_ok=True)
        try:
            write(events, str(path))
        except ValueError:
            assert not path.exists()
            continue
        assert read(str(path)) == events


def test_empty_trace_round_trips(tmp_path):
    path = tmp_path / "empty.bin"
    write_trace([], str(path))
    assert read_trace(str(path)) == []
    assert path.stat().st_size == 14  # header only


def test_write_rejects_unsorted_events(tmp_path):
    events = [
        TraceEvent(EventKind.ACCESS, 10, PageKey(1, 1, 0)),
        TraceEvent(EventKind.ACCESS, 5, PageKey(1, 1, 1)),
    ]
    with pytest.raises(ValueError):
        write_trace(events, str(tmp_path / "bad.bin"))


def _valid_trace_bytes(tmp_path):
    path = tmp_path / "ok.bin"
    write_trace(small_trace(ops=10), str(path))
    return path.read_bytes()


def test_read_rejects_bad_magic(tmp_path):
    data = _valid_trace_bytes(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(TraceFormatError) as err:
        read_trace(str(bad))
    assert err.value.offset == 0


def test_read_rejects_unknown_version(tmp_path):
    data = bytearray(_valid_trace_bytes(tmp_path))
    assert data[:4] == MAGIC
    data[4] = FORMAT_VERSION + 1
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError):
        read_trace(str(bad))


def test_read_rejects_truncated_file(tmp_path):
    data = _valid_trace_bytes(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data[:-7])
    with pytest.raises(TraceFormatError):
        read_trace(str(bad))


def test_read_rejects_trailing_bytes(tmp_path):
    data = _valid_trace_bytes(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data + b"\x00")
    with pytest.raises(TraceFormatError):
        read_trace(str(bad))


def test_read_rejects_invalid_kind_byte(tmp_path):
    data = bytearray(_valid_trace_bytes(tmp_path))
    data[14] = 9  # first record's kind field, right after the 14-byte header
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError):
        read_trace(str(bad))


def test_read_rejects_unsorted_records(tmp_path):
    events = [
        TraceEvent(EventKind.ACCESS, 100, PageKey(1, 1, 0)),
        TraceEvent(EventKind.ACCESS, 200, PageKey(1, 1, 1)),
    ]
    path = tmp_path / "t.bin"
    write_trace(events, str(path))
    data = bytearray(path.read_bytes())
    # swap the two fixed-size records in place
    rec = 33
    data[14:14 + rec], data[14 + rec:14 + 2 * rec] = (
        data[14 + rec:14 + 2 * rec],
        data[14:14 + rec],
    )
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFormatError):
        read_trace(str(path))


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


def test_csv_round_trip(tmp_path):
    rng = random.Random(3)
    t = 0
    events = []
    for _ in range(50):
        t += rng.randint(0, 10_000)
        kind = EventKind(rng.randrange(3))
        events.append(TraceEvent(kind, t, PageKey(1, rng.randrange(5), rng.randrange(20))))
    path = tmp_path / "t.csv"
    export_csv(events, str(path))
    assert read_csv_trace(str(path)) == events
    header = path.read_text().splitlines()[0]
    assert header == "kind,t_ns,dev,inode,offset"


def test_csv_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("kind,time,dev,inode,offset\nAccess,1,1,1,0\n")
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))


def test_csv_reader_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("kind,t_ns,dev,inode,offset\nAccess,1,1,1\n")
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))


def test_csv_reader_rejects_unknown_kind_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("kind,t_ns,dev,inode,offset\nTouch,1,1,1,0\n")
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))


def test_csv_reader_rejects_non_integer_fields(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("kind,t_ns,dev,inode,offset\nAccess,1.5,1,1,0\n")
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))


@pytest.mark.parametrize("row", [
    "Access,1,1,1,18446744073709551615",  # offset + 1 overflows the file size
    "Access,1,1,1,-1",
    "Evict,1,1,18446744073709551616,0",
])
def test_csv_reader_rejects_out_of_range_fields(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text(f"kind,t_ns,dev,inode,offset\n{row}\n")
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))


def test_csv_reader_rejects_unsorted_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "kind,t_ns,dev,inode,offset\nAccess,10,1,1,0\nAccess,5,1,1,1\n"
    )
    with pytest.raises(TraceFormatError):
        read_csv_trace(str(path))
