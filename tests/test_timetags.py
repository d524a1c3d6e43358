import struct
import tracemalloc

import numpy as np
import pytest

from emitterforge.errors import DomainError, FormatError
from emitterforge.timetags import (
    MAGIC,
    RECORD_SIZE,
    TimeTagStream,
    merge_streams,
    read_timetags,
    write_timetags,
)

HEADER_SIZE = struct.calcsize("<4sHQQ")


def _stream(ticks, channels=None, resolution=1e-12, duration=1.0):
    ticks = np.asarray(ticks, dtype=np.int64)
    if channels is None:
        channels = np.zeros(ticks.shape, dtype=np.uint8)
    return TimeTagStream(resolution, np.asarray(channels, dtype=np.uint8), ticks, duration)


def test_record_is_nine_bytes():
    assert RECORD_SIZE == 9


def test_from_times_floor_quantization():
    s = TimeTagStream.from_times([0.0, 1.9999e-12, 2.0001e-12], 0, 1e-12, 1.0)
    assert s.timestamps.tolist() == [0, 1, 2]


def test_validation():
    with pytest.raises(DomainError):
        _stream([3, 2, 5])  # decreasing
    with pytest.raises(DomainError):
        _stream([-1, 2])
    with pytest.raises(DomainError):
        TimeTagStream(0.0, np.zeros(1, np.uint8), np.zeros(1, np.int64), 1.0)
    with pytest.raises(DomainError):
        _stream([1, 2], channels=[0])


def test_select_keeps_one_channel():
    s = _stream([10, 20, 30, 40], channels=[0, 1, 0, 1], resolution=1e-9, duration=2.0)
    a = s.select(0)
    assert a.timestamps.tolist() == [10, 30]
    assert a.channels.tolist() == [0, 0]


@pytest.mark.parametrize("channel", [5, 300, -1])
def test_select_absent_or_out_of_range_channel_is_empty(channel):
    s = _stream([10, 20, 30], channels=[0, 255, 0], duration=2.0)
    picked = s.select(channel)
    assert picked.n_tags == 0
    assert picked.channels.dtype == np.uint8 and picked.timestamps.dtype == np.int64
    assert picked.resolution == s.resolution and picked.duration == 2.0


def test_channel_list():
    assert _stream([], duration=0.0).channel_list() == []
    s = _stream([1, 2, 3, 4], channels=[255, 0, 255, 0])
    assert s.channel_list() == [0, 255]
    assert all(type(c) is int for c in s.channel_list())
    assert s.select(255).channels.tolist() == [255, 255]


def test_merge_orders_and_breaks_ties_by_channel():
    a = _stream([5, 7], channels=[1, 1], duration=1.0)
    b = _stream([5, 6], channels=[0, 0], duration=2.0)
    m = merge_streams(a, b)
    assert m.timestamps.tolist() == [5, 5, 6, 7]
    assert m.channels.tolist() == [0, 1, 0, 1]
    assert m.duration == 2.0
    with pytest.raises(DomainError):
        merge_streams(a, _stream([1], resolution=2e-12))


def test_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    ticks = np.sort(rng.integers(0, 10**12, size=5000))
    chans = rng.integers(0, 2, size=5000)
    s = _stream(ticks, channels=chans, resolution=1e-12, duration=1.5)
    p1, p2 = tmp_path / "a.ttg", tmp_path / "b.ttg"
    write_timetags(s, p1)
    r = read_timetags(p1)
    assert r.resolution == s.resolution
    assert np.array_equal(r.timestamps, s.timestamps)
    assert np.array_equal(r.channels, s.channels)
    write_timetags(r, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_stream_file_is_header_only(tmp_path):
    p = tmp_path / "empty.ttg"
    write_timetags(_stream([], duration=0.5), p)
    assert p.stat().st_size == HEADER_SIZE
    r = read_timetags(p)
    assert r.n_tags == 0


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ttg"
    p.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(FormatError) as err:
        read_timetags(p)
    assert err.value.offset == 0


def test_truncated_file_reports_byte_count(tmp_path):
    p = tmp_path / "t.ttg"
    write_timetags(_stream([1, 2, 3]), p)
    whole = p.read_bytes()
    p.write_bytes(whole[:-5])
    with pytest.raises(FormatError, match="bytes"):
        read_timetags(p)


def test_unsorted_file_names_first_violation(tmp_path):
    p = tmp_path / "u.ttg"
    write_timetags(_stream([10, 20, 30]), p)
    raw = bytearray(p.read_bytes())
    # overwrite the third record's timestamp with a smaller value
    rec_off = HEADER_SIZE + 2 * RECORD_SIZE
    raw[rec_off + 1 : rec_off + 9] = struct.pack("<Q", 5)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        read_timetags(p)
    assert err.value.offset == rec_off


def test_header_count_must_match_payload(tmp_path):
    p = tmp_path / "c.ttg"
    header = struct.pack("<4sHQQ", MAGIC, 1, 1, 7)  # claims 7 records
    p.write_bytes(header + b"\x00" * RECORD_SIZE)
    with pytest.raises(FormatError):
        read_timetags(p)


def test_read_timetags_reads_records_in_place(tmp_path):
    # the file bytes, the int64 timestamps and the channel copy come to
    # about twice the file size; a copy of the record body would add a third
    n = 1_200_000
    p = tmp_path / "big.ttg"
    ticks = np.arange(n, dtype=np.int64) * 7
    write_timetags(_stream(ticks, channels=ticks % 2, duration=float(n)), p)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        stream = read_timetags(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.n_tags == n
    assert peak < 2.5 * size, f"peak {peak / size:.2f} x the file size"
