"""Fast detection, merge and correlation paths against reference versions.

The oracles are the straightforward versions the fast paths replaced: the
tag-by-tag dead-time loop, the three-key ``lexsort`` merge and a pair-by-pair
coincidence count. The fast paths must agree with them exactly, tag for tag
and bin for bin.
"""
import concurrent.futures
import math
import struct
import threading
import warnings
from decimal import ROUND_HALF_UP, Decimal
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitterforge import correlator, photonsim
from emitterforge.correlator import correlate
from emitterforge.errors import DomainError, FormatError
from emitterforge.photonsim import (
    _SCALAR_BURSTS,
    _THREADED_TAGS,
    EmitterModel,
    _dead_time_filter,
    _emitter_times,
    simulate_emitter_tags,
    steady_state_rate,
)
from emitterforge.timetags import (
    RECORD_SIZE,
    TimeTagStream,
    merge_streams,
    read_timetags,
    write_timetags,
)

HEADER_SIZE = struct.calcsize("<4sHQQ")


def dead_time_loop(ticks: np.ndarray, dead_ticks: int) -> np.ndarray:
    """Reference non-paralyzable dead time, one tag at a time."""
    if dead_ticks <= 0 or ticks.size == 0:
        return ticks
    keep = np.zeros(ticks.size, dtype=bool)
    last = -dead_ticks - 1
    for i, t in enumerate(ticks.tolist()):
        if t - last >= dead_ticks:
            keep[i] = True
            last = t
    return ticks[keep]


def lexsort_merge(*streams: TimeTagStream) -> TimeTagStream:
    """Reference merge: one ``lexsort`` on (timestamp, channel, source)."""
    if not streams:
        raise DomainError("need at least one stream")
    resolution = streams[0].resolution
    for s in streams:
        if s.resolution != resolution:
            raise DomainError("streams have mismatched resolutions")
    channels = np.concatenate([s.channels for s in streams])
    timestamps = np.concatenate([s.timestamps for s in streams])
    source = np.concatenate(
        [np.full(s.n_tags, i, dtype=np.int64) for i, s in enumerate(streams)]
    )
    order = np.lexsort((source, channels, timestamps))
    duration = max(s.duration for s in streams)
    return TimeTagStream(resolution, channels[order], timestamps[order], duration)


def _check_dead_time(ticks, dead_ticks):
    ticks = np.asarray(ticks, dtype=np.int64)
    expected = dead_time_loop(ticks, dead_ticks)
    got = _dead_time_filter(ticks, dead_ticks)
    assert got.dtype == np.int64
    assert got.tolist() == expected.tolist()


# -- dead time ----------------------------------------------------------

sorted_ticks = st.lists(st.integers(0, 400), max_size=300).map(sorted)


@settings(deadline=None)
@given(ticks=sorted_ticks, dead_ticks=st.integers(0, 60))
def test_dead_time_matches_loop(ticks, dead_ticks):
    _check_dead_time(ticks, dead_ticks)


@settings(deadline=None)
@given(ticks=st.lists(st.integers(0, 30), max_size=200).map(sorted))
def test_dead_time_one_tick_drops_only_ties(ticks):
    _check_dead_time(ticks, 1)
    assert _dead_time_filter(np.asarray(ticks, np.int64), 1).tolist() == sorted(set(ticks))


@settings(deadline=None)
@given(
    gaps=st.lists(st.integers(0, 9), min_size=1, max_size=2000),
    dead_ticks=st.integers(10, 200),
)
def test_dead_time_one_long_burst(gaps, dead_ticks):
    # every gap is shorter than the dead time: one burst, walked tag by tag
    _check_dead_time(np.cumsum(gaps), dead_ticks)


@settings(deadline=None)
@given(
    bursts=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        min_size=_SCALAR_BURSTS + 1,
        max_size=6 * _SCALAR_BURSTS,
    ),
    dead_ticks=st.integers(8, 30),
    extra=st.integers(0, 50),
)
def test_dead_time_many_bursts(bursts, dead_ticks, extra):
    # more bursts than the scalar tail, of mixed lengths, separated by gaps
    # of at least the dead time (exactly the dead time when extra is 0)
    ticks, t = [], 0
    for gaps in bursts:
        t += dead_ticks + extra
        for g in gaps:
            t += g
            ticks.append(t)
    _check_dead_time(ticks, dead_ticks)


@pytest.mark.parametrize("dead_ticks", [0, 1, 5])
def test_dead_time_empty_and_zero(dead_ticks):
    _check_dead_time([], dead_ticks)
    ticks = np.array([0, 0, 3, 3, 3, 9], np.int64)
    _check_dead_time(ticks, dead_ticks)
    if dead_ticks == 0:
        assert _dead_time_filter(ticks, 0) is ticks


# -- merge ----------------------------------------------------------------

@st.composite
def streams(draw):
    n = draw(st.integers(0, 40))
    ticks = sorted(draw(st.lists(st.integers(0, 25), min_size=n, max_size=n)))
    if draw(st.booleans()):
        channels = [draw(st.integers(0, 3))] * n
    else:
        channels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    duration = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return TimeTagStream(1e-12, np.asarray(channels, np.uint8), np.asarray(ticks, np.int64), duration)


def _check_merge(inputs):
    expected = lexsort_merge(*inputs)
    got = merge_streams(*inputs)
    assert got.resolution == expected.resolution
    assert got.duration == expected.duration
    assert got.timestamps.dtype == np.int64 and got.channels.dtype == np.uint8
    assert got.timestamps.tolist() == expected.timestamps.tolist()
    assert got.channels.tolist() == expected.channels.tolist()


@settings(deadline=None)
@given(inputs=st.lists(streams(), min_size=1, max_size=6))
def test_merge_matches_lexsort(inputs):
    _check_merge(inputs)


@settings(deadline=None)
@given(
    ticks=st.lists(st.integers(0, 5), max_size=60).map(sorted),
    data=st.data(),
)
def test_merge_one_mixed_stream_sorts_ties_by_channel(ticks, data):
    channels = data.draw(st.lists(st.integers(0, 2), min_size=len(ticks), max_size=len(ticks)))
    stream = TimeTagStream(1e-12, np.asarray(channels, np.uint8), np.asarray(ticks, np.int64), 1.0)
    _check_merge([stream])


def test_merge_zero_streams_raises():
    with pytest.raises(DomainError):
        merge_streams()


def test_merge_empty_and_single_channel_streams():
    empty = TimeTagStream(1e-12, np.empty(0, np.uint8), np.empty(0, np.int64), 3.0)
    one = TimeTagStream(1e-12, np.ones(3, np.uint8), np.array([1, 2, 2], np.int64), 1.0)
    zero = TimeTagStream(1e-12, np.zeros(2, np.uint8), np.array([2, 2], np.int64), 1.0)
    _check_merge([empty])
    _check_merge([empty, empty])
    _check_merge([one, empty])
    _check_merge([empty, one])
    _check_merge([one])
    _check_merge([one, zero])  # ties out of channel order across streams


@settings(deadline=None)
@given(
    ticks=st.lists(st.lists(st.integers(0, 6), max_size=30).map(sorted), min_size=1, max_size=4),
    channel=st.integers(0, 3),
)
def test_merge_one_channel_matches_lexsort(ticks, channel):
    # the one-channel path sorts timestamps alone; ties repeat across streams
    inputs = [
        TimeTagStream(1e-12, np.full(len(t), channel, np.uint8), np.asarray(t, np.int64), 1.0)
        for t in ticks
    ]
    inputs.append(TimeTagStream(1e-12, np.empty(0, np.uint8), np.empty(0, np.int64), 2.0))
    before = [s.timestamps.copy() for s in inputs]
    _check_merge(inputs)
    assert all(np.array_equal(s.timestamps, b) for s, b in zip(inputs, before))


@pytest.mark.parametrize("n_emitters", [0, 1, 2, 5])
def test_emitter_tags_equal_merge_of_each_emitter(n_emitters):
    # each emitter quantized on its own, then all ticks sorted together
    model = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)
    children = np.random.SeedSequence(9).spawn(n_emitters)
    per_emitter = [
        TimeTagStream.from_times(
            _emitter_times(model, 300e-6, 2e-3, np.random.default_rng(c)), 0, 1e-12, 2e-3
        )
        for c in children
    ]
    got = simulate_emitter_tags([model] * n_emitters, 300e-6, 2e-3, seed=9)
    assert got.duration == 2e-3 and not got.channels.any()
    expected = [t for s in per_emitter for t in s.timestamps.tolist()]
    assert got.timestamps.tolist() == sorted(expected)


_SHELVING = EmitterModel(
    lifetime=5e-9, sat_power=100e-6, sat_rate=5e5, shelving_rate=2e7, deshelving_rate=1e6
)


_TWO_LEVEL = EmitterModel(lifetime=50e-9, sat_power=150e-6, sat_rate=2e6)


@pytest.mark.parametrize("models", [
    [_TWO_LEVEL] * 2, [_TWO_LEVEL] * 3, [_TWO_LEVEL] * 5, [_SHELVING] * 2, [_SHELVING, _TWO_LEVEL],
], ids=["N2", "N3", "N5", "shelving", "mixed"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_threaded_emitter_tags_equal_each_emitters_ticks(models, cpus, monkeypatch):
    # twice the thread constant's tags: on 2 CPUs each emitter is drawn on
    # a thread, on 1 CPU all on the calling thread, with the same ticks
    power = 300e-6
    duration = 2 * _THREADED_TAGS / sum(steady_state_rate(m, power) for m in models)
    pools = []

    class RecordedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(photonsim, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    threads = threading.active_count()
    got = simulate_emitter_tags(models, power, duration, seed=11)
    assert threading.active_count() == threads
    assert pools == ([] if cpus == 1 else [2])
    children = np.random.SeedSequence(11).spawn(len(models))
    expected = np.sort(np.concatenate([
        TimeTagStream.from_times(
            _emitter_times(m, power, duration, np.random.default_rng(c)), 0, 1e-12, duration
        ).timestamps
        for m, c in zip(models, children)
    ]))
    assert got.duration == duration and not got.channels.any()
    assert got.timestamps.dtype == np.int64 and np.array_equal(got.timestamps, expected)


# -- validation at the public entry points --------------------------------

@pytest.mark.parametrize("ticks", [[3, 2, 5], [-1, 2], [-5], [5, -(2**63)]])
def test_constructor_rejects_unsorted_or_negative(ticks):
    with pytest.raises(DomainError):
        TimeTagStream(1e-12, np.zeros(len(ticks), np.uint8), np.asarray(ticks, np.int64), 1.0)


def test_from_times_rejects_negative_time():
    with pytest.raises(DomainError):
        TimeTagStream.from_times([-1e-9, 2e-9], 0, 1e-12, 1.0)


def _ttg_with_timestamps(path, values):
    stream = TimeTagStream(1e-12, np.zeros(len(values), np.uint8), np.arange(len(values)), 1.0)
    write_timetags(stream, path)
    raw = bytearray(path.read_bytes())
    for i, v in enumerate(values):
        off = HEADER_SIZE + i * RECORD_SIZE + 1
        raw[off:off + 8] = struct.pack("<Q", v)
    path.write_bytes(bytes(raw))


def test_read_timetags_rejects_unsorted(tmp_path):
    p = tmp_path / "u.ttg"
    _ttg_with_timestamps(p, [10, 30, 20])
    with pytest.raises(FormatError) as err:
        read_timetags(p)
    assert err.value.offset == HEADER_SIZE + 2 * RECORD_SIZE


@pytest.mark.parametrize("values", [[2**63], [2**64 - 1, 2**64 - 1], [5, 2**63]])
def test_read_timetags_rejects_timestamps_past_int64(tmp_path, values):
    # a u64 timestamp of 2**63 or more would be negative as int64
    p = tmp_path / "big.ttg"
    _ttg_with_timestamps(p, values)
    with pytest.raises(FormatError) as err:
        read_timetags(p)
    assert err.value.offset == HEADER_SIZE + values.index(max(values)) * RECORD_SIZE


# -- correlator -----------------------------------------------------------


def brute_force_counts(a_ticks, b_ticks, bin_ticks: int, m_bins: int) -> list[int]:
    """Reference coincidence counts: every pair, delay b - a divided by the
    bin width in exact decimal arithmetic and rounded half away from zero
    (``ROUND_HALF_UP``), kept when the bin index is within +-m_bins."""
    raw = [0] * (2 * m_bins + 1)
    for a in a_ticks:
        for b in b_ticks:
            k = int((Decimal(b - a) / bin_ticks).to_integral_value(ROUND_HALF_UP))
            if abs(k) <= m_bins:
                raw[k + m_bins] += 1
    return raw


@st.composite
def correlation_cases(draw):
    """Small streams whose delays often sit exactly on a bin edge
    (k + 1/2 bin widths, an integer tick count when ``bin_ticks`` is
    even), one tick either side of it, or on the window's outer edge.
    Half the cases are shifted so the last tag sits at 2**63 - 1 ticks,
    where a tag plus the window's reach passes int64. A quarter of them
    have bins of 2**59 to 2**61 ticks and tags spread over up to 1.5 * 2**62
    ticks, so a delay or twice a delay passes int64; their bins are
    multiples of 2**11 on a tick of 2**-40 s, so the bin width converts
    to seconds and back to ticks exactly."""
    huge = draw(st.integers(0, 3)) == 0
    if huge:
        resolution = 2.0**-40
        bin_ticks = draw(st.integers(2**48, 2**50)) << 11
    else:
        resolution = 1e-12
        bin_ticks = draw(st.integers(1, 12))
    m_bins = draw(st.integers(1, 6))
    a_ticks = draw(
        st.lists(st.integers(0, 3 * 2**61 if huge else 200), min_size=1, max_size=12)
    )
    half = bin_ticks // 2
    edges = [
        sign * (k * bin_ticks + half) + nudge
        for sign in (-1, 1)
        for k in range(m_bins + 2)
        for nudge in (-1, 0, 1)
    ]
    near = st.tuples(st.sampled_from(a_ticks), st.sampled_from(edges)).map(sum)
    b_ticks = draw(
        st.lists(
            st.one_of(near, near, st.integers(0, 3 * 2**61 if huge else 200)),
            min_size=1,
            max_size=25,
        )
    )
    b_ticks = [min(max(t, 0), 2**63 - 1) for t in b_ticks]
    n_chunks = draw(st.integers(1, 8))
    offset = draw(st.sampled_from([0, 2**63 - 1 - max(a_ticks + b_ticks)]))
    a_ticks = sorted(t + offset for t in a_ticks)
    b_ticks = sorted(t + offset for t in b_ticks)
    return a_ticks, b_ticks, bin_ticks, m_bins, n_chunks, resolution


def past_int64(a_ticks, b_ticks, bin_ticks, m_bins) -> bool:
    """Whether the delays within the window's outer edge, stretched by 1.5
    bins, span 2**63 ticks or more: the only cases the correlator may refuse."""
    outer = m_bins * bin_ticks + bin_ticks // 2
    ahead = min(outer, max(b_ticks[-1] - a_ticks[0], 0))
    behind = min(outer, max(a_ticks[-1] - b_ticks[0], 0))
    return ahead + behind + 3 * bin_ticks // 2 >= 2**63


def correlate_warned(a, b, bin_width, window):
    """``correlate``, which warns exactly when the window is longer than the
    acquisition (these cases draw such windows on purpose)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hist = correlate(a, b, bin_width=bin_width, window=window)
    long = window > max(a.duration, b.duration)
    assert [str(w.message) for w in caught] == (
        [f"window {window:g} s is longer than the {max(a.duration, b.duration):g} s acquisition"]
        if long else []
    )
    return hist


@settings(deadline=None, max_examples=300)
@given(case=correlation_cases())
def test_correlate_matches_brute_force_pair_count(case):
    a_ticks, b_ticks, bin_ticks, m_bins, n_chunks, res = case
    duration = (max(a_ticks + b_ticks) + 1) * res
    a = TimeTagStream(res, np.zeros(len(a_ticks), np.uint8), a_ticks, duration)
    b = TimeTagStream(res, np.ones(len(b_ticks), np.uint8), b_ticks, duration)
    bin_width, window = bin_ticks * res, m_bins * bin_ticks * res
    expected = brute_force_counts(a_ticks, b_ticks, bin_ticks, m_bins)
    try:
        hist = correlate_warned(a, b, bin_width, window)
    except DomainError as err:
        assert "int64 limit of 2**63 ticks" in str(err)
        assert past_int64(a_ticks, b_ticks, bin_ticks, m_bins)
        return
    assert hist.raw.tolist() == expected
    # parts of at most ceil(n_A / n_chunks) starts: n_chunks parts or fewer;
    # with no part walking to its stops, and with every part doing so
    for sparse in (0.0, math.inf):
        with patch.object(correlator, "_A_CHUNK", -(-len(a_ticks) // n_chunks)), \
                patch.object(correlator, "_SPARSE_PAIRS", sparse):
            chunked = correlate_warned(a, b, bin_width, window)
        assert chunked.raw.tolist() == expected


@pytest.mark.parametrize("seed", range(6))
def test_stop_walk_matches_search(seed):
    # runs of equal tags, starts with no stop, with stops past the last B
    # tag and with more than four stops, which fall back to the search
    rng = np.random.default_rng(seed)
    b_part = np.sort(rng.integers(0, 60, rng.integers(1, 40)))
    starts = np.sort(rng.integers(-10, 70, 200))
    behind, ahead = rng.integers(0, 8, 2)
    lo = np.searchsorted(b_part, starts - behind, side="left")
    stop = starts + ahead
    assert np.array_equal(
        correlator._stop_index(b_part, lo, stop), np.searchsorted(b_part, stop, side="right")
    )


@pytest.mark.parametrize(
    "a_ticks,b_ticks,chunk",
    [
        # the first part's B slice is empty: B starts past its reach
        ([0, 1, 2, 1000, 1001], [500, 998, 1003], 2),
        # the last starts' stops run past the last B tag
        ([7, 9, 10, 11], [8, 9, 10], 2),
        # a sparse part whose start at 10**6 has six stops
        ([0, 10**6, 2 * 10**6], [5, *range(10**6 - 3, 10**6 + 3), 2 * 10**6 - 9], 3),
    ],
)
def test_correlate_sparse_parts_match_brute_force(a_ticks, b_ticks, chunk):
    bin_ticks, m_bins = 2, 3
    duration = (max(a_ticks + b_ticks) + 1) * 1e-12
    a = TimeTagStream(1e-12, np.zeros(len(a_ticks), np.uint8), a_ticks, duration)
    b = TimeTagStream(1e-12, np.ones(len(b_ticks), np.uint8), b_ticks, duration)
    expected = brute_force_counts(a_ticks, b_ticks, bin_ticks, m_bins)
    for sparse in (correlator._SPARSE_PAIRS, math.inf):
        with patch.object(correlator, "_A_CHUNK", chunk), \
                patch.object(correlator, "_SPARSE_PAIRS", sparse):
            hist = correlate(a, b, bin_width=bin_ticks * 1e-12, window=m_bins * bin_ticks * 1e-12)
        assert hist.raw.tolist() == expected


def test_correlate_bins_a_delay_past_2_62_ticks_on_its_own_side():
    # 2 * (2**62 + 5) wraps in int64; the delay is 4.6 bins of 1e18 ticks
    a = TimeTagStream(1e-12, np.zeros(1, np.uint8), [0], 5e6)
    b = TimeTagStream(1e-12, np.ones(1, np.uint8), [2**62 + 5], 5e6)
    hist = correlate_warned(a, b, 1e6, 1e7)
    assert hist.raw.tolist() == brute_force_counts([0], [2**62 + 5], 10**18, 10)
    assert hist.raw[10 + 5] == 1
