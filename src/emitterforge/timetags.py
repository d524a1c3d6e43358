"""Time-tag streams and their binary on-disk format.

A stream is a globally time-ordered list of (channel, timestamp) records on a
fixed tick grid. The binary format is deliberately minimal, a few header
fields, little-endian::

    bytes 0-3   magic "TTG1" (ASCII)
    bytes 4-5   u16 format version (currently 1)
    bytes 6-13  u64 tick resolution in picoseconds
    bytes 14-21 u64 record count
    then        records of u8 channel + u64 timestamp in ticks,
                sorted by timestamp
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError

MAGIC = b"TTG1"
VERSION = 1
_HEADER = struct.Struct("<4sHQQ")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
RECORD_SIZE = _RECORD_DTYPE.itemsize  # 9 bytes, packed


@dataclass
class TimeTagStream:
    """Time-ordered detection events on an integer tick grid.

    Parameters
    ----------
    resolution : float
        Seconds per tick. Must be an integer number of picoseconds to be
        writable as a binary file.
    channels : ndarray of uint8
    timestamps : ndarray of int64
        Tick values, nonnegative and globally non-decreasing.
    duration : float
        Acquisition span in seconds. All timestamps satisfy
        ``timestamp * resolution < duration``.

    The constructor checks the order of every timestamp. Producers inside
    the package that order their tags by construction build streams with
    ``_trusted``, which keeps only the constant-time checks.
    """

    resolution: float
    channels: np.ndarray
    timestamps: np.ndarray
    duration: float

    def __post_init__(self):
        self._check_fields()
        # compared, not subtracted: a difference of int64 values can wrap
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
            raise DomainError("timestamps must be non-decreasing")

    def _check_fields(self) -> None:
        """The constant-time checks: dtypes, lengths, scalars, first tag."""
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.channels.shape != self.timestamps.shape:
            raise DomainError("channels and timestamps must have equal length")
        if self.resolution <= 0:
            raise DomainError("resolution must be positive")
        if self.duration < 0:
            raise DomainError("duration must be nonnegative")
        if self.timestamps.size and self.timestamps[0] < 0:
            raise DomainError("timestamps must be nonnegative")

    @classmethod
    def _trusted(cls, resolution, channels, timestamps, duration) -> "TimeTagStream":
        """A stream whose timestamps the caller guarantees non-decreasing.

        Skips the O(n) order check of the public constructor; the
        constant-time checks still run.
        """
        stream = cls.__new__(cls)
        stream.resolution, stream.channels = resolution, channels
        stream.timestamps, stream.duration = timestamps, duration
        stream._check_fields()
        return stream

    @classmethod
    def from_times(
        cls,
        times_s: np.ndarray,
        channel: int,
        resolution: float,
        duration: float,
    ) -> "TimeTagStream":
        """Quantize float arrival times (seconds) onto the tick grid."""
        times_s = np.asarray(times_s, dtype=np.float64)
        ticks = np.floor(times_s / resolution).astype(np.int64)
        ticks.sort(kind="stable")
        channels = np.full(ticks.shape, channel, dtype=np.uint8)
        return cls._trusted(resolution, channels, ticks, duration)

    @property
    def n_tags(self) -> int:
        return int(self.timestamps.size)

    def channel_list(self) -> list[int]:
        return np.flatnonzero(np.bincount(self.channels)).tolist()

    def select(self, channel: int) -> "TimeTagStream":
        """Sub-stream containing only one channel (same resolution/duration)."""
        ts = self.timestamps.compress(self.channels == channel)
        # a channel outside uint8 matches no tag, and np.full would refuse it
        channels = np.full(ts.size, channel if ts.size else 0, np.uint8)
        return TimeTagStream._trusted(self.resolution, channels, ts, self.duration)


def merge_streams(*streams: TimeTagStream) -> TimeTagStream:
    """Merge streams on a common tick grid into one time-ordered stream.

    Ties on identical timestamps are broken by channel, then by source
    position, so the result does not depend on how merging is parallelized.

    Every input is sorted by timestamp, so the concatenation is a sequence
    of sorted runs, which a stable (run-merging) sort by timestamp puts in
    order. Tags equal in timestamp and channel are identical records, so
    no sort needs the source position as a key: when every tag has one
    channel, the timestamps alone are sorted. Otherwise a stable argsort
    by timestamp orders the records, ties keeping their source order, and
    if some tie is then out of channel order, a ``lexsort`` by timestamp,
    then channel, is taken instead.
    """
    if not streams:
        raise DomainError("need at least one stream")
    resolution = streams[0].resolution
    for s in streams:
        if s.resolution != resolution:
            raise DomainError("streams have mismatched resolutions")
    channels = np.concatenate([s.channels for s in streams])
    timestamps = np.concatenate([s.timestamps for s in streams])
    duration = max(s.duration for s in streams)
    if not channels.size or (channels == channels[0]).all():
        timestamps.sort(kind="stable")
        return TimeTagStream._trusted(resolution, channels, timestamps, duration)
    order = np.argsort(timestamps, kind="stable")
    ch, ts = channels[order], timestamps[order]
    if np.any((ts[1:] == ts[:-1]) & (ch[1:] < ch[:-1])):
        order = np.lexsort((channels, timestamps))
        ch, ts = channels[order], timestamps[order]
    return TimeTagStream._trusted(resolution, ch, ts, duration)


def _resolution_ps(resolution: float) -> int:
    ps = resolution / 1e-12
    if abs(ps - round(ps)) > 1e-6 or round(ps) < 1:
        raise DomainError(
            f"tick resolution {resolution!r} s is not an integer number of picoseconds"
        )
    return int(round(ps))


def write_timetags(stream: TimeTagStream, path) -> None:
    """Write a stream in the binary format described in the module docstring."""
    header = _HEADER.pack(MAGIC, VERSION, _resolution_ps(stream.resolution), stream.n_tags)
    records = np.empty(stream.n_tags, dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["timestamp"] = stream.timestamps.astype(np.uint64)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_timetags(path) -> TimeTagStream:
    """Read a binary tag file, validating structure as it goes.

    Raises
    ------
    FormatError
        With ``offset`` set to the byte position of the first violation.
        The acquisition duration is not stored in the file; it is recovered
        as (last timestamp + 1 tick).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"file too short for header ({len(data)} bytes)", offset=len(data)
        )
    magic, version, res_ps, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if res_ps == 0:
        raise FormatError("resolution must be nonzero", offset=6)
    expected = count * RECORD_SIZE
    found = len(data) - _HEADER.size
    if found != expected:
        # offset of the first missing/extra byte
        raise FormatError(
            f"expected {count} records ({expected} bytes), found {found} bytes",
            offset=_HEADER.size + min(found, expected),
        )
    # read the records in place: slicing ``data`` would copy the whole body
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=count, offset=_HEADER.size)
    stamps = records["timestamp"]
    bad = np.flatnonzero(stamps[1:] < stamps[:-1])
    if bad.size:
        i = int(bad[0]) + 1
        raise FormatError(
            f"timestamps decrease at record {i}",
            offset=_HEADER.size + i * RECORD_SIZE,
        )
    if stamps.size and stamps[-1] >= 2**63:
        i = int(np.searchsorted(stamps, np.uint64(2**63)))
        raise FormatError(
            f"timestamp at record {i} exceeds 2**63-1", offset=_HEADER.size + i * RECORD_SIZE
        )
    timestamps = stamps.astype(np.int64)
    resolution = res_ps * 1e-12
    duration = float(timestamps[-1] + 1) * resolution if timestamps.size else 0.0
    return TimeTagStream._trusted(resolution, records["channel"].copy(), timestamps, duration)
