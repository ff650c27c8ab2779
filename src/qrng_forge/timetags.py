"""Time-tagged detection events, bit sequences, and their file formats.

Everything downstream (coincidence matching, certification, extraction)
consumes the types defined here. A stream of detection events is its two
columns, timestamps and channel codes; timestamps are integer picoseconds
from acquisition start, so a 1 ns coincidence window is 1000 units.
All containers are immutable values after construction and safe to share
across workers.

Binary tag file (``QTT1``):
    header  = magic ``QTT1`` | version u16 LE | channel count u16 LE (=6)
              | duration u64 LE (ps) | record count u64 LE          (24 bytes)
    records = timestamp u64 LE | channel u8                         (9 bytes each)
A file longer or shorter than the header and its declared records is
refused.

Bit file: bits packed MSB-first within each byte, trailing pad bits zero.
The logical bit count lives in a sidecar JSON manifest ``{"bits": N}``
stored at ``<path>.json``.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import os
import struct
from pathlib import Path

import numpy as np

MAX_TIMESTAMP = 2**63 - 1  # headroom for signed arithmetic on differences

_MAGIC = b"QTT1"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("ch", "u1")])
#: Records that :func:`_write_records`, the writer under :func:`write_stream`
#: and ``run``'s writer thread, encodes, hashes and writes at a time, and that
#: :func:`read_stream` and :func:`decode_stream` read at a time: 2.25 MiB.
WRITE_RECORDS = 1 << 18


class TagFileError(Exception):
    """Base class for tag-file codec failures."""


class FormatError(TagFileError):
    """Bad magic, unsupported version, malformed header, or bytes past the records."""


class CorruptionError(TagFileError):
    """Structurally valid file whose payload violates stream invariants."""


class TruncationError(TagFileError):
    """File ends before the declared record count."""


class Channel(enum.IntEnum):
    """The six detector channels, one per ring section.

    Values are the on-wire channel codes. The three diametric section
    pairs are (U1, D2), (U2, D1) and (C1, C2); ``partner`` maps each
    channel to its opposite section.
    """

    U1 = 0
    U2 = 1
    D1 = 2
    D2 = 3
    C1 = 4
    C2 = 5

    @property
    def partner(self) -> "Channel":
        return _PARTNER[self]


#: Section pairs that emit correlated photon pairs.
SECTION_PAIRS = (
    (Channel.U1, Channel.D2),
    (Channel.U2, Channel.D1),
    (Channel.C1, Channel.C2),
)

_PARTNER = {a: b for pair in SECTION_PAIRS for a, b in (pair, pair[::-1])}


def _check_columns(ts: np.ndarray, duration: int, unsorted: bool, bad_channel: bool) -> None:
    """Raise ValueError for the first fault of a stream's columns, given
    whether its timestamps ``ts`` are out of order and whether a channel
    code is invalid. The faults, first to last: a duration below 1 ps, a
    timestamp below 0 or past the duration, a timestamp out of order, and
    an invalid channel code."""
    if duration <= 0:
        raise ValueError("duration must be a positive picosecond count")
    if ts.size:
        # a sorted stream's range is its ends; only an unsorted one needs a
        # search, so that each fault keeps its precedence
        lo, hi = (ts.min(), ts.max()) if unsorted else (ts[0], ts[-1])
        if lo < 0:
            raise ValueError("timestamps outside [0, 2^63)")
        if hi > duration:
            raise ValueError("timestamps exceed stream duration")
        if unsorted:
            raise ValueError("timestamps must be non-decreasing")
    if bad_channel:
        raise ValueError("invalid channel code")


class TagStream:
    """A time-sorted sequence of detection events over a fixed duration.

    Stored as its two columns, int64 timestamps and uint8 channel codes,
    so bulk operations stay vectorized.
    Ties across channels at equal timestamps are legal and their relative
    order is preserved.
    """

    __slots__ = ("timestamps", "channels", "duration")

    def __init__(self, timestamps, channels, duration: int, validate: bool = True):
        ts = np.ascontiguousarray(timestamps, dtype=np.int64)
        ch = np.ascontiguousarray(channels, dtype=np.uint8)
        duration = int(duration)
        if validate:
            if ts.shape != ch.shape or ts.ndim != 1:
                raise ValueError("timestamps and channels must be 1-d and equal length")
            _check_columns(ts, duration, bool((ts[1:] < ts[:-1]).any()),
                           bool(ch.size and ch.max() > max(Channel)))
        ts.setflags(write=False)
        ch.setflags(write=False)
        self.timestamps = ts
        self.channels = ch
        self.duration = duration

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagStream):
            return NotImplemented
        return (
            self.duration == other.duration
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.channels, other.channels)
        )

    def __repr__(self) -> str:
        return f"TagStream({len(self)} tags, duration={self.duration} ps)"

    def channel_times(self, channel: Channel) -> np.ndarray:
        """Timestamps of one channel, sorted and read-only: one mask over
        the stream per call."""
        times = self.timestamps[self.channels == int(channel)]
        times.setflags(write=False)
        return times

    def counts_by_channel(self) -> dict[Channel, int]:
        """Tags per channel, counted on the channel codes in one pass."""
        counts = np.bincount(self.channels, minlength=6).tolist()
        return {ch: counts[ch] for ch in Channel}


def _header(stream: TagStream) -> bytes:
    return _HEADER.pack(_MAGIC, _VERSION, 6, stream.duration, len(stream))


def _records(ts: np.ndarray, ch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The QTT1 records of the tags ``(ts, ch)``, written into ``out``
    (``9 * ts.size`` bytes) or, without it, into a new array."""
    records = np.empty(ts.size, _RECORD_DTYPE) if out is None else out.view(_RECORD_DTYPE)
    records["t"] = ts
    records["ch"] = ch
    return records


def encode_stream(stream: TagStream) -> bytes:
    """Serialize a stream to the canonical QTT1 byte layout."""
    return _header(stream) + _records(stream.timestamps, stream.channels).tobytes()


def _decode(f, size: int) -> TagStream:
    """The QTT1 stream in the ``size``-byte binary file ``f``, read from its
    start. The records are read :data:`WRITE_RECORDS` at a time into one
    reused buffer, their columns copied into the stream's arrays, and their
    order checked across chunk edges as they come, once."""
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise FormatError("file shorter than QTT1 header")
    magic, version, n_channels, duration, count = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if n_channels != 6:
        raise FormatError(f"expected 6 channels, header says {n_channels}")
    record = _RECORD_DTYPE.itemsize
    surplus = size - _HEADER.size - count * record
    if surplus < 0:
        raise TruncationError(f"header declares {count} records, payload holds "
                              f"{(size - _HEADER.size) // record}")
    if surplus:
        raise FormatError(f"header declares {count} records, file holds {surplus} bytes past them")
    ts, ch = np.empty(count, np.int64), np.empty(count, np.uint8)
    buf = _record_buffer(count)
    unsorted = bad_channel = False
    for start in range(0, count, WRITE_RECORDS):
        stop = min(start + WRITE_RECORDS, count)
        data = buf[: (stop - start) * record]
        got = f.readinto(data)
        if got < data.size:  # the file shrank after its size was taken
            raise TruncationError(
                f"header declares {count} records, payload holds {start + got // record}"
            )
        records = data.view(_RECORD_DTYPE)
        # a u64 timestamp of 2^63 or more wraps negative here, which the
        # range check rejects
        t, c = ts[start:stop], ch[start:stop]
        t[...] = records["t"]
        c[...] = records["ch"]
        unsorted = unsorted or bool((t[1:] < t[:-1]).any() or (start and t[0] < ts[start - 1]))
        bad_channel = bad_channel or bool(c.max() > max(Channel))
    try:
        _check_columns(ts, duration, unsorted, bad_channel)
    except ValueError as exc:
        raise CorruptionError(str(exc)) from exc
    return TagStream(ts, ch, duration, validate=False)


def decode_stream(data: bytes) -> TagStream:
    """Parse QTT1 bytes back into a :class:`TagStream`, by the decoder of
    :func:`read_stream`; the stream shares no memory with ``data``.

    Raises :class:`FormatError` on bad magic/version or on bytes past the
    declared records, :class:`TruncationError` when records are missing or
    cut short, and :class:`CorruptionError` when the payload violates
    stream invariants (bad channel code, unsorted or out-of-range
    timestamps). Only the exact size of header plus records reads.
    """
    return _decode(io.BytesIO(data), len(data))


def _record_buffer(n: int) -> np.ndarray:
    """The buffer :func:`_write_records` encodes the records of an
    ``n``-tag stream into, and :func:`_decode` reads them into, one chunk at
    a time."""
    return np.empty(min(n, WRITE_RECORDS) * _RECORD_DTYPE.itemsize, np.uint8)


def _write_records(stream: TagStream, path, buf: np.ndarray | None = None) -> str:
    """Write the bytes of :func:`encode_stream`, encoding, hashing and
    writing :data:`WRITE_RECORDS` records at a time through ``buf`` (from
    :func:`_record_buffer`; None allocates it here). Returns the sha256 hex
    digest of those bytes, hashed from the buffer rather than by reading
    the file back.

    It calls no public function of the package, so that it may run on a
    thread of its own while the caller's thread goes on; the caller then
    allocates ``buf``, since a thread's freed heap may stay resident."""
    if buf is None:
        buf = _record_buffer(len(stream))
    ts, ch, n = stream.timestamps, stream.channels, len(stream)
    header = _header(stream)
    digest = hashlib.sha256(header)
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, n, WRITE_RECORDS):
            stop = min(start + WRITE_RECORDS, n)
            data = buf[: (stop - start) * _RECORD_DTYPE.itemsize]
            _records(ts[start:stop], ch[start:stop], data)
            digest.update(data)
            f.write(data)
    return digest.hexdigest()


def write_stream(stream: TagStream, path) -> str:
    """Write the bytes of :func:`encode_stream` to ``path``; returns their
    sha256 hex digest."""
    return _write_records(stream, path)


def read_stream(path) -> TagStream:
    """The QTT1 stream in the file ``path``, read in chunks of
    :data:`WRITE_RECORDS` records; faults as in :func:`decode_stream`."""
    with open(path, "rb") as f:
        return _decode(f, os.fstat(f.fileno()).st_size)


def import_csv(text: str, duration: int | None = None) -> TagStream:
    """Parse ``timestamp_ps,channel_name`` lines into a sorted stream.

    Lines may arrive unsorted; blank lines are skipped. Unknown channel
    names and non-integer timestamps raise ValueError. If ``duration`` is
    omitted it defaults to the latest timestamp, at least 1 ps.
    """
    ts_list: list[int] = []
    ch_list: list[int] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'timestamp,channel', got {line!r}")
        t_text, ch_text = parts[0].strip(), parts[1].strip()
        try:
            t = int(t_text)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer timestamp {t_text!r}") from None
        if t < 0 or t > MAX_TIMESTAMP:
            raise ValueError(f"line {lineno}: timestamp {t} outside [0, 2^63)")
        try:
            ch = Channel[ch_text]
        except KeyError:
            raise ValueError(f"line {lineno}: unknown channel {ch_text!r}") from None
        ts_list.append(t)
        ch_list.append(int(ch))
    ts = np.array(ts_list, dtype=np.int64)
    ch = np.array(ch_list, dtype=np.uint8)
    order = np.argsort(ts, kind="stable")
    if duration is None:
        duration = max(int(ts.max()) if ts.size else 0, 1)
    return TagStream(ts[order], ch[order], duration)


class BitSequence:
    """An immutable bit string, packed MSB-first into bytes.

    ``length`` is the logical bit count; pad bits beyond it are zero.
    """

    __slots__ = ("packed", "length")

    def __init__(self, packed, length: int):
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        length = int(length)
        if length < 0 or packed.size != (length + 7) // 8:
            raise ValueError(f"{packed.size} bytes cannot hold exactly {length} bits")
        if length % 8:
            tail_mask = 0xFF >> (length % 8)
            if packed.size and (packed[-1] & tail_mask):
                raise ValueError("nonzero pad bits in final byte")
        packed.setflags(write=False)
        self.packed = packed
        self.length = length

    @classmethod
    def from_bits(cls, bits) -> "BitSequence":
        """A 0/1 array-like packed; a BitSequence, being immutable, as it is."""
        if isinstance(bits, BitSequence):
            return bits
        bits = as_bit_array(bits)
        return cls(np.packbits(bits), bits.size)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitSequence":
        return cls(np.frombuffer(data, dtype=np.uint8).copy(), length)

    def to_bits(self) -> np.ndarray:
        """Unpack to a 0/1 uint8 array of the logical length."""
        return np.unpackbits(self.packed, count=self.length)

    def to_bytes(self) -> bytes:
        return self.packed.tobytes()

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (int(self.packed[i >> 3]) >> (7 - (i & 7))) & 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self.length == other.length and np.array_equal(self.packed, other.packed)

    def __hash__(self) -> int:
        return hash((self.length, self.packed.tobytes()))

    def __repr__(self) -> str:
        return f"BitSequence({self.length} bits)"


def as_bit_array(bits) -> np.ndarray:
    """A BitSequence, or a 0/1 array-like of any numeric or bool dtype, as a
    uint8 array of its bits; ValueError("bits must be 0/1") for any other
    value, NaN included."""
    if isinstance(bits, BitSequence):
        return bits.to_bits()
    arr = np.asarray(bits)
    if arr.dtype != np.uint8:
        if arr.size and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("bits must be 0/1")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise ValueError("bits must be 0/1")
    return arr


def write_bits(bits: BitSequence, path) -> None:
    """Write packed bits plus the ``{"bits": N}`` sidecar manifest."""
    path = Path(path)
    path.write_bytes(bits.to_bytes())
    Path(str(path) + ".json").write_text(json.dumps({"bits": bits.length}))


def read_bits(path) -> BitSequence:
    """Read a bit file written by :func:`write_bits`.

    ValueError unless the sidecar is a JSON object whose ``"bits"`` is a
    non-negative integer that the file's bytes hold exactly.
    """
    path = Path(path)
    manifest = json.loads(Path(str(path) + ".json").read_text())
    bits = manifest.get("bits") if isinstance(manifest, dict) else None
    if type(bits) is not int or bits < 0:
        raise ValueError(f'{path}.json: expected {{"bits": N}}, N a non-negative integer')
    return BitSequence.from_bytes(path.read_bytes(), bits)
