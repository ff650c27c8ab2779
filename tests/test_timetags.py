import hashlib
import io
import json
import struct

import numpy as np
import pytest

from qrng_forge import (
    BitSequence,
    Channel,
    TagStream,
    TimeTag,
    decode_stream,
    encode_stream,
    import_csv,
    merge_streams,
    read_bits,
    write_bits,
)
from qrng_forge import _native, timetags
from qrng_forge.timetags import (
    MAX_TIMESTAMP,
    WRITE_RECORDS,
    CorruptionError,
    FormatError,
    TruncationError,
    as_bit_array,
    read_stream,
    write_stream,
)

from conftest import make_stream, needs_gcc


class TestChannel:
    def test_six_channels_with_wire_codes(self):
        assert [int(ch) for ch in Channel] == [0, 1, 2, 3, 4, 5]
        assert [ch.name for ch in Channel] == ["U1", "U2", "D1", "D2", "C1", "C2"]

    def test_diametric_pairing_is_total_involution(self):
        assert Channel.U1.partner is Channel.D2
        assert Channel.U2.partner is Channel.D1
        assert Channel.C1.partner is Channel.C2
        for ch in Channel:
            assert ch.partner.partner is ch


class TestCodec:
    def test_empty_stream_is_header_only(self):
        stream = TagStream([], [], duration=10**9)
        data = encode_stream(stream)
        assert len(data) == 24
        assert data[:4] == b"QTT1"
        assert decode_stream(data) == stream

    def test_single_tag_record_layout(self):
        stream = make_stream([1000], Channel.U1, duration=10**6)
        data = encode_stream(stream)
        assert len(data) == 24 + 9
        assert decode_stream(data) == stream

    def test_roundtrip_property_many_small_streams(self, rng):
        for _ in range(1000):
            n = int(rng.integers(0, 40))
            times = np.sort(rng.integers(0, 10**8, n))
            channels = rng.integers(0, 6, n).astype(np.uint8)
            stream = TagStream(times, channels, duration=10**8)
            assert decode_stream(encode_stream(stream)) == stream

    def test_roundtrip_million_tags(self, rng):
        n = 10**6
        times = np.sort(rng.integers(0, 10**12, n))
        channels = rng.integers(0, 6, n).astype(np.uint8)
        stream = TagStream(times, channels, duration=10**12)
        data = encode_stream(stream)
        assert decode_stream(data) == stream

    def test_bad_magic(self):
        data = encode_stream(TagStream([], [], duration=1))
        with pytest.raises(FormatError):
            decode_stream(b"XXXX" + data[4:])

    def test_bad_version(self):
        data = bytearray(encode_stream(TagStream([], [], duration=1)))
        data[4] = 9
        with pytest.raises(FormatError):
            decode_stream(bytes(data))

    def test_invalid_channel_byte(self):
        data = bytearray(encode_stream(make_stream([5], Channel.U1, duration=10)))
        data[-1] = 7  # only 0..5 are valid
        with pytest.raises(CorruptionError):
            decode_stream(bytes(data))

    def test_unsorted_timestamps(self):
        good = make_stream([10, 20], Channel.U1, duration=100)
        data = bytearray(encode_stream(good))
        data[24:32], data[33:41] = data[33:41], data[24:32]  # swap the two timestamps
        with pytest.raises(CorruptionError):
            decode_stream(bytes(data))

    @pytest.mark.parametrize(
        "record, timestamp, message",
        [(0, 2**63, "outside"), (0, 2**64 - 1, "outside"),
         (1, 101, "exceed"),  # 101 is past the 100 ps duration
         # with the order broken too, the range fault is the one named
         (1, 2**63, "outside"), (0, 101, "exceed")],
        ids=["2^63", "u64_max", "past_duration", "negative_unsorted", "past_duration_unsorted"],
    )
    def test_timestamp_out_of_range(self, record, timestamp, message):
        data = bytearray(encode_stream(make_stream([10, 20], Channel.U1, duration=100)))
        struct.pack_into("<Q", data, 24 + 9 * record, timestamp)
        with pytest.raises(CorruptionError, match=message):
            decode_stream(bytes(data))

    def test_truncated_record(self):
        data = encode_stream(make_stream([5, 6], Channel.D1, duration=10))
        with pytest.raises(TruncationError):
            decode_stream(data[:-4])

    def test_payload_past_declared_records_ignored(self):
        stream = make_stream([5, 6], Channel.D1, duration=10)
        assert decode_stream(encode_stream(stream) + b"\xff" * 13) == stream

    def test_decoded_arrays_share_no_memory_with_input(self, rng):
        # the records are read in place, and both columns copied out of them
        for n in (0, 1, 2, 1000):
            ts = np.sort(rng.integers(0, 10**9, n))
            encoded = encode_stream(TagStream(ts, rng.integers(0, 6, n), 10**9))
            for data in (encoded, bytearray(encoded)):
                stream = decode_stream(data)
                for arr in (stream.timestamps, stream.channels):
                    assert not np.shares_memory(arr, np.frombuffer(data, np.uint8)), n
                    assert not arr.flags.writeable, n

    def test_file_roundtrip(self, tmp_path, rng):
        stream = make_stream(np.sort(rng.integers(0, 1000, 20)), Channel.C2)
        path = tmp_path / "tags.qtt"
        write_stream(stream, path)
        assert read_stream(path) == stream

    def test_written_file_equals_encoding(self, tmp_path, rng):
        path = tmp_path / "tags.qtt"
        for n in (0, 1, 5000, 2 * WRITE_RECORDS + 3):
            ts = np.sort(rng.integers(0, 10**9, n))
            stream = TagStream(ts, rng.integers(0, 6, n), 10**9)
            write_stream(stream, path)
            assert path.read_bytes() == encode_stream(stream)


    def test_write_returns_file_sha256(self, tmp_path, rng):
        path = tmp_path / "tags.qtt"
        for n in (0, 1, 5000, 2 * WRITE_RECORDS + 3):  # the last in three pieces
            ts = np.sort(rng.integers(0, 10**9, n))
            digest = write_stream(TagStream(ts, rng.integers(0, 6, n), 10**9), path)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("backend", [pytest.param("c", marks=needs_gcc), "numpy"])
def test_write_records_equal_encoding(tmp_path, rng, backend, monkeypatch):
    # one chunk at a time, either side of each chunk edge: the bytes of
    # encode_stream and their sha256, the same whether the C kernels are
    # built or not
    if backend == "numpy":
        monkeypatch.setattr(_native, "library", lambda: None)
    path = tmp_path / "tags.qtt"
    for n in (0, 1, WRITE_RECORDS - 1, WRITE_RECORDS, WRITE_RECORDS + 1, 2 * WRITE_RECORDS + 3):
        ts = np.sort(rng.integers(0, MAX_TIMESTAMP, n, endpoint=True))
        ts[:1], ts[1:][-1:] = 0, MAX_TIMESTAMP  # the least and the greatest timestamp
        ch = rng.integers(0, 6, n)
        ch[:6] = np.arange(6)[:n]  # every channel code, from 6 tags on
        stream = TagStream(ts, ch, MAX_TIMESTAMP)
        digest = timetags._write_records(stream, path)
        data = path.read_bytes()
        assert data == encode_stream(stream), n
        assert digest == hashlib.sha256(data).hexdigest(), n


class TestChunkedRead:
    """The decoder reads WRITE_RECORDS records at a time; with chunks of 4,
    each fault sits at or past a chunk edge, and read_stream and
    decode_stream raise it with the class and message a whole-file read
    gives."""

    CHUNK = 4

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(timetags, "WRITE_RECORDS", self.CHUNK)

    def encoded(self, n=10):
        ts = np.arange(n, dtype=np.int64) * 10
        return bytearray(encode_stream(TagStream(ts, np.arange(n) % 6, 1000)))

    def decode_both(self, data, tmp_path):
        path = tmp_path / "tags.qtt"
        path.write_bytes(bytes(data))
        return read_stream(path), decode_stream(bytes(data))

    def assert_fault(self, data, tmp_path, cls, message):
        path = tmp_path / "tags.qtt"
        path.write_bytes(bytes(data))
        for decode in (lambda: read_stream(path), lambda: decode_stream(bytes(data))):
            with pytest.raises(cls) as info:
                decode()
            assert str(info.value) == message

    def test_roundtrip_either_side_of_chunk_edges(self, tmp_path, rng):
        for n in (0, 1, 3, 4, 5, 8, 9, 13):
            ts = np.sort(rng.integers(0, 10**6, n))
            stream = TagStream(ts, rng.integers(0, 6, n), 10**6)
            assert self.decode_both(encode_stream(stream), tmp_path) == (stream, stream), n

    def test_unsorted_pair_across_chunk_edge(self, tmp_path):
        data = self.encoded()
        struct.pack_into("<Q", data, 24 + 9 * 4, 25)  # record 4 < record 3 (30)
        self.assert_fault(data, tmp_path, CorruptionError, "timestamps must be non-decreasing")

    def test_truncated_inside_last_chunk(self, tmp_path):
        data = self.encoded()[:-4]  # records 8 and 9 make the last chunk
        self.assert_fault(data, tmp_path, TruncationError,
                          "header declares 10 records, payload holds 9")

    def test_file_that_shrinks_while_read(self):
        data = self.encoded()
        with pytest.raises(TruncationError, match="header declares 10 records, payload holds 9"):
            timetags._decode(io.BytesIO(bytes(data[:-4])), len(data))

    def test_bad_channel_in_last_record(self, tmp_path):
        data = self.encoded()
        data[-1] = 6
        self.assert_fault(data, tmp_path, CorruptionError, "invalid channel code")

    @pytest.mark.parametrize("timestamp", [2**63, 2**64 - 1])
    def test_timestamp_past_2_63_in_a_later_chunk(self, tmp_path, timestamp):
        # with the order broken in the first chunk and a bad channel in the
        # last, the range fault is still the one named
        data = self.encoded()
        struct.pack_into("<Q", data, 24 + 9 * 6, timestamp)
        struct.pack_into("<Q", data, 24 + 9 * 1, 0)
        data[-1] = 7
        self.assert_fault(data, tmp_path, CorruptionError, "timestamps outside [0, 2^63)")

    def test_order_fault_outranks_a_later_bad_channel(self, tmp_path):
        data = self.encoded()
        struct.pack_into("<Q", data, 24 + 9 * 8, 5)  # record 8 < record 7, chunk 3
        data[24 + 9 * 2 + 8] = 9  # record 2's channel, chunk 1
        self.assert_fault(data, tmp_path, CorruptionError, "timestamps must be non-decreasing")


def test_from_tags_rebuilds_stream(rng):
    # the tags a stream yields, back into the same stream: empty, with ties
    # (kept in their order) and random
    ts = np.sort(rng.integers(0, 10**9, 10_000))
    for stream in (TagStream([], [], 100), TagStream([3, 3, 3, 7, 7], [5, 0, 2, 2, 1], 10),
                   TagStream(ts, rng.integers(0, 6, ts.size), 10**9)):
        assert TagStream.from_tags(list(stream), stream.duration) == stream


class TestMerge:
    def test_identity_single_and_with_empty(self):
        s = make_stream([3, 7, 9], Channel.U1, duration=100)
        empty = TagStream([], [], duration=100)
        assert merge_streams([s]) == s
        assert merge_streams([s, empty]) == s

    def test_two_singletons_sorted(self):
        a = make_stream([5], Channel.U1, duration=10)
        b = make_stream([3], Channel.D2, duration=10)
        merged = merge_streams([a, b])
        assert merged.timestamps.tolist() == [3, 5]

    def test_merge_equals_full_sort_oracle(self, rng):
        streams = []
        for code in range(6):
            times = np.sort(rng.integers(0, 10**10, 10**5))
            streams.append(TagStream(times, np.full(10**5, code, np.uint8), 10**10))
        merged = merge_streams(streams)
        all_times = np.concatenate([s.timestamps for s in streams])
        all_ch = np.concatenate([s.channels for s in streams])
        order = np.argsort(all_times, kind="stable")
        assert np.array_equal(merged.timestamps, all_times[order])
        assert np.array_equal(merged.channels, all_ch[order])
        assert len(merged) == sum(len(s) for s in streams)

    def test_tie_order_preserves_input_order(self):
        a = make_stream([50], Channel.C1, duration=100)
        b = make_stream([50], Channel.U2, duration=100)
        merged = merge_streams([a, b])
        assert merged.channels.tolist() == [int(Channel.C1), int(Channel.U2)]
        swapped = merge_streams([b, a])
        assert swapped.channels.tolist() == [int(Channel.U2), int(Channel.C1)]

    def test_mismatched_durations(self):
        with pytest.raises(ValueError, match="duration"):
            merge_streams(
                [TagStream([], [], duration=10), TagStream([], [], duration=20)]
            )

    def test_length_additive(self, rng):
        a = make_stream(np.sort(rng.integers(0, 100, 17)), Channel.U1, duration=100)
        b = make_stream(np.sort(rng.integers(0, 100, 23)), Channel.D1, duration=100)
        assert len(merge_streams([a, b])) == 40


class TestCsvImport:
    def test_basic(self):
        stream = import_csv("1000,U1\n2000,D2")
        assert len(stream) == 2
        assert stream[0] == TimeTag(1000, Channel.U1)
        assert stream[1] == TimeTag(2000, Channel.D2)

    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="unknown channel"):
            import_csv("1000,X9")

    def test_non_integer_timestamp(self):
        with pytest.raises(ValueError, match="non-integer"):
            import_csv("12.5,U1")

    def test_latest_tag_at_zero_gives_one_picosecond(self):
        # the duration defaults to the latest timestamp, floored at 1 ps
        stream = import_csv("0,U1\n0,D2\n")
        assert stream.duration == 1
        assert stream.timestamps.tolist() == [0, 0]
        assert import_csv("").duration == 1

    def test_out_of_order_lines_sorted(self):
        stream = import_csv("2000,D2\n1000,U1\n1500,C1")
        assert stream.timestamps.tolist() == [1000, 1500, 2000]


class TestBitSequence:
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_roundtrip_exact_lengths(self, length, rng):
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        seq = BitSequence.from_bits(bits)
        assert len(seq) == length
        assert np.array_equal(seq.to_bits(), bits)

    def test_roundtrip_all_lengths_to_1024(self, rng):
        for length in range(1025):
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            seq = BitSequence.from_bits(bits)
            assert np.array_equal(seq.to_bits(), bits)

    def test_indexing_msb_first(self):
        seq = BitSequence.from_bits([1, 0, 1, 1, 0, 0, 0, 0, 1])
        assert [seq[i] for i in range(9)] == [1, 0, 1, 1, 0, 0, 0, 0, 1]
        assert seq.to_bytes()[0] == 0b10110000

    def test_from_bits_keeps_a_bit_sequence(self, rng):
        seq = BitSequence.from_bits(rng.integers(0, 2, 77))
        assert BitSequence.from_bits(seq) is seq

    def test_nonzero_pad_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            BitSequence(np.array([0xFF], np.uint8), 4)

    def test_length_byte_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitSequence(np.zeros(2, np.uint8), 3)

    def test_file_roundtrip_with_sidecar(self, tmp_path, rng):
        bits = rng.integers(0, 2, 1001, dtype=np.uint8)
        seq = BitSequence.from_bits(bits)
        path = tmp_path / "out.bits"
        write_bits(seq, path)
        sidecar = json.loads((tmp_path / "out.bits.json").read_text())
        assert sidecar == {"bits": 1001}
        assert read_bits(path) == seq

    @pytest.mark.parametrize("to_bits", [as_bit_array, BitSequence.from_bits],
                             ids=["as_bit_array", "from_bits"])
    @pytest.mark.parametrize("bad", [0.7, -1, 2, float("nan")])
    def test_rejects_values_other_than_0_and_1(self, to_bits, bad):
        # no cast may turn them into bits: 0.7 would truncate to 0, -1 wrap to 255
        for bits in ([bad, 1.0, 0], np.array([0, bad, 1])):
            with pytest.raises(ValueError, match="bits must be 0/1"):
                to_bits(bits)

    @pytest.mark.parametrize("to_bits", [as_bit_array, BitSequence.from_bits],
                             ids=["as_bit_array", "from_bits"])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64,
                                       np.float32, np.float64])
    def test_exact_bits_of_any_dtype_pass(self, to_bits, dtype):
        bits = to_bits(np.array([1, 0, 0, 1, 1], dtype=dtype))
        if isinstance(bits, BitSequence):
            bits = bits.to_bits()
        assert bits.dtype == np.uint8 and bits.tolist() == [1, 0, 0, 1, 1]
        assert len(to_bits([])) == 0


class TestStreamInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TagStream([5, 3], [0, 0], duration=10)

    def test_rejects_timestamp_beyond_duration(self):
        with pytest.raises(ValueError):
            TagStream([50], [0], duration=10)

    def test_rejects_bad_channel(self):
        with pytest.raises(ValueError):
            TagStream([5], [6], duration=10)

    def test_tags_iteration(self):
        stream = make_stream([1, 2], Channel.C1, duration=10)
        tags = list(stream)
        assert tags == [TimeTag(1, Channel.C1), TimeTag(2, Channel.C1)]
